#!/usr/bin/env python3
"""Time and size the train steps of the benchmark shape.

Usage: PYTHONPATH=src python3 scripts/train_step_memory.py [STEPS] [SEED]

Trains a GCN DMP on features (cfm, batch 128 of 10x10 reaction-diffusion
grids, hdim 32, 3 layers) for STEPS steps (default 8, seed 0). Per step it
prints the wall time in milliseconds, the minor page faults the step took
(the ``ru_minflt`` delta) and the process's peak resident set so far
(``ru_maxrss``), then the last loss as ``float.hex``, so two source trees
that compute the same numbers print the same last line. A step runs from
the end of the previous step's EMA update (or the call to ``train``) to
the end of its own. Only this process's own resource usage is read.

After the timed steps it reports the autodiff tape of one more step (a
fresh one-step ``train`` on the first batch) run under ``tracemalloc``:
the MB allocated in that step and still live when ``backward`` starts,
which is the forward's graph with the arrays it saved, and the peak MB
during ``backward``. Both count only what the step allocated (MB are
2**20 bytes), and ``tracemalloc`` slows the step, so it is not timed.
"""

from __future__ import annotations

import resource
import sys
import tracemalloc
from time import perf_counter

from ncgn import dataset, engine, nn
from ncgn.tensor import Tensor

BATCH = 128  # graphs per step, as in the benchmark's rd_features workload


def usage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return perf_counter(), ru.ru_minflt, ru.ru_maxrss / 1024.0


def tape_mb(graphs, config):
    """(MB live when ``backward`` starts, peak MB during it) for one train
    step on ``graphs``, counting what the step allocated."""
    backward, marks = Tensor.backward, []

    def measuring(root):
        marks.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        backward(root)
        marks.append(tracemalloc.get_traced_memory()[1])

    Tensor.backward = measuring
    tracemalloc.start()
    try:
        engine.train(graphs, config)
    finally:
        tracemalloc.stop()
        Tensor.backward = backward
    return marks[0] / 2**20, marks[1] / 2**20


def main(steps=8, seed=0):
    ds = dataset.generate_rd_dataset(n_train=4, n_test=1, seed=seed,
                                     sign_convention="damped")
    graphs = ds.train * (-(-BATCH * steps // len(ds.train)))
    config = engine.TrainConfig(task="features", method="dmp", mp_kind="gcn",
                                interpolant="cfm", epochs=1, warmup_epochs=1,
                                batch=BATCH, hdim=32, layers=3, seed=seed)
    marks = [usage()]
    update = nn.EMA.update

    def marking(ema, module):
        update(ema, module)
        marks.append(usage())

    nn.EMA.update = marking
    try:
        _, _, rows = engine.train(graphs[:BATCH * steps], config)
    finally:
        nn.EMA.update = update
    print("step  ms  minflt  maxrss_mb")
    for k, ((t0, f0, _), (t1, f1, rss)) in enumerate(zip(marks, marks[1:])):
        print(f"{k}  {1e3 * (t1 - t0):.1f}  {f1 - f0}  {rss:.1f}")
    print(f"last loss {float(rows[-1][2]).hex()}")
    live, peak = tape_mb(graphs[:BATCH], config)
    print(f"tape live after forward {live:.1f} MB, backward peak {peak:.1f} MB")


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:3]))
