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
"""

from __future__ import annotations

import resource
import sys
from time import perf_counter

from ncgn import dataset, engine, nn

BATCH = 128  # graphs per step, as in the benchmark's rd_features workload


def usage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return perf_counter(), ru.ru_minflt, ru.ru_maxrss / 1024.0


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


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:3]))
