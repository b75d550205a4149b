#!/usr/bin/env python3
"""Time and size the train steps of a benchmark shape.

Usage: PYTHONPATH=src python3 scripts/train_step_memory.py [rd|shapes] [STEPS] [SEED]

With ``rd`` (the default) it trains a GCN DMP on features (cfm, batch
128 of 10x10 reaction-diffusion grids, hdim 32, 3 layers), the train
shape of the benchmark's ``rd_features`` workload. With ``shapes`` it trains a GAT DMP
on positions (cfm, batch 32 of 256-point shapes, hdim 32, 3 layers), the
train shape of ``shapes_positions``. It runs STEPS steps (default 8,
seed 0). Per step it prints the wall time in milliseconds, split into
``fwd_ms`` (until ``Tensor.backward`` is entered) and ``bwd_ms`` (inside
it), the minor page faults the step took (the ``ru_minflt`` delta) and the
process's peak resident set so far (``ru_maxrss``), then the last loss as
``float.hex``, so two source trees that compute the same numbers print the
same last line. Before that line it prints ``resident after train N MB``:
the resident set the moment the timed ``train`` returns, read from the
second field of ``/proc/self/statm`` (pages times the page size), which is
the current resident set, not the peak; after ``train`` trims the free
heap it is about the live model, optimizer and data. It is left out where
``/proc/self/statm`` cannot be read. A step runs from the end of the
previous step's EMA update (or the call to ``train``) to the end of its
own, so its time less ``fwd_ms`` and ``bwd_ms`` is the optimizer and EMA
updates. Only this
process's own resource usage is read. Unless ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` is set, it sets it to 1 before numpy loads, as the
benchmark's workers run, so the last loss does not depend on the shell.

After the timed steps it reports the autodiff tape of one more step (a
fresh one-step ``train`` on the first batch) run under ``tracemalloc``:
the MB allocated in that step and still live when ``backward`` starts,
which is the forward's graph with the arrays it saved; the peak MB up to
then, which adds the forward's temporaries to it; and the peak MB during
``backward``. All three count only what the step allocated (MB are
2**20 bytes), and ``tracemalloc`` slows the step, so it is not timed.
It names the backward closure that holds the backward peak (the last to
raise it), its place in the order the closures run and the MB live just
before it ran. Then it lists the 8 call sites that allocated the most of what is live
when ``backward`` starts (``tracemalloc`` statistics by traceback): each is
the allocating line and the two lines that called it, innermost first, so
a helper that allocates for several callers gets one row per caller.
"""

from __future__ import annotations

import os
import resource
import sys
import tracemalloc
from time import perf_counter

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")  # read once, when numpy loads

from ncgn import dataset, engine, nn  # noqa: E402
from ncgn.tensor import Tensor  # noqa: E402

TOP_SITES = 8  # allocating call sites listed in the tape report
SITE_FRAMES = 3  # frames per call site


def rd_shape(steps, seed):
    """Train graphs and config of the ``rd_features`` train shape."""
    batch = 128
    ds = dataset.generate_rd_dataset(n_train=4, n_test=1, seed=seed,
                                     sign_convention="damped")
    graphs = ds.train * (-(-batch * steps // len(ds.train)))
    config = engine.TrainConfig(task="features", method="dmp", mp_kind="gcn",
                                epochs=1, warmup_epochs=1, batch=batch,
                                hdim=32, layers=3, seed=seed)
    return graphs[:batch * steps], config


def shapes_shape(steps, seed):
    """Train graphs and config of the ``shapes_positions`` train shape."""
    batch = 32
    ds = dataset.generate_shape_dataset(n_train=batch * steps, n_test=1,
                                        n_points=256, seed=seed)
    config = engine.TrainConfig(task="positions", method="dmp", mp_kind="gat",
                                epochs=1, warmup_epochs=1, batch=batch,
                                hdim=32, layers=3, seed=seed)
    return ds.train, config


def usage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return perf_counter(), ru.ru_minflt, ru.ru_maxrss / 1024.0


def resident_mb():
    """This process's current resident set in MB, None where
    ``/proc/self/statm`` cannot be read."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
    except OSError:
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def watch_closures(root, runs):
    """Wrap the backward closure of every node of ``root``'s graph so that
    each run appends ``(closure name, MB live before it, peak MB so far
    after it)`` to ``runs``; no closure outlives its run."""
    stack, seen = [root._node], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
        if node.backward is not None:
            node.backward = watching(node.backward, runs)


def watching(closure, runs):
    code = closure.__code__
    name = (f"{closure.__qualname__} "
            f"({os.path.relpath(code.co_filename)}:{code.co_firstlineno})")

    def run(g):
        live = tracemalloc.get_traced_memory()[0]
        closure(g)
        runs.append((name, live, tracemalloc.get_traced_memory()[1]))
    return run


def peak_closure(runs):
    """``(place from 1, closure name, MB live before it)`` of the last
    closure in ``runs`` to raise the peak."""
    holder, peak = None, -1
    for place, (name, live, peak_after) in enumerate(runs, start=1):
        if peak_after > peak:
            holder, peak = (place, name, live / 2**20), peak_after
    return holder


def tape_report(graphs, config):
    """(MB live when ``backward`` starts, peak MB before it, peak MB during
    it, the top allocating call sites of what is live when it starts, the
    closure runs of ``watch_closures``) for one train step on ``graphs``,
    counting what the step allocated."""
    backward, marks, top, runs = Tensor.backward, [], [], []

    def measuring(root):
        marks.extend(tracemalloc.get_traced_memory())
        top.extend(tracemalloc.take_snapshot().statistics("traceback")[:TOP_SITES])
        watch_closures(root, runs)
        tracemalloc.reset_peak()
        backward(root)
        marks.append(tracemalloc.get_traced_memory()[1])

    Tensor.backward = measuring
    tracemalloc.start(SITE_FRAMES)
    try:
        engine.train(graphs, config)
    finally:
        tracemalloc.stop()
        Tensor.backward = backward
    live, forward_peak, backward_peak = (m / 2**20 for m in marks)
    return live, forward_peak, backward_peak, top, runs


def main(shape="rd", steps=8, seed=0):
    graphs, config = (shapes_shape if shape == "shapes" else rd_shape)(steps, seed)
    marks, backward_spans = [usage()], []
    update, backward = nn.EMA.update, Tensor.backward

    def marking(ema, module):
        update(ema, module)
        marks.append(usage())

    def timing(root):
        start = perf_counter()
        backward(root)
        backward_spans.append((start, perf_counter()))

    nn.EMA.update, Tensor.backward = marking, timing
    try:
        _, _, rows = engine.train(graphs, config)
        resident = resident_mb()
    finally:
        nn.EMA.update, Tensor.backward = update, backward
    print("step  ms  fwd_ms  bwd_ms  minflt  maxrss_mb")
    for k, ((t0, f0, _), (t1, f1, rss), (b0, b1)) in enumerate(
            zip(marks, marks[1:], backward_spans)):
        print(f"{k}  {1e3 * (t1 - t0):.1f}  {1e3 * (b0 - t0):.1f}  "
              f"{1e3 * (b1 - b0):.1f}  {f1 - f0}  {rss:.1f}")
    if resident is not None:
        print(f"resident after train {resident:.1f} MB")
    print(f"last loss {float(rows[-1][2]).hex()}")
    live, forward_peak, backward_peak, top, runs = tape_report(
        graphs[:config.batch], config)
    print(f"tape live after forward {live:.1f} MB, forward peak "
          f"{forward_peak:.1f} MB, backward peak {backward_peak:.1f} MB")
    place, name, live_before = peak_closure(runs)
    print(f"backward peak in closure {place} of {len(runs)}: {name}, "
          f"{live_before:.1f} MB live before it")
    print(f"top {TOP_SITES} allocating call sites live after forward "
          "(MB, blocks, line < calling lines):")
    for stat in top:
        where = " < ".join(f"{os.path.relpath(frame.filename)}:{frame.lineno}"
                           for frame in reversed(stat.traceback))
        print(f"  {stat.size / 2**20:.1f}  {stat.count}  {where}")


if __name__ == "__main__":
    args = sys.argv[1:]
    shape = args.pop(0) if args and args[0] in ("rd", "shapes") else "rd"
    main(shape, *(int(a) for a in args[:2]))
