"""One workload run in a fresh process; ``run.py`` starts it.

Protocol on stdout: the line ``READY`` once imports and input generation are
done (the parent's clock read on it ends ``setup_s``), then ``CAL <s>``, the
median of calibration bursts run right after set-up, then, unless
``--setup-only``, one JSON line with everything the run measured.
Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINNED = ("NCGN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_BURSTS = 40


def _environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {k: os.environ.get(k) for k in PINNED},
    }


def planned_ops(workload, size):
    """Operations a run attempts before its output checks."""
    if workload == "rd_features":
        return (size["n_train"] + size["n_test"] + size["train_steps"]
                + size["n_test"] + size["eval_reps"])
    if workload == "shapes_positions":
        return size["train_steps"] + size["n_sample"]
    return len(size["noise_grid"]) * len(size["cluster_grid"]) * size["n_shapes"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--dump", help="directory for the self-test's arrays")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args(argv)

    import numpy as np

    import checks
    import workloads
    from calibrate import HostClock

    import ncgn
    import ncgn.dataset  # noqa: F401  so the timed stages import nothing

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(ncgn.__file__), src]) != src:
        print(f"ncgn imported from {ncgn.__file__}, not {src}", file=sys.stderr)
        return 2

    size = workloads.sizes(args.workload, args.seconds, tiny=args.tiny)
    workload = workloads.CLASSES[args.workload](args.seed, size)
    workload.setup()
    print("READY", flush=True)
    setup_clock = HostClock()
    for _ in range(SETUP_BURSTS):
        setup_clock.burst()
    print(f"CAL {float(np.median(setup_clock.durations))!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    run = workloads.Run(HostClock(span=tracer.run if tracer else None))
    error = None
    try:
        workload.run(run)
    except Exception:  # reported as failed operations, the run still reports
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        tracer.uninstall()
        from tracing import layer_metrics

        layers = layer_metrics(tracer.spans, tracer.counts)
        if args.spans:
            tracer.write(args.spans)

    try:
        actual = checks.reference_case(args.workload)
        run.checks += checks.compare(args.workload, actual, checks.load_reference())
    except Exception:
        run.check("reference.run", False, traceback.format_exc())

    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
        for name, array in run.dump.items():
            np.save(os.path.join(args.dump, f"{name}.npy"), array)

    failures = [f"{name}: {detail}" for name, ok, detail in run.checks if not ok]
    planned = planned_ops(args.workload, size)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "environment": _environment(),
        "items": run.items,
        **run.summary(),
        "peak_rss_mb": peak_rss_mb,
        "attempted": planned + len(run.checks),
        "failed": len(failures) + (planned if error else 0),
        "failures": failures + ([error.strip().splitlines()[-1]] if error else []),
        "layers": layers,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
