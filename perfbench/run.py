"""ncgn benchmark.

    python3 perfbench/run.py --workload {rd_features,shapes_positions,gw_study}
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout; the program is imported from
``src/``. Each run starts the workload in a fresh worker process with the
thread variables pinned, checks its outputs, and prints as its last stdout
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. A traced run starts an untraced
worker and then a traced one, so the tracing overhead is measured on the
same inputs. NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from calibrate import REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# evaluate_w2 is the program's only threaded path; two workers match the
# two cores, and one BLAS thread each keeps them from oversubscribing.
PINNED_ENV = {"NCGN_THREADS": "2", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPEATS = 3    # the measured worker plus two set-up-only processes
DEADLINE_S = 170.0   # every run must end within 180 s

WORKLOADS = ("rd_features", "shapes_positions", "gw_study")

# Stage metrics under the names the roadmap uses; 0 where a workload has no
# such stage. Reported with the per-layer metrics, from the untraced worker.
STAGE_METRICS = ("simulate_traj_per_s", "train_graphs_per_s", "train_step_ms_p50",
                 "sample_graphs_per_s", "sample_nfe_ms_p50", "sample_nfe_ms_p90",
                 "eval_w2_s", "gw_solves_per_s", "gw_solve_ms_p50")


class WorkerError(RuntimeError):
    pass


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_worker(args, deadline, extra=()):
    """Start a worker; return (host-normalized set-up seconds, raw set-up
    seconds, parsed result or None)."""
    env = dict(os.environ, **PINNED_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    if args.tiny:
        cmd.append("--tiny")
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - start
        cal = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or not cal.startswith("CAL ") or code != 0:
        raise WorkerError(f"worker {' '.join(cmd[2:])} exited with {code}")
    normalized = setup_s * REF_S / float(cal.split()[1])
    if "--setup-only" in extra:
        return normalized, setup_s, None
    return normalized, setup_s, json.loads(rest.strip().splitlines()[-1])


def end_to_end(workload, result, setups, raw=False):
    """End-to-end metrics, host-normalized unless ``raw``."""
    suffix = "_raw" if raw else ""
    stages, items = result["stages" + suffix], result["items"]
    if workload == "gw_study":
        step_items_per_s = items["gw_solves"] / stages["gw"]
    else:
        step_items_per_s = items["train_graphs"] / stages["train"]
    return {
        "setup_s": statistics.median(setups),
        "pipeline_s": result["pipeline_s" + suffix],
        "step_items_per_s": step_items_per_s,
        "step_ms_p50": 1e3 * statistics.median(result["step_s" + suffix]),
        "inner_ms_p50": 1e3 * statistics.median(result["inner_s" + suffix]),
        "peak_rss_mb": result["peak_rss_mb"],
        "ops_ok_ratio": (result["attempted"] - result["failed"]) / result["attempted"],
    }


def stage_metrics(workload, result):
    out = dict.fromkeys(STAGE_METRICS, 0.0)
    stages, items = result["stages"], result["items"]
    if workload == "gw_study":
        out["gw_solves_per_s"] = items["gw_solves"] / stages["gw"]
        out["gw_solve_ms_p50"] = 1e3 * statistics.median(result["step_s"])
        return out
    if workload == "rd_features":
        out["simulate_traj_per_s"] = items["trajectories"] / stages["simulate"]
        out["eval_w2_s"] = statistics.median(result["eval_s"])
    out["train_graphs_per_s"] = items["train_graphs"] / stages["train"]
    out["train_step_ms_p50"] = 1e3 * statistics.median(result["step_s"])
    out["sample_graphs_per_s"] = items["sampled_graphs"] / stages["sample"]
    out["sample_nfe_ms_p50"] = 1e3 * statistics.median(result["inner_s"])
    out["sample_nfe_ms_p90"] = 1e3 * percentile(result["inner_s"], 90)
    return out


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def load_units(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size instead of the benchmark size")
    parser.add_argument("--dump", help="self-test: directory for output arrays")
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("need --seed >= 0 and 1 <= --seconds <= 60")
    if not os.path.isfile(os.path.join(ROOT, "src", "ncgn", "engine.py")):
        print(f"no ncgn sources under {ROOT}/src: run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S

    try:
        dump = ["--dump", os.path.join(args.dump, "untraced")] if args.dump else []
        setup_s, setup_raw, base = run_worker(args, deadline, dump)
        runs = [base]
        if args.trace:
            spans_dir = os.path.join(HERE, "out")
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}-spans.csv")
            dump = ["--dump", os.path.join(args.dump, "traced")] if args.dump else []
            _, _, traced = run_worker(args, deadline,
                                      ["--trace", "1", "--spans", spans, *dump])
            runs.append(traced)
        else:
            setups = [(setup_s, setup_raw)] + [
                run_worker(args, deadline, ["--setup-only"])[:2]
                for _ in range(SETUP_REPEATS - 1)]
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    try:
        stage = stage_metrics(args.workload, base)
        if args.trace:
            base_e2e = end_to_end(args.workload, base, [0.0])
            traced_e2e = end_to_end(args.workload, traced, [0.0])
            values = dict(stage, **traced["layers"])
            for name in ("pipeline_s", "step_ms_p50", "inner_ms_p50"):
                values[f"trace.{name}_ratio"] = traced_e2e[name] / base_e2e[name]
            units = load_units("per_layer")
        else:
            values = end_to_end(args.workload, base, [n for n, _ in setups])
            raw = end_to_end(args.workload, base, [r for _, r in setups], raw=True)
            units = load_units("end_to_end")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    except (KeyError, ZeroDivisionError, statistics.StatisticsError) as exc:
        print(f"incomplete measurements ({exc!r}); failures: "
              f"{[f for r in runs for f in r['failures']]}", file=sys.stderr)
        return 1

    env = dict(base["environment"], nproc=len(os.sched_getaffinity(0)),
               commit=git_commit(), workload=args.workload, seed=args.seed,
               seconds=args.seconds, size=base["size"])
    print("environment " + json.dumps(env))
    print("stages " + json.dumps({k: v for k, v in stage.items() if v}))
    if not args.trace:
        print("raw " + json.dumps(raw))
    print(f"calibration {base['bursts']} bursts, median {base['burst_ms_median']} ms")
    for r in runs:
        for failure in r["failures"]:
            print(f"FAILED {failure}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
