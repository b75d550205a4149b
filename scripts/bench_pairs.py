#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write the result
as ``BENCH_<pr>.json``.

Usage: python3 scripts/bench_pairs.py PARENT CHANGE --pr N
           [--pairs 3] [--workloads gw_study:10 rd_features ...]
           [--first-seed 1000] [--out DIR]

PARENT and CHANGE are git revisions of this repository. Each is extracted
with ``git archive`` into a temporary tree, so the working tree and the
index are left alone. Per workload, ``--pairs`` pairs (``NAME:N`` sets one
workload's count) run each tree's own ``perfbench/run.py --trace 0`` for
the ``run_seconds`` of the change tree's BENCHMARK.json, the parent first in
even pairs and the change first in odd ones; pair i of a workload runs both
trees on seed ``--first-seed + i``.

The JSON holds, per workload and end-to-end metric of the change tree's
BENCHMARK.json, both trees' values run by run, their medians and
interquartile ranges, and the number of pairs the change won (strictly
better; a tie is no win). Values are the host-normalized ones the gate
reads; each run's ``raw`` line (the same metrics, not normalized), its
``environment`` line and the ``correct`` field of its result are kept beside
them, and each metric also gives both sides' raw medians
(``parent_raw_median``, ``change_raw_median``), since a normalized value
can move against the raw one. A metric whose change median is more than
10% worse than the parent's and that wins fewer than half its pairs is
listed under ``flags``; flags do not gate, BENCHMARK.json's bounds do.
Each metric also records two booleans: ``gain_resolved``, the change won
at least 9 in 10 of the pairs and its median is better than the parent's
by more than the parent's IQR; and ``within_bound``, the change's median
is no worse than the parent's by more than the metric's ``bound`` in the
change tree's BENCHMARK.json (a fraction of the parent's median).
``seeded_identical`` holds two outcomes of ``scripts/seeded_outputs.py
--check`` on the change tree's ``src``: ``change_record``, the change
tree's script against its own record, and ``parent_record``, the parent
tree's script against the parent's record (null if the parent has no such
script). Only the second shows that outputs did not move, since a change
that moves them also rewrites its own record. ``tape`` holds, per train
shape (``rd``, ``shapes``), one run of each tree's
``scripts/train_step_memory.py SHAPE 4`` with one BLAS thread, as the
benchmark's workers run: its tape totals in MB (live after the forward,
forward peak, backward peak), the resident MB it reports once the timed
``train`` returns (``resident_after_train_mb``, null from a script that does
not print it) and its last-loss hex, null for a tree without the script,
and whether the two last losses are the same bytes. ``tier1`` holds, per
tree, one run of its tier-1 suite, ``python -m pytest -q
--continue-on-collection-errors --durations=10`` in the tree, after the
pairs and the tape runs: the total seconds pytest reports, its summary
(``507 passed``), its exit code and its 10 slowest test phases, null for
a tree without ``tests/``; a failing suite is recorded, not raised, and
nothing gates on it. The traced per-layer rows
are not measured (``left_out`` says why).
``--out`` is created if missing; a missing parent directory is refused
before any pair runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rd_features", "shapes_positions", "gw_study")
FLAG_WORSE = 0.10  # relative median loss above which a metric may be flagged
RESOLVED_WINS = 0.9  # share of the pairs a resolved gain must win
LEFT_OUT = {
    "traced_rows": "the per-layer rows of --trace 1 runs wait for the tracer "
                   "to time every layer (ROADMAP item 3a)",
}
TAPE_SHAPES = ("rd", "shapes")
TAPE_STEPS = 4  # train steps of each train_step_memory.py run
# the last loss depends on the BLAS thread count
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
TAPE_LINE = re.compile(r"tape live after forward ([\d.]+) MB, forward peak "
                       r"([\d.]+) MB, backward peak ([\d.]+) MB")
RESIDENT_LINE = re.compile(r"^resident after train ([\d.]+) MB$", re.MULTILINE)
TIER1_SLOWEST = 10  # --durations of the tier-1 run
TIER1_SUMMARY = re.compile(r"^=* ?(.*?) in ([\d.]+)s\b.*$", re.MULTILINE)
TIER1_DURATION = re.compile(r"^([\d.]+)s (setup|call|teardown) +(\S+)$",
                            re.MULTILINE)


def parse_run(stdout):
    """The ``environment`` and ``raw`` lines and the last-line result of
    one ``perfbench/run.py`` output."""
    out = {"environment": None, "raw": None}
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in out:
            out[key] = json.loads(rest)
    out["result"] = json.loads(lines[-1])
    return out


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize_metric(parent, change, better, bound):
    """Medians, IQRs and the change's wins over paired run values; whether
    the gain is resolved and the median loss within ``bound``, a fraction
    of the parent's median."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_iqr = iqr(parent)
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    return {
        "better": better,
        "bound": bound,
        "parent": parent,
        "change": change,
        "parent_median": p_med,
        "change_median": c_med,
        "parent_iqr": p_iqr,
        "change_iqr": iqr(change),
        "change_wins": wins,
        "pairs": len(parent),
        "flagged": worse > FLAG_WORSE and wins < len(parent) / 2,
        "gain_resolved": (wins >= RESOLVED_WINS * len(parent)
                          and sign * (p_med - c_med) > p_iqr),
        "within_bound": worse <= bound,
    }


def summarize_workload(pairs, spec):
    """``pairs``: (seed, parent run, change run) per pair, runs as
    ``parse_run`` returns them; ``spec``: metric name -> (better, bound)."""
    runs = {side: [run[i] for run in pairs] for i, side in
            ((1, "parent"), (2, "change"))}
    metrics = {}
    for name, (better, bound) in spec.items():
        metrics[name] = summarize_metric(
            *[[r["result"]["metrics"][name]["value"] for r in runs[side]]
              for side in ("parent", "change")], better, bound)
        for side, rs in runs.items():
            metrics[name][f"{side}_raw_median"] = statistics.median(
                r["raw"][name] for r in rs)
    return {
        "seeds": [seed for seed, _, _ in pairs],
        "correct": {side: [r["result"]["correct"] for r in rs]
                    for side, rs in runs.items()},
        "environment": {side: [r["environment"] for r in rs]
                        for side, rs in runs.items()},
        "raw": {side: [r["raw"] for r in rs] for side, rs in runs.items()},
        "metrics": metrics,
    }


def parse_tape(stdout):
    """The tape totals in MB, the resident MB after ``train`` returns (None
    from a script that does not print it) and the last-loss hex of one
    ``scripts/train_step_memory.py`` output."""
    totals = TAPE_LINE.search(stdout)
    resident = RESIDENT_LINE.search(stdout)
    loss = re.search(r"^last loss (\S+)$", stdout, re.MULTILINE)
    if totals is None or loss is None:
        raise ValueError("train_step_memory.py printed no tape totals or "
                         "last loss")
    live, forward_peak, backward_peak = (float(v) for v in totals.groups())
    return {"live_mb": live, "forward_peak_mb": forward_peak,
            "backward_peak_mb": backward_peak,
            "resident_after_train_mb":
                float(resident.group(1)) if resident else None,
            "last_loss": loss.group(1)}


def run_tape(tree, shape):
    """``parse_tape`` of one run of ``tree``'s own train_step_memory.py on
    ``shape``, None if the tree has no such script."""
    script = tree / "scripts" / "train_step_memory.py"
    if not script.exists():
        return None
    cmd = [sys.executable, str(script), shape, str(TAPE_STEPS)]
    env = dict(os.environ, PYTHONPATH="src", **ONE_BLAS_THREAD)
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=env)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} in {tree} exited "
                           f"{out.returncode}: {out.stderr.strip()}")
    return parse_tape(out.stdout)


def tape_totals(trees):
    """Per train shape, both trees' ``run_tape`` and whether their last
    losses are the same bytes (None if a tree has no script)."""
    tape = {}
    for shape in TAPE_SHAPES:
        runs = {side: run_tape(tree, shape) for side, tree in trees.items()}
        same = (None if None in runs.values() else
                runs["parent"]["last_loss"] == runs["change"]["last_loss"])
        tape[shape] = dict(runs, same_last_loss=same)
    return tape


def parse_tier1(stdout, returncode):
    """Total seconds, summary, exit code and slowest phases of one
    ``pytest -q --durations`` output."""
    summary = TIER1_SUMMARY.findall(stdout)
    if not summary:
        raise ValueError("pytest printed no summary line")
    outcome, seconds = summary[-1]
    slowest = [{"seconds": float(secs), "when": when, "test": test}
               for secs, when, test in TIER1_DURATION.findall(stdout)]
    return {"seconds": float(seconds), "summary": outcome,
            "returncode": returncode, "slowest": slowest}


def run_tier1(tree):
    """``parse_tier1`` of one tier-1 run in ``tree``, None if the tree has no
    tests."""
    if not (tree / "tests").is_dir():
        return None
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           f"--durations={TIER1_SLOWEST}"]
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=env)
    return parse_tier1(out.stdout, out.returncode)


def report(parent, change, workloads, seeded_identical, command, tape=None,
           tier1=None):
    """The BENCH document: revisions, per-workload summaries, flags, the
    ``tape_totals`` and the per-tree ``run_tier1`` (None if not run)."""
    flags = [f"{w}.{name}: change median {m['change_median']:.6g} against "
             f"{m['parent_median']:.6g}, {m['change_wins']} of {m['pairs']} "
             "pairs won"
             for w, summary in workloads.items()
             for name, m in summary["metrics"].items() if m["flagged"]]
    return {"parent": parent, "change": change, "command": command,
            "workloads": workloads, "flags": flags,
            "seeded_identical": seeded_identical, "tape": tape,
            "tier1": tier1, "left_out": LEFT_OUT}


def extract(rev, dest):
    """Write the tree of git revision ``rev`` into ``dest``; return its full
    commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, capture_output=True, text=True, check=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return commit.stdout.strip()


def run_bench(tree, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} in {tree} exited "
                           f"{out.returncode}: {out.stderr.strip()}")
    return parse_run(out.stdout)


def seeded_identical(script_tree, src_tree):
    """Whether ``src_tree``'s package reproduces the seeded-output record of
    ``script_tree``, by that tree's own script; None if it has none."""
    script = script_tree / "scripts" / "seeded_outputs.py"
    if not script.exists():
        return None
    out = subprocess.run([sys.executable, str(script), "--check",
                          str(src_tree / "src")], cwd=script_tree,
                         capture_output=True)
    return out.returncode == 0


def benchmark_spec(tree):
    """The run length and each end-to-end metric's better direction and
    bound."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return spec["run_seconds"], {m["name"]: (m["better"], m["bound"])
                                 for m in spec["end_to_end"]}


def parse_workloads(items, default_pairs):
    counts = {}
    for item in items:
        name, _, pairs = item.partition(":")
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
        counts[name] = int(pairs) if pairs else default_pairs
        if counts[name] < 1:
            raise ValueError(f"{item}: a workload needs at least one pair")
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        metavar="NAME[:PAIRS]")
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    try:
        counts = parse_workloads(args.workloads, args.pairs)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        args.out.mkdir(exist_ok=True)
    except OSError as exc:
        parser.error(f"--out {args.out}: {exc.strerror}")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        revs = {side: {"rev": rev, "commit": extract(rev, trees[side])}
                for side, rev in (("parent", args.parent),
                                  ("change", args.change))}
        seconds, spec = benchmark_spec(trees["change"])
        summaries = {}
        for workload, n in counts.items():
            pairs = []
            for i in range(n):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                runs = {side: run_bench(trees[side], workload, seed, seconds)
                        for side in order}
                pairs.append((seed, runs["parent"], runs["change"]))
                print(f"{workload} pair {i + 1}/{n} done", file=sys.stderr)
            summaries[workload] = summarize_workload(pairs, spec)
        identical = {
            "change_record": seeded_identical(trees["change"], trees["change"]),
            "parent_record": seeded_identical(trees["parent"], trees["change"])}
        tape = tape_totals(trees)
        tier1 = {side: run_tier1(tree) for side, tree in trees.items()}
    command = f"perfbench/run.py --trace 0 --seconds {seconds}"
    doc = report(revs["parent"], revs["change"], summaries, identical, command,
                 tape, tier1)
    path = args.out / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for flag in doc["flags"]:
        print(f"flag: {flag}", file=sys.stderr)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
