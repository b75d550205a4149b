"""Self-test of the benchmark itself.

Runs every workload at the tiny self-test size with ``--trace 1``, which
starts an untraced and a traced worker on the same inputs, and asserts that

- both workers' outputs (losses, samples, W2 replicates, GW rows) are
  byte-identical, so recording spans never changes an artifact;
- the traced output reports every per-layer metric named in BENCHMARK.json;
- the output checks pass.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_ARRAYS = {
    "rd_features": {"losses.npy", "samples.npy", "w2_0.npy"},
    "shapes_positions": {"losses.npy", "samples.npy"},
    "gw_study": {"gw_rows.npy"},
}


def check_workload(workload, tmp, per_layer):
    problems = []
    dump = os.path.join(tmp, workload)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny", "--dump", dump],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        return [f"run.py exited with {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        problems.append(f"output checks failed: {proc.stdout}")
    missing = per_layer - set(result["metrics"])
    extra = set(result["metrics"]) - per_layer
    if missing or extra:
        problems.append(f"per-layer metrics missing {sorted(missing)}, extra {sorted(extra)}")
    untraced, traced = os.path.join(dump, "untraced"), os.path.join(dump, "traced")
    for directory in (untraced, traced):
        found = set(os.listdir(directory))
        if found != EXPECTED_ARRAYS[workload]:
            problems.append(f"{directory} holds {sorted(found)}")
    for name in sorted(EXPECTED_ARRAYS[workload]):
        a, b = os.path.join(untraced, name), os.path.join(traced, name)
        if os.path.exists(a) and os.path.exists(b) and not filecmp.cmp(a, b, shallow=False):
            problems.append(f"{name} differs between the untraced and traced runs")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = {m["name"] for m in json.load(fh)["per_layer"]}
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    failed = False
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        for workload in EXPECTED_ARRAYS:
            problems = check_workload(workload, tmp, per_layer)
            print(f"{'FAIL' if problems else 'ok  '} {workload}")
            for problem in problems:
                print(f"     {problem}")
            failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
