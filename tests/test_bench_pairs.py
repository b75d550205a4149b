import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# metric -> (better, bound), as BENCHMARK.json's end_to_end gives them
SPEC = {"pipeline_s": ("lower", 0.2), "step_items_per_s": ("higher", 0.2),
        "ops_ok_ratio": ("higher", 0.01)}


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(seed, pipeline_s, items_per_s, ops_ok=1.0, correct=True):
    """A ``perfbench/run.py --trace 0`` output in its line format."""
    metrics = {"pipeline_s": {"value": pipeline_s, "unit": "s"},
               "step_items_per_s": {"value": items_per_s, "unit": "1/s"},
               "ops_ok_ratio": {"value": ops_ok, "unit": "ratio"}}
    return "\n".join([
        "environment " + json.dumps({"commit": "unknown", "seed": seed}),
        'stages {"gw": 3.0}',
        # raw pipeline_s moves against the normalized one
        "raw " + json.dumps({"pipeline_s": 10.0 - pipeline_s,
                             "step_items_per_s": 2 * items_per_s,
                             "ops_ok_ratio": ops_ok}),
        "calibration 12 bursts, median 5.0 ms",
        json.dumps({"correct": correct, "attempted": 3, "failed": 0,
                    "metrics": metrics}),
    ]) + "\n"


# (parent, change) per pair: pipeline_s, step_items_per_s
PAIRS = [((3.0, 10.0), (2.0, 9.0)),
         ((4.0, 10.0), (3.5, 8.0)),
         ((3.5, 12.0), (3.6, 8.0)),
         ((3.2, 11.0), (2.5, 13.0))]


def canned_pairs(script):
    return [(seed, script.parse_run(canned(seed, *p)),
             script.parse_run(canned(seed, *c)))
            for seed, (p, c) in enumerate(PAIRS, start=7)]


def test_parse_run_reads_environment_raw_and_result():
    run = load_bench_pairs().parse_run(canned(7, 3.0, 10.0))
    assert run["environment"] == {"commit": "unknown", "seed": 7}
    assert run["raw"] == {"pipeline_s": 7.0, "step_items_per_s": 20.0,
                          "ops_ok_ratio": 1.0}
    assert run["result"]["metrics"]["pipeline_s"]["value"] == 3.0


def test_summary_gives_medians_iqr_wins_and_flags():
    script = load_bench_pairs()
    summary = script.summarize_workload(canned_pairs(script), SPEC)
    assert summary["seeds"] == [7, 8, 9, 10]
    assert summary["correct"] == {"parent": [True] * 4, "change": [True] * 4}
    assert [e["seed"] for e in summary["environment"]["change"]] == [7, 8, 9, 10]
    assert summary["raw"]["parent"][0]["pipeline_s"] == 7.0

    pipeline = summary["metrics"]["pipeline_s"]
    assert pipeline["parent"] == [3.0, 4.0, 3.5, 3.2]
    assert pipeline["change"] == [2.0, 3.5, 3.6, 2.5]
    assert pipeline["parent_median"] == pytest.approx(3.35)
    assert pipeline["change_median"] == pytest.approx(3.0)
    # inclusive quartiles of 3.0, 3.2, 3.5, 4.0: 3.15 and 3.625
    assert pipeline["parent_iqr"] == pytest.approx(0.475)
    assert pipeline["change_wins"] == 3 and pipeline["pairs"] == 4
    assert not pipeline["flagged"]
    # 3 of 4 won is under 9 in 10
    assert not pipeline["gain_resolved"] and pipeline["within_bound"]
    # raw medians of 10 - value: normalized down, raw up
    assert pipeline["parent_raw_median"] == pytest.approx(6.65)
    assert pipeline["change_raw_median"] == pytest.approx(7.0)

    # higher is better: medians 10.5 -> 8.5 (19% worse), 1 win of 4
    items = summary["metrics"]["step_items_per_s"]
    assert items["change_wins"] == 1 and items["flagged"]
    # 19% worse: flagged, but within the 20% bound
    assert items["within_bound"] and not items["gain_resolved"]
    assert (items["parent_raw_median"], items["change_raw_median"]) == (21.0, 17.0)

    # equal values are no win, and no loss either
    ops = summary["metrics"]["ops_ok_ratio"]
    assert ops["change_wins"] == 0 and not ops["flagged"]

    doc = script.report({"rev": "a"}, {"rev": "b"}, {"gw_study": summary},
                        True, "perfbench/run.py --trace 0 --seconds 25")
    assert doc["flags"] == ["gw_study.step_items_per_s: change median 8.5 "
                            "against 10.5, 1 of 4 pairs won"]
    assert doc["seeded_identical"] is True
    assert set(doc["left_out"]) == {"traced_rows"}
    assert doc["tape"] is None and doc["tier1"] is None


@pytest.mark.parametrize("parent, change, flagged", [
    ([10.0, 10.0], [11.1, 11.1], True),    # 11% worse, no win
    ([10.0, 10.0], [10.9, 10.9], False),   # 9% worse: under the 10% line
    ([10.0, 10.0, 10.0], [9.0, 12.0, 12.0], True),   # 1 win of 3
    ([10.0, 10.0], [9.0, 12.0], False),    # median 10.5, 5% worse
    ([10.0, 10.0, 10.0, 10.0], [9.0, 9.0, 12.0, 12.0], False),  # 2 of 4 won
])
def test_flag_needs_a_worse_median_and_under_half_the_wins(parent, change,
                                                           flagged):
    metric = load_bench_pairs().summarize_metric(parent, change, "lower", 0.2)
    assert metric["flagged"] is flagged


TEN = [20.0, 21.0, 19.0, 22.0, 20.5, 21.5, 19.5, 20.0, 21.0, 20.5]


@pytest.mark.parametrize("change, better, resolved, within", [
    # 10 of 10 won, but the median gap of 0.5 is inside the parent's IQR
    ([v - 0.5 for v in TEN], "lower", False, True),
    # gap 4.0, over the IQR, but only 8 of 10 pairs won
    ([v - 4.0 for v in TEN[:8]] + [v + 1.0 for v in TEN[8:]], "lower",
     False, True),
    # 9 of 10 won and the gap is over the IQR: resolved
    ([v - 4.0 for v in TEN[:9]] + [v + 1.0 for v in TEN[9:]], "lower",
     True, True),
    # higher is better: every value 5 down is a regression of 24% > 20%
    ([v - 5.0 for v in TEN], "higher", False, False),
    # the same values with lower better: a resolved gain
    ([v - 5.0 for v in TEN], "lower", True, True),
    # lower is better: 19% worse is within the 20% bound, 25% is not
    ([v * 1.19 for v in TEN], "lower", False, True),
    ([v * 1.25 for v in TEN], "lower", False, False),
])
def test_gain_resolved_and_within_bound(change, better, resolved, within):
    # TEN: median 20.5, inclusive quartiles 20.0 and 21.0, IQR 1.0
    metric = load_bench_pairs().summarize_metric(TEN, change, better, 0.2)
    assert metric["parent_iqr"] == pytest.approx(1.0)
    assert metric["bound"] == 0.2
    assert metric["gain_resolved"] is resolved
    assert metric["within_bound"] is within


def test_main_alternates_the_order_and_writes_bench_json(tmp_path,
                                                         monkeypatch):
    script = load_bench_pairs()
    spec = {"run_seconds": 5,
            "end_to_end": [{"name": n, "better": b, "bound": bound}
                           for n, (b, bound) in SPEC.items()]}
    commits = {"parent": "1" * 40, "change": "2" * 40}
    calls = []

    def extract(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps(spec))
        return commits[rev]

    def run_bench(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        index = seed - 100
        values = PAIRS[index][0 if tree.name == "parent" else 1]
        return script.parse_run(canned(seed, *values))

    monkeypatch.setattr(script, "extract", extract)
    monkeypatch.setattr(script, "run_bench", run_bench)
    monkeypatch.setattr(script, "seeded_identical",
                        lambda script_tree, src_tree: script_tree.name == "parent")
    assert script.main(["parent", "change", "--pr", "99", "--pairs", "2",
                        "--workloads", "gw_study:4", "rd_features",
                        "--first-seed", "100", "--out", str(tmp_path)]) == 0
    assert calls == [
        ("parent", "gw_study", 100, 5), ("change", "gw_study", 100, 5),
        ("change", "gw_study", 101, 5), ("parent", "gw_study", 101, 5),
        ("parent", "gw_study", 102, 5), ("change", "gw_study", 102, 5),
        ("change", "gw_study", 103, 5), ("parent", "gw_study", 103, 5),
        ("parent", "rd_features", 100, 5), ("change", "rd_features", 100, 5),
        ("change", "rd_features", 101, 5), ("parent", "rd_features", 101, 5)]
    doc = json.loads((tmp_path / "BENCH_99.json").read_text())
    assert doc["parent"] == {"rev": "parent", "commit": "1" * 40}
    assert doc["change"] == {"rev": "change", "commit": "2" * 40}
    assert doc["seeded_identical"] == {"change_record": False,
                                       "parent_record": True}
    assert doc["command"] == "perfbench/run.py --trace 0 --seconds 5"
    # the fake trees have no train_step_memory.py to run
    assert doc["tape"] == {shape: {"parent": None, "change": None,
                                   "same_last_loss": None}
                           for shape in ("rd", "shapes")}
    # nor tests to time
    assert doc["tier1"] == {"parent": None, "change": None}
    assert list(doc["left_out"]) == ["traced_rows"]
    assert list(doc["workloads"]) == ["gw_study", "rd_features"]
    assert doc["workloads"]["rd_features"]["metrics"]["pipeline_s"]["pairs"] == 2
    assert doc["flags"] == [
        "gw_study.step_items_per_s: change median 8.5 against 10.5, 1 of 4 "
        "pairs won",
        "rd_features.step_items_per_s: change median 8.5 against 10, 0 of 2 "
        "pairs won"]


def test_unknown_workload_or_empty_count_rejected():
    script = load_bench_pairs()
    assert script.parse_workloads(["gw_study:10", "rd_features"], 3) == {
        "gw_study": 10, "rd_features": 3}
    with pytest.raises(ValueError, match="unknown workload 'gw'"):
        script.parse_workloads(["gw"], 3)
    with pytest.raises(ValueError, match="at least one pair"):
        script.parse_workloads(["gw_study:0"], 3)


def test_seeded_identical_runs_a_tree_script_on_the_change_src(tmp_path,
                                                               monkeypatch):
    script = load_bench_pairs()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        (tree / "scripts").mkdir(parents=True)
        (tree / "scripts" / "seeded_outputs.py").write_text("")
    calls = []

    class Done:
        def __init__(self, returncode):
            self.returncode = returncode

    def run(cmd, cwd, capture_output):
        calls.append((cmd[1:], cwd))
        # the parent's record no longer matches the change's outputs
        return Done(1 if cwd == parent else 0)

    monkeypatch.setattr(script.subprocess, "run", run)
    assert script.seeded_identical(change, change) is True
    assert script.seeded_identical(parent, change) is False
    assert calls == [
        ([str(change / "scripts" / "seeded_outputs.py"), "--check",
          str(change / "src")], change),
        ([str(parent / "scripts" / "seeded_outputs.py"), "--check",
          str(change / "src")], parent)]
    # a parent from before the seeded record has no script to run
    (parent / "scripts" / "seeded_outputs.py").unlink()
    assert script.seeded_identical(parent, change) is None
    assert len(calls) == 2


def test_out_is_created_and_a_missing_parent_refused_before_any_pair(
        tmp_path, monkeypatch, capsys):
    script = load_bench_pairs()
    calls = []
    monkeypatch.setattr(script, "extract",
                        lambda rev, dest: calls.append(rev) or "0" * 40)
    missing = tmp_path / "no_such_dir" / "out"
    with pytest.raises(SystemExit) as exit_info:
        script.main(["parent", "change", "--pr", "99", "--out", str(missing)])
    assert exit_info.value.code == 2
    assert f"--out {missing}: No such file or directory" in capsys.readouterr().err
    assert calls == [] and not missing.parent.exists()
    # a new directory under an existing one is made before the pairs run
    made = tmp_path / "new"
    monkeypatch.setattr(script, "extract", lambda rev, dest: calls.append(
        made.is_dir()) or (_ for _ in ()).throw(RuntimeError("stop")))
    with pytest.raises(RuntimeError, match="stop"):
        script.main(["parent", "change", "--pr", "99", "--out", str(made)])
    assert calls == [True]


TAPE_OUTPUT = """step  ms  fwd_ms  bwd_ms  minflt  maxrss_mb
0  1417.5  1155.5  258.5  43925  207.1
last loss 0x1.415c676155436p+0
tape live after forward 122.7 MB, forward peak 131.7 MB, backward peak 139.3 MB
top 8 allocating call sites live after forward (MB, blocks, line < calling lines):
  43.3  30  src/ncgn/tensor.py:657 < src/ncgn/tensor.py:770 < src/ncgn/nn.py:154
"""


def test_parse_tape_reads_totals_and_last_loss():
    script = load_bench_pairs()
    assert script.parse_tape(TAPE_OUTPUT) == {
        "live_mb": 122.7, "forward_peak_mb": 131.7, "backward_peak_mb": 139.3,
        "resident_after_train_mb": None, "last_loss": "0x1.415c676155436p+0"}
    # a script that prints the resident set after train
    resident = TAPE_OUTPUT.replace("last loss", "resident after train 64.1 MB\n"
                                   "last loss")
    assert script.parse_tape(resident) == {
        "live_mb": 122.7, "forward_peak_mb": 131.7, "backward_peak_mb": 139.3,
        "resident_after_train_mb": 64.1, "last_loss": "0x1.415c676155436p+0"}
    with pytest.raises(ValueError, match="no tape totals"):
        script.parse_tape("step  ms\n")


def test_run_tape_runs_the_tree_script_with_one_blas_thread(tmp_path,
                                                            monkeypatch):
    script = load_bench_pairs()
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "train_step_memory.py").write_text("")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    calls = []

    class Done:
        stdout, returncode = TAPE_OUTPUT, 0

    def run(cmd, cwd, capture_output, text, env):
        calls.append((cmd[1:], cwd, {k: env[k] for k in (
            "PYTHONPATH", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}))
        return Done()

    monkeypatch.setattr(script.subprocess, "run", run)
    assert script.run_tape(tmp_path, "shapes")["live_mb"] == 122.7
    assert calls == [([str(tmp_path / "scripts" / "train_step_memory.py"),
                       "shapes", "4"], tmp_path,
                      {"PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1",
                       "OMP_NUM_THREADS": "1"})]


def test_tape_totals_run_each_tree_per_shape_and_compare_losses(tmp_path,
                                                                monkeypatch):
    script = load_bench_pairs()
    trees = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    calls, run_script = [], script.run_tape

    def run_tape(tree, shape):
        calls.append((tree.name, shape))
        tape = script.parse_tape(TAPE_OUTPUT)
        if shape == "shapes" and tree.name == "change":
            tape["last_loss"] = "0x1.0p+0"
        return tape

    monkeypatch.setattr(script, "run_tape", run_tape)
    tape = script.tape_totals(trees)
    assert calls == [("parent", "rd"), ("change", "rd"),
                     ("parent", "shapes"), ("change", "shapes")]
    assert tape["rd"]["same_last_loss"] is True
    assert tape["shapes"]["same_last_loss"] is False
    assert tape["rd"]["change"]["backward_peak_mb"] == 139.3
    # a tree without the script runs nothing
    assert run_script(tmp_path / "empty", "rd") is None


TIER1_OUTPUT = """....F...                                                 [100%]
=================================== FAILURES ===================================
E   assert 2 in (1, 3)
============================= slowest 10 durations =============================
9.53s call     tests/test_acceptance.py::test_full_gradient_suite[gat]
0.51s setup    tests/test_cli.py::test_train_writes_a_checkpoint
=========================== short test summary info ============================
FAILED tests/test_dmp.py::test_gcn_hand_example - assert 2 in (1, 3)
1 failed, 506 passed in 62.31s (0:01:02)
"""


def test_tier1_runs_pytest_in_each_tree_and_records_without_gating(
        tmp_path, monkeypatch):
    script = load_bench_pairs()
    tree = tmp_path / "change"
    (tree / "tests").mkdir(parents=True)
    calls = []

    class Done:
        stdout, returncode = TIER1_OUTPUT, 1

    def run(cmd, cwd, capture_output, text, env):
        calls.append((cmd[1:], cwd, env["PYTHONPATH"]))
        return Done()

    monkeypatch.setattr(script.subprocess, "run", run)
    assert script.run_tier1(tree) == {
        "seconds": 62.31, "summary": "1 failed, 506 passed", "returncode": 1,
        "slowest": [
            {"seconds": 9.53, "when": "call",
             "test": "tests/test_acceptance.py::test_full_gradient_suite[gat]"},
            {"seconds": 0.51, "when": "setup",
             "test": "tests/test_cli.py::test_train_writes_a_checkpoint"}]}
    assert calls == [(["-m", "pytest", "-q", "--continue-on-collection-errors",
                       "--durations=10"], tree, "src")]
    # a tree without tests runs nothing
    assert script.run_tier1(tmp_path / "empty") is None
    assert len(calls) == 1
    with pytest.raises(ValueError, match="no summary line"):
        script.parse_tier1("....\n", 0)
