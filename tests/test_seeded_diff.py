import importlib.util
import inspect
import re
import sys
import threading
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import ncgn
from ncgn import cli, config, nn

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name="seeded_diff"):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root, loss, weight, note="run"):
    (root / "run").mkdir(parents=True)
    (root / "run" / "loss.csv").write_text(f"step,loss\n0,{loss!r}\n1,4.0\n")
    (root / "run" / "a.graph").write_text("1 1 1\n0.5 2.0\n")
    nn.save_checkpoint(root / "run" / "model.ckpt", {"w": np.array([weight, 2.0])},
                       {"seed": 3})
    (root / "run" / "config.resolved").write_text(f"out_dir={root}\n")
    (root / "run" / "notes.txt").write_text(note)


def test_reports_numeric_deviation_relative_to_largest(tmp_path, capsys):
    write_tree(tmp_path / "old", 1.0, 1.0)
    write_tree(tmp_path / "new", 1.0 + 4e-12, 1.0)
    assert load_script().main(["seeded_diff", str(tmp_path / "old"),
                               str(tmp_path / "new")]) == 0
    out = capsys.readouterr().out
    assert "run/loss.csv: max abs 4.000e-12, relative to largest 1.000e-12" in out
    assert "model.ckpt" not in out and "config.resolved" not in out
    assert "3 of 4 files byte-identical" in out


def test_fails_on_one_sided_or_non_numeric_difference(tmp_path, capsys):
    write_tree(tmp_path / "old", 1.0, 1.0)
    write_tree(tmp_path / "new", 1.0, 1.5, note="other")
    (tmp_path / "new" / "run" / "extra.csv").write_text("x\n1\n")
    (tmp_path / "new" / "run" / "a.graph").write_text("1 1 0\n0.5\n")
    assert load_script().main(["seeded_diff", str(tmp_path / "old"),
                               str(tmp_path / "new")]) == 1
    out = capsys.readouterr().out
    assert "run/extra.csv: only in NEW" in out
    assert "run/notes.txt: differs" in out
    assert "run/a.graph: layout differs" in out
    assert "run/model.ckpt: max abs 5.000e-01" in out


def test_checkpoints_compared_by_name_when_an_array_is_dropped(tmp_path, capsys):
    # the deviation covers the shared arrays; the dropped one is named
    for side, extra in (("old", {"b.bias": np.array([1e-10])}), ("new", {})):
        root = tmp_path / side
        root.mkdir()
        weight = 2.0 if side == "old" else 2.0 + 3e-12
        nn.save_checkpoint(root / "model.ckpt",
                           {"a.weight": np.array([weight, -4.0]), **extra,
                            "b.weight": np.array([[1.0]])}, {"seed": 3})
    assert load_script().main(["seeded_diff", str(tmp_path / "old"),
                               str(tmp_path / "new")]) == 1
    out = capsys.readouterr().out
    assert ("model.ckpt: max abs 3.000e-12, relative to largest 7.500e-13 "
            "over the shared arrays") in out
    assert "model.ckpt: layout differs: only in OLD: 'b.bias'" in out
    assert "only in NEW" not in out


def test_records_compared_key_by_key(tmp_path, capsys):
    # the train record is part of the checkpoint, so a record difference
    # shows under the .ckpt path even when every array is equal
    for side, record in (("old", {"epochs": 1, "ema_decay": 0.95, "lr": 0.001}),
                         ("new", {"epochs": 1, "lr": 0.01, "nfes": 2})):
        root = tmp_path / side
        root.mkdir()
        nn.save_checkpoint(root / "ema.ckpt", {"w": np.array([1.0])}, record)
    assert load_script().main(["seeded_diff", str(tmp_path / "old"),
                               str(tmp_path / "new")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "ema.ckpt: max abs 0.000e+00, relative to largest 0.000e+00",
        "ema.ckpt: record differs: only in OLD: ema_decay = 0.95",
        "ema.ckpt: record differs: only in NEW: nfes = 2",
        "ema.ckpt: record differs: value of 'lr': 0.001 in OLD, 0.01 in NEW",
        "0 of 1 files byte-identical"]


def test_renamed_array_is_a_layout_difference(tmp_path, capsys):
    # a renamed array keeps its bytes; it shows by name under the .ckpt path
    for side, name in (("old", "a.bias"), ("new", "a.shift")):
        root = tmp_path / side
        root.mkdir()
        nn.save_checkpoint(root / "model.ckpt",
                           {"a.weight": np.array([1.0, 2.0]), name: np.array([3.0])},
                           {"seed": 3})
    old, new = tmp_path / "old", tmp_path / "new"
    assert load_script().main(["seeded_diff", str(old), str(new)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "model.ckpt: max abs 0.000e+00, relative to largest 0.000e+00 over the "
        "shared arrays",
        "model.ckpt: layout differs: only in OLD: 'a.bias'",
        "model.ckpt: layout differs: only in NEW: 'a.shift'",
        "0 of 1 files byte-identical"]


def test_manifest_compared_token_by_token(tmp_path, capsys):
    # feature bounds that move in the last bit are a numeric deviation,
    # relative to the largest bound (0.07), not to n_train; a changed key or
    # word is a layout difference
    lo = 0.0123
    next_up = float(np.nextafter(lo, 1.0))
    for side, bound, convention in (("old", lo, "damped"),
                                    ("new", next_up, "damped"),
                                    ("other", lo, "printed")):
        root = tmp_path / side / "data"
        root.mkdir(parents=True)
        (root / "manifest").write_text(
            f"kind: reaction-diffusion\nn_train: 4\nconvention: {convention}\n"
            f"feature_min: {bound!r} -0.05\nfeature_max: 0.06 0.07\n")
    old = str(tmp_path / "old")
    assert load_script().main(["seeded_diff", old, str(tmp_path / "new")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["data/manifest: max abs 1.735e-18, relative to largest "
                   "2.478e-17", "0 of 1 files byte-identical"]
    assert load_script().main(["seeded_diff", old, str(tmp_path / "other")]) == 1
    assert "data/manifest: layout differs: tokens" in capsys.readouterr().out


def write_graph(root, count, last):
    # a .graph header "N F D", then N rows of D position and F feature values
    root.mkdir(parents=True)
    rows = "".join(f"{i / 200!r} 0.5\n" for i in range(99))
    (root / "g.graph").write_text(f"{count} 1 1\n{rows}0.495 {last!r}\n")


def test_scale_and_integers_come_from_the_tokens_not_the_counts(tmp_path, capsys):
    # the header's node count (100) is no data: the deviation is relative to
    # the largest float, 0.5, and a changed count is a layout difference
    write_graph(tmp_path / "old", 100, 0.5)
    write_graph(tmp_path / "new", 100, 0.5 + 1e-12)
    write_graph(tmp_path / "recount", 101, 0.5)
    old = str(tmp_path / "old")
    assert load_script().main(["seeded_diff", old, str(tmp_path / "new")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "g.graph: max abs 1.000e-12, relative to largest 2.000e-12",
        "0 of 1 files byte-identical"]
    assert load_script().main(["seeded_diff", old, str(tmp_path / "recount")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "g.graph: layout differs: integers differ at 1 token(s), first 100 in "
        "OLD, 101 in NEW", "0 of 1 files byte-identical"]


def test_digest_check_names_moved_missing_and_extra_files(tmp_path, capsys):
    script = load_script()
    write_tree(tmp_path / "old", 1.0, 1.0)
    record = script.digests(tmp_path / "old")
    header, *rows = record.splitlines()
    assert header == script.environment()
    assert [row.split("  ")[1] for row in rows] == [
        "run/a.graph", "run/loss.csv", "run/model.ckpt", "run/notes.txt"]
    assert script.check(record, tmp_path / "old") == 0
    assert capsys.readouterr().out == "0 of 4 files differ from the record\n"
    # one bit of one value, a dropped file and a new one; config.resolved
    # records the output paths and is no output
    write_tree(tmp_path / "new", float(np.nextafter(1.0, 2.0)), 1.0)
    (tmp_path / "new" / "run" / "notes.txt").unlink()
    (tmp_path / "new" / "run" / "extra.csv").write_text("x\n1\n")
    (tmp_path / "new" / "run" / "config.resolved").write_text("out_dir=elsewhere\n")
    assert script.check(record, tmp_path / "new") == 1
    assert capsys.readouterr().out.splitlines() == [
        "run/extra.csv: extra", "run/loss.csv: differs", "run/notes.txt: missing",
        "3 of 5 files differ from the record"]


def test_digest_check_reports_another_environment_as_such(tmp_path, capsys):
    script = load_script()
    write_tree(tmp_path / "old", 1.0, 1.0)
    record = script.digests(tmp_path / "old")
    ours = script.environment()
    theirs = ours.replace(f"numpy={np.__version__}", "numpy=0.0.1")
    assert script.check(record.replace(ours, theirs), tmp_path / "old") == 0
    assert capsys.readouterr().out.splitlines() == [
        f"environment differs: numpy 0.0.1 in the record, {np.__version__} here",
        "0 of 4 files differ from the record, which was made in another "
        "environment"]
    write_tree(tmp_path / "new", 2.0, 1.0)
    assert script.check(record.replace(ours, theirs), tmp_path / "new") == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "run/loss.csv: differs",
        "1 of 4 files differ from the record, which was made in another "
        "environment"]


@pytest.fixture(scope="module")
def seeded_run(tmp_path_factory):
    """The seeded sequence, run once in this process on the ncgn package
    under test: its output directory and the code objects of every
    function it calls, in any thread (``evaluate_w2`` runs in a pool)."""
    out, called = tmp_path_factory.mktemp("seeded"), set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile(), threading.getprofile()
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        script = load_script("seeded_outputs")
        script.run(script.SEQUENCE, out)
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
    return out, called


def test_seeded_sequence_matches_the_record(seeded_run):
    # a change that moves outputs regenerates the record in the same commit
    diff, (out, _) = load_script(), seeded_run
    env_record, record = diff.parse_record((SCRIPTS / "seeded_outputs.sha256")
                                           .read_text())
    env_here, here = diff.parse_record(diff.digests(out))
    assert sorted(here) == sorted(record)
    moved = diff.moved_entries(env_record, env_here)
    if moved:
        warnings.warn("seeded outputs not compared by digest: the record was "
                      "made in another environment, " + ", ".join(
                          f"{key} {env_record.get(key)} there, "
                          f"{env_here.get(key)} here" for key in moved))
        return
    differ = [path for path in sorted(record) if here[path] != record[path]]
    assert not differ, f"{len(differ)} files differ from the record: {differ}"


# src/ncgn functions the seeded sequence never calls, as "module.qualname",
# each with the reason it stays; any other such function is dead code
UNREACHED = {
    "config.read_config_file": "the --config option",
    "nn.EMA.copy_to": "called only by perfbench",
    "tensor.Tensor._backward": "the closure property perfbench's tracer wraps",
    "tensor.Tensor.gelu": "perfbench's tracer wraps it by name (ROADMAP item 3a)",
    "tensor.Tensor.gelu.<locals>.bwd": "the backward of Tensor.gelu (item 3a)",
    "shapes._torus": "a shape kind the sequence's 4 + 2 shapes do not draw",
    "tensor._released": "raises on a second backward through a freed graph",
    "transport._logsumexp": "the log-domain Sinkhorn fallback's reduction",
    "transport._sinkhorn_log_domain": "the fallback for an underflowing kernel",
    "theory.mutual_information_numeric": "the numeric MI oracle of "
                                         "kappa_closed (ROADMAP item 9)",
    "theory.correlation_integrals": "the oracle's integrals (item 9)",
    "theory._simpson_weights": "the oracle's quadrature (item 9)",
    "theory.default_correlation": "the oracle's default correlation (item 9)",
}


def functions(code, prefix=""):
    """(qualified name, code) of each function defined in ``code``, at any
    depth; class bodies, comprehensions and lambdas are no functions."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:
                if not const.co_name.startswith("<"):
                    yield name, const
                name += ".<locals>"
            yield from functions(const, name + ".")


def test_every_src_function_is_called_by_the_seeded_sequence(seeded_run):
    # a function defined twice under one name (a property's getter and
    # setter) is told apart by its first line
    _, called = seeded_run
    reached = {(code.co_filename, code.co_firstlineno, code.co_name)
               for code in called}
    unreached = set()
    for path in sorted(Path(ncgn.__file__).parent.glob("*.py")):
        source = compile(path.read_text(), str(path), "exec")
        for name, code in functions(source):
            if (str(path), code.co_firstlineno, code.co_name) not in reached:
                unreached.add(f"{path.stem}.{name}")
    dead = sorted(unreached - UNREACHED.keys())
    assert not dead, (f"never called by the seeded sequence: {dead}; delete "
                      "them, or list each in UNREACHED with its reason")
    stale = sorted(UNREACHED.keys() - unreached)
    assert not stale, f"listed in UNREACHED but called or not defined: {stale}"


@pytest.mark.parametrize("bad", [
    ["theory", "out_dir={out}/bad", "seed=-1"],  # the command returns 1
    ["no-such-command", "out_dir={out}/bad"],  # argparse exits 2
])
def test_seeded_run_stops_at_a_failing_command_and_names_it(tmp_path, bad):
    sequence = [bad, ["theory", "out_dir={out}/after", "seed=3"]]
    argv = " ".join(["ncgn"] + [arg.format(out=tmp_path) for arg in bad])
    with pytest.raises(RuntimeError, match=f"^{re.escape(argv)} exited [12]$"):
        load_script("seeded_outputs").run(sequence, tmp_path)
    assert not (tmp_path / "after").exists()


def test_seeded_run_refuses_a_non_empty_out_dir(tmp_path, capsys):
    # a file left by an earlier run would be counted as an output
    out = tmp_path / "out"
    out.mkdir()
    (out / "stale.csv").write_text("x\n1\n")
    src = Path(ncgn.__file__).resolve().parent.parent
    assert load_script("seeded_outputs").main(["seeded_outputs", str(src),
                                               str(out)]) == 2
    assert f"{out} exists and is not an empty directory" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["stale.csv"]


def test_seeded_run_refuses_a_package_from_another_source(tmp_path, capsys,
                                                          monkeypatch):
    # this process already holds ncgn from its own source, not from tmp_path
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert load_script("seeded_outputs").main(["seeded_outputs", str(tmp_path),
                                               str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(Path(ncgn.__file__).resolve()) in err and str(tmp_path) in err
    assert not (tmp_path / "out").exists()


# scripts/artifacts.py: the full-size sequences run for minutes (studies) to
# an hour (transcriptomics), so tier-1 checks the record and the sequences
# without running them


def load_artifacts(monkeypatch):
    # the script imports seeded_outputs by name, as when run from scripts/
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return load_script("artifacts")


def test_artifacts_match_their_record(monkeypatch, capsys):
    # a hand-edited, dropped or unrecorded artifact fails here
    script = load_artifacts(monkeypatch)
    record = (SCRIPTS / "artifacts.sha256").read_text()
    diff = load_script()
    assert diff.check(record, script.ARTIFACTS) == 0, capsys.readouterr().out
    _, digests = diff.parse_record(record)
    assert sorted(digests) == sorted(artifact
                                     for _, copies in script.GROUPS.values()
                                     for artifact in copies.values())


@pytest.mark.parametrize("group", ["studies", "transcriptomics"])
def test_artifact_sequences_name_commands_and_keys(tmp_path, monkeypatch, group):
    # a renamed command or config key fails here, not in a full-size run
    sequence, copies = load_artifacts(monkeypatch).GROUPS[group]
    written = set()
    for template in sequence:
        command, *overrides = (arg.format(out=tmp_path) for arg in template)
        assert command in cli.HANDLERS
        written.add(Path(config.parse_config(overrides=overrides)["out_dir"]))
    assert {(tmp_path / output).parent for output in copies} <= written


def test_artifacts_copies_the_outputs_and_rewrites_the_record(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    script = load_artifacts(monkeypatch)
    artifacts, record = tmp_path / "artifacts", tmp_path / "artifacts.sha256"
    monkeypatch.setattr(script, "ARTIFACTS", artifacts)
    monkeypatch.setattr(script, "RECORD", record)
    theory = ["theory", "out_dir={out}/theory", "seed=3"]
    monkeypatch.setattr(script, "GROUPS", {
        "studies": ([theory], {"theory/prop1.csv": "theory/prop1.csv"}),
        "transcriptomics": ([theory, ["theory", "out_dir={out}/x", "seed=-1"]],
                            {"theory/theory.csv": "theory/theory.csv"})})
    assert script.main(["artifacts", "studies"]) == 0
    assert [p.name for p in artifacts.rglob("*") if p.is_file()] == ["prop1.csv"]
    assert load_script().check(record.read_text(), artifacts) == 0
    # a failing command leaves the artifacts and the record as they were
    before = record.read_text()
    assert script.main(["artifacts", "transcriptomics"]) == 1
    assert "/x seed=-1 exited 1" in capsys.readouterr().err
    assert not (artifacts / "theory" / "theory.csv").exists()
    assert record.read_text() == before
    # the group is the only argument
    for argv in (["artifacts"], ["artifacts", "gw"], ["artifacts", "studies", "x"]):
        assert script.main(argv) == 2
        assert "usage: artifacts studies|transcriptomics" in capsys.readouterr().err
