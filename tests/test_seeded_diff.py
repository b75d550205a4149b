import importlib.util
from pathlib import Path

import numpy as np

from ncgn import nn

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "seeded_diff.py"


def load_script():
    spec = importlib.util.spec_from_file_location("seeded_diff", SCRIPT)
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
