import ast
import os
import string
import struct
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgn import cli, engine, graphs, interpolant, nn
from ncgn.cli import main
from ncgn.config import (
    DOMAINS,
    TRAIN_KEYS,
    ConfigError,
    DEFAULTS,
    check,
    parse_config,
    read_config_file,
    write_resolved,
)
from ncgn.dataset import load_dataset
from ncgn.graphs import (
    GeometricGraph,
    build_long_short_edges,
    load_graph,
    save_graphs,
)


def run(tmp_path, command, *overrides, config=None):
    argv = [command]
    if config is not None:
        argv += ["--config", str(config)]
    argv += [f"out_dir={tmp_path}"] + list(overrides)
    return main(argv)


# ---------------------------------------------------------------- config

def test_default_training_hyperparameters():
    assert DEFAULTS["epochs"] == 300
    assert DEFAULTS["batch"] == 128
    assert nn.EMA_DECAY == 0.95
    assert DEFAULTS["lr"] == 1e-3
    assert DEFAULTS["nfes"] == 200
    assert interpolant.SIGMA_MIN == 1e-3
    assert DEFAULTS["warmup_epochs"] == 10


def test_every_config_key_is_read():
    # a train key reaches the code as a TrainConfig field, read off a
    # ``config``/``cfg`` or in a TrainConfig method other than its
    # validation; every other key as config["<key>"] in cli.py
    reads = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name == "TrainConfig":
                methods = [n for n in node.body
                           if getattr(n, "name", None) != "__post_init__"]
                reads |= {a.attr for m in methods for a in ast.walk(m)
                          if isinstance(a, ast.Attribute)
                          and getattr(a.value, "id", None) == "self"}
            if (isinstance(node, ast.Attribute)
                    and getattr(node.value, "id", None) in ("config", "cfg")):
                reads.add(node.attr)
    train_fields = {f.name for f in fields(engine.TrainConfig)}
    assert set(TRAIN_KEYS) == train_fields
    assert train_fields - reads == set()
    subscripts = {node.slice.value
                  for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
                  if isinstance(node, ast.Subscript)
                  and getattr(node.value, "id", None) == "config"
                  and isinstance(node.slice, ast.Constant)}
    assert set(DEFAULTS) - set(TRAIN_KEYS.values()) - subscripts == set()
    # every key has a domain in the one table, or is named free text here
    free_text = {"out_dir", "dataset", "checkpoint"}
    assert set(DOMAINS) == set(DEFAULTS) - free_text
    for key, value in DEFAULTS.items():
        assert check(key, value) == value


def test_precedence_override_beats_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 5\nlr = 0.01  # comment\n")
    config = parse_config(str(cfg), ["epochs=7"])
    assert config["epochs"] == 7
    assert config["lr"] == 0.01
    assert config["batch"] == DEFAULTS["batch"]


def test_unknown_and_duplicate_keys_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epoch = 5\n")
    with pytest.raises(ConfigError, match="epoch"):
        read_config_file(str(cfg))
    cfg.write_text("epochs = 5\nepochs = 6\n")
    with pytest.raises(ConfigError, match="duplicate"):
        read_config_file(str(cfg))
    with pytest.raises(ConfigError, match="key=value"):
        parse_config(None, ["epochs"])
    with pytest.raises(ConfigError, match="integer"):
        parse_config(None, ["epochs=many"])


def test_resolved_round_trip_idempotent(tmp_path):
    config = parse_config(None, ["schedule.kind=linear", "lr=0.005",
                                 f"out_dir={tmp_path}"])
    path = write_resolved(config, str(tmp_path / "config.resolved"))
    again = parse_config(path)
    assert again == config
    path2 = write_resolved(again, str(tmp_path / "second" / "config.resolved"))
    assert open(path).read() == open(path2).read()


def test_dotted_key_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("schedule.kind = linear\nattention.bins = 4\n")
    config = parse_config(str(cfg))
    assert config["schedule.kind"] == "linear"
    assert config["attention.bins"] == 4


# ----------------------------------------------------------- key domains

def outside(domain):
    """Raw strings whose values lie outside ``domain``."""
    if isinstance(domain, tuple):
        return st.text(string.ascii_lowercase + "_", max_size=16).filter(
            lambda raw: raw not in domain)
    if domain is float:
        return st.sampled_from(["nan", "inf"]) | st.floats(max_value=0.0).map(repr)
    return st.integers(max_value=domain - 1).map(str)


def inside_edges(domain):
    """The values of ``domain`` at its edge: every choice, the smallest and
    largest positive finite float, or the integer minimum."""
    if isinstance(domain, tuple):
        return domain
    if domain is float:
        return 5e-324, sys.float_info.max
    return (domain,)


def wording(domain):
    """How a rejection names ``domain``."""
    if isinstance(domain, tuple):
        return "one of " + ", ".join(map(repr, domain))
    if domain is float:
        return "a positive finite number"
    return f"an integer of at least {domain}"


def assert_rejected(out, capsys, command, key, raw):
    """``command`` with ``key=raw`` exits 1 naming the key, its domain and
    the value, before ``out`` is made."""
    assert main([command, f"out_dir={out}", f"{key}={raw}"]) == 1
    assert capsys.readouterr().err == (
        f"ncgn {command}: key {key!r}: expected {wording(DOMAINS[key])}, "
        f"got {type(DEFAULTS[key])(raw)!r}\n")
    assert not out.exists()


# outside values that per-key CLI tests checked, each run before the draws
OUTSIDE = {"seed": ["-1"], "n_samples": ["-1"], "mask_task": ["bogus"],
           "lr": ["nan", "inf", "-1"], "epochs": ["0"], "method": ["bogus"],
           "nfes": ["0"],
           **dict.fromkeys(("gw.iters", "n_seeds", "n_shapes"), ["0", "-2"]),
           **dict.fromkeys(("attention.bins", "attention.epochs"),
                           ["0", "-3"])}


@pytest.mark.parametrize("key", sorted(DOMAINS))
def test_every_command_rejects_a_value_outside_the_key_domain(tmp_path, capsys,
                                                              key):
    # every given key is checked for every command, whether or not the
    # command reads it, while the config is parsed: nothing is written,
    # out_dir included
    domain = DOMAINS[key]
    for edge in inside_edges(domain):
        assert check(key, edge) == edge
        assert parse_config(overrides=[f"{key}={edge}"])[key] == edge

    def rejected_by_every_command(raw):
        for command in sorted(cli.HANDLERS):
            assert_rejected(tmp_path / "out", capsys, command, key, raw)

    for raw in OUTSIDE.get(key, ()):
        rejected_by_every_command(raw)
    settings(max_examples=25, deadline=None)(
        given(outside(domain))(rejected_by_every_command))()


@pytest.mark.parametrize("command, key, raw", [
    ("theory", "hdim", "0"),  # a key theory does not read
    # values the dataset builders also reject, which they see only after
    # config.resolved would be written
    ("make-shapes", "n_points", "0"),
    ("make-shapes", "n_points", "-2"),
    ("make-shapes", "n_points", "3"),  # one below shapes.MIN_POINTS
    ("simulate-data", "convention", "bogus"),
    ("simulate-data", "n_train", "-3"),
])
def test_a_value_outside_its_domain_leaves_no_config_resolved(tmp_path, capsys,
                                                              command, key, raw):
    assert run(tmp_path, command, f"{key}={raw}") == 1
    assert f"ncgn {command}: key {key!r}: expected " in capsys.readouterr().err
    assert not (tmp_path / "config.resolved").exists()


# ------------------------------------------------------------------- CLI

def test_theory_command_outputs(tmp_path, capsys):
    assert run(tmp_path, "theory") == 0
    out = capsys.readouterr().out
    assert "ncgn theory:" in out
    lines = (tmp_path / "theory.csv").read_text().strip().split("\n")
    assert lines[0] == "snr,r_star,mi"
    assert len(lines) == 13  # 12 SNRs
    r_stars = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(0 < r < 1 for r in r_stars)
    assert all(b <= a + 1e-10 for a, b in zip(r_stars, r_stars[1:]))
    prop = (tmp_path / "prop1.csv").read_text().strip().split("\n")
    assert prop[0] == "t,rho,as_printed,covariance_consistent,mc,printed_closer"
    assert len(prop) == 26  # 5x5 grid
    assert (tmp_path / "config.resolved").exists()


def test_theory_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(a, "theory", "seed=5") == 0
    assert run(b, "theory", "seed=5") == 0
    for name in ("theory.csv", "prop1.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_eval_missing_dataset_exits_one(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert run(tmp_path, "eval", f"dataset={missing}") == 1
    err = capsys.readouterr().err
    assert str(missing) in err


def test_eval_requires_dataset_key(tmp_path, capsys):
    assert run(tmp_path, "eval") == 1
    assert "dataset" in capsys.readouterr().err


def test_unknown_override_exits_one(tmp_path, capsys):
    assert run(tmp_path, "theory", "snr=3") == 1
    assert "snr" in capsys.readouterr().err


def test_simulate_sample_eval_pipeline(tmp_path, capsys):
    data = tmp_path / "data"
    # tiny dataset; n_train/n_test are graph counts
    assert run(data, "simulate-data", "n_train=3", "n_test=2") == 0
    assert (data / "manifest").exists()

    work = tmp_path / "work"
    assert run(work, "train", f"dataset={data}", "epochs=2", "batch=2",
               "warmup_epochs=1", "hdim=8", "layers=1") == 0
    assert (work / "ema.ckpt").exists() and (work / "model.ckpt").exists()
    loss_lines = (work / "loss.csv").read_text().strip().split("\n")
    assert loss_lines[0] == "epoch,step,loss,lr"

    assert run(work, "sample", f"dataset={data}", "epochs=2", "batch=2",
               "warmup_epochs=1", "hdim=8", "layers=1", "nfes=4",
               "n_samples=2") == 0
    samples = sorted(os.listdir(work / "samples"))
    assert samples == ["00000.graph", "00001.graph"]

    assert run(work, "eval", f"dataset={data}") == 0
    metrics = (work / "metrics.csv").read_text().strip().split("\n")
    assert metrics[0] == "task,method,mp_kind,w2_mean,w2_std,seed"
    assert len(metrics) == 2
    assert "(pool smaller than subsample)" in capsys.readouterr().out


def test_training_writes_loss_csv(tmp_path, capsys):
    # one loss.csv row per optimizer step: two epochs of one batch
    data, work = tmp_path / "data", tmp_path / "work"
    assert run(data, "simulate-data", "n_train=2", "n_test=1") == 0
    assert run(work, "train", f"dataset={data}", "epochs=2", "batch=2",
               "warmup_epochs=1", "hdim=8", "layers=1") == 0
    assert "over 2 steps" in capsys.readouterr().out
    lines = (work / "loss.csv").read_text().strip().split("\n")
    assert lines[0] == "epoch,step,loss,lr"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [("0", "0"), ("1", "1")]
    # lr during warmup epoch 0 is lr/warmup
    assert float(rows[0][3]) == pytest.approx(DEFAULTS["lr"] / 1)


def test_train_on_zero_dimensional_positions_exits_one(tmp_path, capsys):
    data, work = tmp_path / "data", tmp_path / "work"
    assert run(data, "simulate-data", "n_train=2", "n_test=1") == 0
    flat = data / "train" / "00000.graph"
    flat.write_text("3 0 2\n1.0 2.0\n3.0 4.0\n5.0 6.0\n")
    capsys.readouterr()
    assert run(work, "train", f"dataset={data}", *TINY_TRAIN) == 1
    err = capsys.readouterr().err
    assert f"{flat} line 1: header '3 0 2' declares 0-dimensional positions" in err
    assert "Traceback" not in err
    assert not (work / "model.ckpt").exists()


def test_sample_random_pred_needs_no_checkpoint(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(data, "simulate-data", "n_train=2", "n_test=2") == 0
    work = tmp_path / "work"
    assert run(work, "sample", f"dataset={data}", "method=random_pred",
               "n_samples=3") == 0
    assert len(os.listdir(work / "samples")) == 3
    assert run(work, "sample", f"dataset={data}", "method=random_pred",
               "n_samples=-3") == 1
    assert "n_samples" in capsys.readouterr().err


def test_random_pred_clamps_masked_channels(tmp_path):
    # gene_knockout clamps gene 1 to -0.5 on every node; the random baseline
    # of a conditional task is conditioned the same way
    data, work = tmp_path / "data", tmp_path / "work"
    assert run(data, "simulate-data", "n_train=2", "n_test=2") == 0
    assert run(work, "sample", f"dataset={data}", "method=random_pred",
               "mask_task=gene_knockout") == 0
    names = sorted(os.listdir(work / "samples"))
    assert len(names) == 2
    for name in names:
        g = load_graph(str(work / "samples" / name))
        assert np.all(g.features[:, 1] == -0.5)
        assert np.all(g.features[:, [0, 2]] != -0.5)


def test_unknown_schedule_kind_exits_one(tmp_path, capsys):
    # the baselines never evaluate the schedule, so only the config check
    # keeps a bad kind out of their checkpoints
    data, work = tmp_path / "data", tmp_path / "work"
    assert run(data, "simulate-data", "n_train=2", "n_test=1") == 0
    for method in ("dmp", "knn_fixed"):
        assert run(work, "train", f"dataset={data}", f"method={method}",
                   "schedule.kind=quadratic", "epochs=1", "hdim=8",
                   "layers=1") == 1
        assert ("key 'schedule.kind': expected one of 'linear', 'exponential', "
                "'logarithm', 'relu', got 'quadratic'") in capsys.readouterr().err
    assert not work.exists()


@pytest.mark.parametrize("command, key, make", [
    ("sample", "checkpoint", Path.mkdir),  # a directory as the checkpoint
    ("train", "out_dir", Path.touch),  # a file as the output directory
])
def test_os_error_exits_one_naming_the_path(tmp_path, capsys, command, key,
                                            make):
    data = tmp_path / "data"
    assert run(data, "simulate-data", "n_train=2", "n_test=1") == 0
    capsys.readouterr()
    target = tmp_path / "target"
    make(target)
    paths = {"out_dir": tmp_path / "work", key: target}
    assert main([command, f"dataset={data}", "hdim=8", "layers=1",
                 *(f"{k}={v}" for k, v in paths.items())]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ncgn {command}: ") and str(target) in err


TINY_TRAIN = ("epochs=1", "batch=2", "warmup_epochs=0", "hdim=8", "layers=1",
              "nfes=2")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The inputs precondition rows name under {root}: a features dataset
    data, shapes datasets shapes and empty (no train graph), and a
    positions model trained on shapes."""
    root = tmp_path_factory.mktemp("inputs")
    assert run(root / "data", "simulate-data", "n_train=2", "n_test=1") == 0
    for name, n_train in (("shapes", 2), ("empty", 0)):
        assert run(root / name, "make-shapes", f"n_train={n_train}",
                   "n_test=1", "n_points=16") == 0
    assert run(root / "positions", "train", f"dataset={root}/shapes",
               "task=positions", *TINY_TRAIN) == 0
    return root


@pytest.mark.parametrize("command, keys, message", [
    ("train", [], "this command needs dataset=<path>"),
    ("train", ["dataset={root}/nope"],
     "dataset directory not found: {root}/nope"),
    ("train", ["dataset={root}/empty"], "{root}/empty: the train split is empty"),
    ("train", ["dataset={root}/data", "method=random_pred"],
     "method 'random_pred' is model-free"),
    ("sample", ["dataset={root}/data"], "checkpoint not found: {out}/ema.ckpt"),
    # task masks describe the features task; on positions they would clamp
    # rows onto the template's features
    ("sample", ["dataset={root}/shapes", "checkpoint={root}/positions/ema.ckpt",
                "mask_task=temporal_trajectory"],
     "mask_task='temporal_trajectory' conditions features; it cannot be used "
     "with task=positions"),
    ("sample", ["dataset={root}/data", "method=random_pred",
                "warmup_epochs=5", "epochs=2"],
     "need 0 <= warmup_epochs <= epochs, got warmup_epochs=5 and epochs=2"),
    ("eval", ["dataset={root}/data"], "no .graph samples found in {out}/samples"),
    ("attention-study", ["dataset={root}/nope"],
     "dataset directory not found: {root}/nope"),
    ("gw-study", ["dataset={root}/empty"],
     "{root}/empty: the train split is empty"),
], ids=["train-no-dataset", "train-missing-dataset", "train-empty-train",
        "train-random_pred", "sample-no-checkpoint", "sample-mask-positions",
        "sample-warmup", "eval-no-samples", "attention-missing-dataset",
        "gw-empty-train"])
def test_a_failed_precondition_exits_one_before_out_dir_is_made(
        inputs, tmp_path, capsys, command, keys, message):
    out = tmp_path / "out"

    def fill(text):
        return text.format(root=inputs, out=out)

    capsys.readouterr()
    assert main([command, f"out_dir={out}", *map(fill, keys)]) == 1
    assert capsys.readouterr().err.startswith(f"ncgn {command}: {fill(message)}")
    assert not out.exists()


def test_unknown_mask_task_exits_one_naming_the_choices(tmp_path, capsys):
    assert DOMAINS["mask_task"] == ("",) + engine.MASK_TASKS
    assert_rejected(tmp_path / "out", capsys, "sample", "mask_task", "bogus")


def test_masked_ddpm_sampling_exits_one(tmp_path, capsys):
    # cfm is the one noising process and no key names it: interpolant.kind
    # is unknown, before training and before sampling
    data, work = tmp_path / "data", tmp_path / "work"
    assert run(data, "simulate-data", "n_train=2", "n_test=1") == 0
    for command, *keys in (("train", *TINY_TRAIN),
                           ("sample", "mask_task=temporal_trajectory"),
                           ("sample",)):
        assert run(work, command, f"dataset={data}", "interpolant.kind=ddpm",
                   *keys) == 1
        err = capsys.readouterr().err
        assert (f"ncgn {command}: unknown config key 'interpolant.kind' "
                f"(command line)") in err
    assert not work.exists()


def test_interpolant_kind_cfm_is_an_unknown_key(tmp_path, capsys):
    assert "interpolant.kind" not in DEFAULTS
    assert run(tmp_path, "train", "interpolant.kind=cfm") == 1
    assert ("ncgn train: unknown config key 'interpolant.kind' (command line)"
            in capsys.readouterr().err)
    assert not (tmp_path / "config.resolved").exists()


@pytest.mark.parametrize("n_samples", ["n_samples=3", "n_samples=0"])
def test_sample_empty_test_split_exits_one(tmp_path, capsys, n_samples):
    data, work = tmp_path / "data", tmp_path / "work"
    assert run(data, "simulate-data", "n_train=2", "n_test=0") == 0
    assert run(work, "train", f"dataset={data}", *TINY_TRAIN) == 0
    capsys.readouterr()
    assert run(work, "sample", f"dataset={data}", n_samples) == 1
    err = capsys.readouterr().err
    assert str(data) in err and "test split is empty" in err
    assert not (work / "samples").exists()


def test_eval_empty_test_split_exits_one(tmp_path, capsys):
    # an empty reference pool has nothing to compare the samples with
    data, work = tmp_path / "data", tmp_path / "work"
    assert run(data, "simulate-data", "n_train=3", "n_test=0") == 0
    save_graphs(str(work / "samples"), load_dataset(str(data)).train[:1])
    capsys.readouterr()
    assert run(work, "eval", f"dataset={data}") == 1
    err = capsys.readouterr().err
    assert str(data) in err and "test split is empty" in err
    assert not (work / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["simulate-data", "make-shapes"])
@pytest.mark.parametrize("counts", [("0", "0"), ("-1", "2")])
def test_bad_dataset_counts_exit_one(tmp_path, capsys, command, counts):
    # an empty dataset has nothing to normalize, and a negative count would
    # silently shorten a split while the manifest records it as given; a
    # negative count lies outside n_train's domain, and no graph at all breaks
    # the cross-key rule that config names both keys of
    n_train, n_test = counts
    assert run(tmp_path, command, f"n_train={n_train}", f"n_test={n_test}") == 1
    err = capsys.readouterr().err
    if n_train == "-1":
        assert "key 'n_train': expected an integer of at least 0, got -1" in err
    else:
        assert f"n_train={n_train}, n_test={n_test}" in err
    assert not (tmp_path / "manifest").exists()
    assert not (tmp_path / "config.resolved").exists()


@pytest.mark.parametrize("command", sorted(cli.HANDLERS))
def test_negative_seed_exits_one_naming_the_key(tmp_path, capsys, command):
    # numpy rejects a negative seed without naming the key
    assert_rejected(tmp_path / "out", capsys, command, "seed", "-1")


def test_negative_n_samples_exits_one_naming_the_key(tmp_path, capsys):
    # n_samples=0 samples each test graph once; below 0 means nothing
    assert_rejected(tmp_path / "out", capsys, "sample", "n_samples", "-1")


METHOD_BOGUS = ("key 'method': expected one of 'dmp', 'knn_fixed', "
                "'fully_connected', 'long_short', 'random_pred', got 'bogus'")


@pytest.mark.parametrize("command, keys, message", [
    ("train", ["epochs=0"], "key 'epochs': expected an integer of at least 1, "
                            "got 0"),
    ("train", ["method=bogus"], METHOD_BOGUS),
    # the default warmup_epochs is 10
    ("train", ["epochs=5"], "need 0 <= warmup_epochs <= epochs, got "
                            "warmup_epochs=10 and epochs=5"),
    ("sample", ["method=random_pred", "nfes=0"], "key 'nfes': expected an "
                                                 "integer of at least 1, got 0"),
])
def test_bad_train_key_exits_one_before_writing(tmp_path, capsys, command,
                                                keys, message):
    assert run(tmp_path, command, *keys) == 1
    assert f"ncgn {command}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "config.resolved").exists()


@pytest.mark.parametrize("keys, message", [
    (["method=bogus", "mp_kind=nope"], METHOD_BOGUS),
    (["epochs=0"], "key 'epochs': expected an integer of at least 1, got 0"),
])
def test_eval_without_checkpoint_checks_the_train_keys(tmp_path, capsys, keys,
                                                       message):
    # the random_pred pipeline evaluates with no checkpoint, and metrics.csv
    # records its method and mp_kind, so a bad key exits before any write
    data, work = tmp_path / "data", tmp_path / "work"
    assert run(data, "simulate-data", "n_train=2", "n_test=2") == 0
    assert run(work, "sample", f"dataset={data}", "method=random_pred") == 0
    resolved = (work / "config.resolved").read_text()
    capsys.readouterr()
    assert run(work, "eval", f"dataset={data}", *keys) == 1
    assert f"ncgn eval: {message}" in capsys.readouterr().err
    assert (work / "config.resolved").read_text() == resolved
    assert not (work / "metrics.csv").exists()


def test_make_shapes_and_gw_study(tmp_path):
    data = tmp_path / "shapes"
    assert run(data, "make-shapes", "n_train=4", "n_test=2",
               "n_points=24") == 0
    work = tmp_path / "work"
    assert run(work, "gw-study", f"dataset={data}", "n_shapes=2", "n_seeds=1",
               "gw.iters=10") == 0
    gw_lines = (work / "gw.csv").read_text().strip().split("\n")
    assert gw_lines[0] == "t,clusters,gw_mean"
    assert len(gw_lines) == 26  # 5 noise levels x 5 cluster counts
    argmin = (work / "gw_argmin.csv").read_text().strip().split("\n")
    assert argmin[0] == "t,argmin_clusters"
    assert len(argmin) == 6


def test_attention_study_command(tmp_path):
    data = tmp_path / "shapes"
    assert run(data, "make-shapes", "n_train=4", "n_test=2",
               "n_points=16") == 0
    work = tmp_path / "work"
    assert run(work, "attention-study", f"dataset={data}",
               "attention.epochs=1", "attention.bins=4") == 0
    lines = (work / "attention.csv").read_text().strip().split("\n")
    assert lines[0] == "t_bucket,bin_lo,bin_hi,weight"
    assert len(lines) == 1 + 9 * 4  # nine buckets, four bins
    for t in ("0.1", "0.9"):
        weights = [float(l.split(",")[3]) for l in lines[1:]
                   if l.split(",")[0] == t]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n_train, n_test, split", [
    (0, 2, "train"), (4, 0, "test"),
])
def test_attention_study_with_an_empty_split_exits_one(tmp_path, capsys,
                                                       monkeypatch, n_train,
                                                       n_test, split):
    # both splits are checked before training: the model trains on one and
    # is studied on the other
    data = tmp_path / "shapes"
    assert run(data, "make-shapes", f"n_train={n_train}", f"n_test={n_test}",
               "n_points=16") == 0

    def no_training(*args, **kwargs):
        raise AssertionError("attention-study trained before checking splits")

    monkeypatch.setattr(cli, "train", no_training)
    work = tmp_path / "work"
    assert run(work, "attention-study", f"dataset={data}",
               "attention.epochs=1") == 1
    err = capsys.readouterr().err
    assert err.startswith("ncgn attention-study: ")
    assert str(data) in err and f"the {split} split is empty" in err
    assert not (work / "attention.csv").exists()


# ------------------------------------------------- checkpoint config record

MODEL_KEYS = ("method=knn_fixed", "knn_k=4", "mp_kind=gat",
              "hdim=8", "layers=1", "epochs=1", "batch=2", "warmup_epochs=0")


@pytest.fixture(scope="module")
def gat_run(tmp_path_factory):
    """A dataset and a knn_fixed (k = 4) GAT run trained on it."""
    root = tmp_path_factory.mktemp("gat_run")
    data, work = root / "data", root / "work"
    assert run(data, "simulate-data", "n_train=3", "n_test=2") == 0
    assert run(work, "train", f"dataset={data}", *MODEL_KEYS, "seed=3") == 0
    return data, work


def test_train_writes_one_file_per_checkpoint(gat_run):
    data, work = gat_run
    assert sorted(os.listdir(work)) == ["config.resolved", "ema.ckpt",
                                        "loss.csv", "model.ckpt"]
    resolved = read_config_file(str(work / "config.resolved"))
    for name in ("ema.ckpt", "model.ckpt"):
        _, record = nn.load_checkpoint(work / name)
        assert record == {key: str(resolved[key]) for key in TRAIN_KEYS.values()}


@pytest.mark.parametrize("command", ["sample", "eval"])
def test_checkpoint_is_read_once(gat_run, tmp_path, monkeypatch, command):
    data, work = gat_run
    reads, load = [], nn.load_checkpoint

    def load_checkpoint(path):
        reads.append(path)
        return load(path)

    monkeypatch.setattr(cli.nn, "load_checkpoint", load_checkpoint)
    out = tmp_path / "out"
    if command == "eval":
        assert run(out, "sample", f"dataset={data}", "method=random_pred",
                   "n_samples=2") == 0
        reads.clear()
    assert run(out, command, f"dataset={data}", f"checkpoint={work}/ema.ckpt",
               "nfes=2") == 0
    assert reads == [f"{work}/ema.ckpt"]


def test_sample_and_eval_read_model_keys_from_checkpoint(gat_run, tmp_path):
    data, work = gat_run
    assert run(work, "sample", f"dataset={data}", "nfes=2", "seed=3") == 0
    given = tmp_path / "given"
    assert run(given, "sample", f"dataset={data}", f"checkpoint={work}/ema.ckpt",
               *MODEL_KEYS, "nfes=2", "seed=3") == 0
    names = sorted(os.listdir(work / "samples"))
    assert names == sorted(os.listdir(given / "samples"))
    for name in names:
        assert ((work / "samples" / name).read_bytes()
                == (given / "samples" / name).read_bytes())

    assert run(work, "eval", f"dataset={data}", "seed=3") == 0
    row = (work / "metrics.csv").read_text().strip().split("\n")[1]
    assert row.startswith("features,knn_fixed,gat,")


@pytest.mark.parametrize("command", ["sample", "eval"])
def test_conflicting_model_key_exits_one(gat_run, command, capsys):
    data, work = gat_run
    assert run(work, command, f"dataset={data}", "method=dmp") == 1
    err = capsys.readouterr().err
    assert "method" in err and "dmp" in err and "knn_fixed" in err


def test_damaged_or_foreign_checkpoint_exits_one(gat_run, tmp_path, capsys):
    # a truncated file, trailing bytes and a checkpoint in the layout used
    # before the record and the names moved into the file (binary arrays,
    # names and record in sidecars) each name the path
    data, work = gat_run
    blob = (work / "ema.ckpt").read_bytes()
    arrays, _ = nn.load_checkpoint(work / "ema.ckpt")
    old = b"".join(struct.pack(f"<{1 + a.ndim}I", a.ndim, *a.shape) + a.tobytes()
                   for a in arrays.values())
    ckpt = tmp_path / "ema.ckpt"
    for damaged, message in ((blob[:-1], "truncated"),
                             (blob + b"\n", "1 trailing bytes"),
                             (old, "must be retrained")):
        ckpt.write_bytes(damaged)
        for command in ("sample", "eval"):
            assert run(tmp_path, command, f"dataset={data}", "nfes=2") == 1
            err = capsys.readouterr().err
            assert f"{ckpt}: " in err and message in err
        assert not (tmp_path / "samples").exists()


def test_checkpoint_that_does_not_fit_exits_one(gat_run, tmp_path, capsys):
    data, work = gat_run
    arrays, record = nn.load_checkpoint(work / "ema.ckpt")
    nn.save_checkpoint(tmp_path / "ema.ckpt", arrays, {**record, "mp_kind": "gcn"})
    assert run(tmp_path, "sample", f"dataset={data}", "nfes=2") == 1
    assert "unknown parameter 'blocks." in capsys.readouterr().err


def test_old_layout_checkpoint_exits_one(gat_run, tmp_path, capsys, monkeypatch):
    # a checkpoint that still holds a bias beside every bias-free weight
    # (layers that feed a batch norm) is rejected before any array is
    # copied into the model
    data, work = gat_run
    arrays, record = nn.load_checkpoint(work / "ema.ckpt")
    old = {}
    for name, arr in arrays.items():
        old[name] = arr
        bias = name[: -len("weight")] + "bias"
        if name.endswith(".weight") and bias not in arrays:
            old[bias] = np.zeros(arr.shape[-1])
    nn.save_checkpoint(tmp_path / "ema.ckpt", old, record)
    built = []

    def build_model(*args):
        built.append((args, engine.build_model(*args)))
        return built[-1][1]

    monkeypatch.setattr(cli, "build_model", build_model)
    assert run(tmp_path, "sample", f"dataset={data}", "nfes=2") == 1
    err = capsys.readouterr().err
    assert ("checkpoint layout differs from the model's (unknown parameter "
            "'lift.layers.0.bias'); the model must be retrained") in err
    (args, model), = built
    fresh = engine.build_model(*args).state_arrays()
    for name, t in model.state_arrays().items():
        np.testing.assert_array_equal(t.data, fresh[name].data)


@pytest.mark.parametrize("command", ["sample", "eval"])
def test_old_record_keys_exit_one(gat_run, tmp_path, capsys, command):
    # records written while ema_decay and interpolant.sigma_min were keys
    data, work = gat_run
    arrays, record = nn.load_checkpoint(work / "ema.ckpt")
    nn.save_checkpoint(tmp_path / "ema.ckpt", arrays,
                       {**record, "ema_decay": 0.95,
                        "interpolant.sigma_min": 0.001})
    assert run(tmp_path, command, f"dataset={data}", "nfes=2") == 1
    err = capsys.readouterr().err
    assert f"unknown config key 'ema_decay' ({tmp_path}/ema.ckpt)" in err
    assert ("was written by another version of ncgn; the model must be "
            "retrained") in err
    assert not (tmp_path / "samples").exists()


@pytest.mark.parametrize("command", ["sample", "eval"])
def test_ddpm_checkpoint_exits_one(gat_run, tmp_path, capsys, command):
    # records written while interpolant.kind was a key, with either of the
    # values it took
    data, work = gat_run
    arrays, record = nn.load_checkpoint(work / "ema.ckpt")
    for kind in ("cfm", "ddpm"):
        nn.save_checkpoint(tmp_path / "ema.ckpt", arrays,
                           {**record, "interpolant.kind": kind})
        assert run(tmp_path, command, f"dataset={data}", "nfes=2") == 1
        err = capsys.readouterr().err
        assert (f"ncgn {command}: unknown config key 'interpolant.kind' "
                f"({tmp_path}/ema.ckpt): {tmp_path}/ema.ckpt was written by "
                f"another version of ncgn; the model must be retrained") in err
        assert not (tmp_path / "samples").exists()


def test_eval_empty_samples_dir_exits_one(gat_run, tmp_path, capsys):
    data, _ = gat_run
    work = tmp_path / "work"
    (work / "samples").mkdir(parents=True)
    assert run(work, "eval", f"dataset={data}") == 1
    err = capsys.readouterr().err
    assert str(work / "samples") in err and ".graph" in err


def test_a_failed_sample_leaves_the_earlier_samples_whole(gat_run, tmp_path,
                                                         capsys, monkeypatch):
    # the model is built from a test graph, so a dataset with no train graph
    # samples; a run that fails midway leaves the last samples/ as it was
    _, work = gat_run
    data, out = tmp_path / "data", tmp_path / "out"
    assert run(data, "simulate-data", "n_train=0", "n_test=2") == 0
    argv = ["sample", f"out_dir={out}", f"dataset={data}",
            f"checkpoint={work}/ema.ckpt", "nfes=2"]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in (out / "samples").iterdir()}
    saved, save = [], graphs.save_graph

    def failing_second(path, graph):
        saved.append(path)
        if len(saved) == 2:
            raise OSError("disk full")
        save(path, graph)

    monkeypatch.setattr(graphs, "save_graph", failing_second)
    assert main(argv + ["seed=1"]) == 1
    assert "ncgn sample: disk full" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in (out / "samples").iterdir()} == before
    assert not (out / "samples.partial").exists()
    assert not (out / "samples.old").exists()


def test_a_graph_directory_holding_other_files_is_not_replaced(tmp_path,
                                                               capsys):
    # a test/ or samples/ that ncgn did not write stays as it is, refused
    # before anything is written; the .partial and .old a killed run leaves
    # behind hold only graphs and are cleared
    data, work = tmp_path / "data", tmp_path / "work"
    for directory in (data / "test", work / "samples"):
        directory.mkdir(parents=True)
        (directory / "notes.txt").write_text("mine")
    for name in ("train.partial", "train.old"):
        (data / name).mkdir()
        (data / name / "00000.graph").write_text("")
    assert run(data, "make-shapes", "n_train=2", "n_test=1") == 1
    assert (capsys.readouterr().err ==
            f"ncgn make-shapes: {data}/test holds more than .graph files\n")
    assert sorted(os.listdir(data)) == ["test", "train.old", "train.partial"]
    assert os.listdir(data / "test") == ["notes.txt"]
    assert (data / "test" / "notes.txt").read_text() == "mine"
    (data / "test" / "notes.txt").unlink()
    assert run(data, "make-shapes", "n_train=2", "n_test=1") == 0
    assert sorted(os.listdir(data)) == ["config.resolved", "manifest", "test",
                                        "train"]
    assert run(work, "sample", f"dataset={data}", "method=random_pred") == 1
    assert (capsys.readouterr().err ==
            f"ncgn sample: {work}/samples holds more than .graph files\n")
    assert os.listdir(work) == ["samples"]
    assert os.listdir(work / "samples") == ["notes.txt"]


def test_a_second_run_replaces_the_graph_directories_whole(tmp_path,
                                                          monkeypatch):
    # a smaller second run leaves none of the first run's graphs for
    # load_dataset or eval to read
    data, work = tmp_path / "shapes", tmp_path / "work"
    pools, evaluate = [], engine.evaluate_w2

    def recording(generated, *args, **kwargs):
        pools.append(len(generated))
        return evaluate(generated, *args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_w2", recording)
    for n in (3, 1):
        assert run(data, "make-shapes", f"n_train={n}", "n_test=1",
                   "n_points=16") == 0
        assert len(load_dataset(str(data)).train) == n
        for command in ("sample", "eval"):
            assert run(work, command, f"dataset={data}", "task=positions",
                       "method=random_pred", f"n_samples={n}") == 0
    assert pools == [3, 1]
    assert sorted(os.listdir(data)) == ["config.resolved", "manifest", "test",
                                        "train"]


def test_eval_of_a_non_finite_sample_names_its_file(gat_run, tmp_path, capsys):
    data, _ = gat_run
    work = tmp_path / "work"
    assert run(work, "sample", f"dataset={data}", "method=random_pred") == 0
    path = work / "samples" / "00001.graph"
    lines = path.read_text().split("\n")
    lines[2] = " ".join(["nan"] + lines[2].split()[1:])
    path.write_text("\n".join(lines))
    assert run(work, "eval", f"dataset={data}", "method=random_pred") == 1
    err = capsys.readouterr().err
    assert f"ncgn eval: {path} line 3: expected finite values, got 'nan " in err


def test_eval_of_samples_of_another_width_names_both(tmp_path, capsys):
    # samples without the test split's 3 genes: rows of 2 values against 5
    data, work = tmp_path / "data", tmp_path / "work"
    assert run(data, "simulate-data", "n_train=2", "n_test=2") == 0
    template = load_dataset(str(data)).test[0]
    save_graphs(str(work / "samples"), [GeometricGraph(None, template.positions)])
    capsys.readouterr()
    assert run(work, "eval", f"dataset={data}") == 1
    assert ("ncgn eval: generated rows have width 2, reference rows width 5"
            in capsys.readouterr().err)
    assert not (work / "metrics.csv").exists()


def test_long_short_samples_on_its_train_seed_edges(tmp_path, monkeypatch):
    """``seed=`` on sample seeds the sampler only: the long_short edges are
    drawn from the seed the checkpoint was trained with."""
    data, work = tmp_path / "data", tmp_path / "work"
    assert run(data, "simulate-data", "n_train=2", "n_test=2") == 0
    seeds = []

    def recording(positions, k, seed):
        seeds.append(seed)
        return build_long_short_edges(positions, k, seed)

    monkeypatch.setattr(engine, "build_long_short_edges", recording)
    keys = ("method=long_short", "epochs=1", "batch=2", "warmup_epochs=0",
            "hdim=8", "layers=1", "nfes=2")
    assert run(work, "train", f"dataset={data}", *keys, "seed=3") == 0
    assert seeds and set(seeds) == {3}
    seeds.clear()
    assert run(work, "sample", f"dataset={data}", *keys, "seed=4") == 0
    assert seeds and set(seeds) == {3}
