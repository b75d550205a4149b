import ast
import os
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ncgn import cli, engine, interpolant, nn
from ncgn.cli import main
from ncgn.config import (
    TRAIN_KEYS,
    ConfigError,
    DEFAULTS,
    parse_config,
    read_config_file,
    write_resolved,
)
from ncgn.graphs import build_long_short_edges, load_graph


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
    cfg.write_text("schedule.kind = exponential\ninterpolant.kind = ddpm\n")
    config = parse_config(str(cfg))
    assert config["schedule.kind"] == "exponential"
    assert config["interpolant.kind"] == "ddpm"


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


def test_sample_without_checkpoint_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(data, "simulate-data", "n_train=2", "n_test=1") == 0
    work = tmp_path / "work"
    assert run(work, "sample", f"dataset={data}", "hdim=8", "layers=1") == 1
    assert "checkpoint" in capsys.readouterr().err


TINY_TRAIN = ("epochs=1", "batch=2", "warmup_epochs=0", "hdim=8", "layers=1",
              "nfes=2")


def test_masked_sampling_on_positions_task_exits_one(tmp_path, capsys):
    # task masks describe the features task; on positions they would clamp
    # rows onto the template's features
    data, work = tmp_path / "shapes", tmp_path / "work"
    assert run(data, "make-shapes", "n_train=2", "n_test=1",
               "n_points=16") == 0
    assert run(work, "train", f"dataset={data}", "task=positions",
               *TINY_TRAIN) == 0
    assert run(work, "sample", f"dataset={data}",
               "mask_task=temporal_trajectory") == 1
    err = capsys.readouterr().err
    assert "mask_task" in err and "task=positions" in err
    assert not (work / "samples").exists()


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


def test_ablate_depth_command(tmp_path):
    data = tmp_path / "data"
    assert run(data, "simulate-data", "n_train=2", "n_test=1") == 0
    work = tmp_path / "work"
    assert run(work, "ablate-depth", f"dataset={data}", "depths=1 2",
               "epochs=1", "batch=2", "warmup_epochs=0", "hdim=8",
               "nfes=2") == 0
    lines = (work / "depth.csv").read_text().strip().split("\n")
    assert lines[0] == "layers,w2_mean,w2_std"
    assert [l.split(",")[0] for l in lines[1:]] == ["1", "2"]


# ------------------------------------------------- checkpoint config record

MODEL_KEYS = ("method=knn_fixed", "interpolant.kind=ddpm", "mp_kind=gat",
              "hdim=8", "layers=1", "epochs=1", "batch=2", "warmup_epochs=0")


@pytest.fixture(scope="module")
def gat_run(tmp_path_factory):
    """A dataset and a knn_fixed/ddpm/GAT run trained on it."""
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


def test_eval_empty_samples_dir_exits_one(gat_run, tmp_path, capsys):
    data, _ = gat_run
    work = tmp_path / "work"
    (work / "samples").mkdir(parents=True)
    assert run(work, "eval", f"dataset={data}") == 1
    err = capsys.readouterr().err
    assert str(work / "samples") in err and ".graph" in err


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
