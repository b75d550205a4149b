"""Command-line entry point.

    ncgn <command> [--config FILE] [key=value ...]

Commands: simulate-data, make-shapes, train, sample, eval, theory,
attention-study, gw-study. NCGN_THREADS caps workers. ``out_dir`` and its
``config.resolved`` appear once a command's inputs pass their checks; its CSV
artifacts follow, and ``train/``, ``test/``, ``samples/`` are replaced whole.

``train`` writes ``model.ckpt`` and ``ema.ckpt``, each holding its arrays
and the train keys as its record. ``sample`` and ``eval`` read the checkpoint
``checkpoint=`` (or ``out_dir/ema.ckpt``) once, when it exists, and take every
train key except the sampling inputs ``nfes`` and ``seed`` from its record; a
given key that differs from the record is rejected by name. ``seed=`` seeds
the sampler, while the model samples on the structure draws of its recorded
train seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import nn, theory
from .config import (
    TRAIN_KEYS,
    ConfigError,
    TrainConfig,
    parse_config,
    parse_pairs,
    write_resolved,
)
from .dataset import (
    check_counts,
    generate_rd_dataset,
    generate_shape_dataset,
    load_dataset,
    save_dataset,
)
from .dmp import FlatGat
from .engine import (
    attention_study,
    build_model,
    check_mask_task,
    evaluate_w2,
    gw_study,
    model_dims,
    random_generations,
    sample,
    train,
)
from .graphs import check_replaceable, load_graphs, save_graphs

SAMPLING_KEYS = ("nfes", "seed")  # train keys a checkpoint does not fix
THEORY_SNRS = np.logspace(np.log10(0.25), np.log10(16.0), 12)  # radius sweep


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                             for v in row) + "\n")


def _train_config(config):
    return TrainConfig(**{field: config[key] for field, key in TRAIN_KEYS.items()})


def _start_run(config):
    """Make ``out_dir`` and its ``config.resolved``, once inputs are checked."""
    write_resolved(config, os.path.join(config["out_dir"], "config.resolved"))
    return config["out_dir"]


def _checkpoint_path(config):
    return config["checkpoint"] or os.path.join(config["out_dir"], "ema.ckpt")


def _with_checkpoint(config, args):
    """Read the checkpoint, if there is one, re-resolve ``args`` on top of
    its record and reject given keys that differ; a record this version
    cannot train with asks for a retrain. Returns the config, a valid train
    config, and the checkpoint's arrays and train seed (None without one)."""
    path = _checkpoint_path(config)
    if not os.path.exists(path):
        _train_config(config)
        return config, None
    arrays, record = nn.load_checkpoint(path)
    try:
        record = parse_pairs(record.items(), path)
        _train_config(parse_config(record=record))
    except ValueError as exc:
        raise ConfigError(f"{exc}: {path} was written by another version of "
                          f"ncgn; the model must be retrained") from None
    train_seed = record["seed"]
    record = {k: v for k, v in record.items() if k not in SAMPLING_KEYS}
    config = parse_config(args.config, args.overrides, record)
    for key, value in record.items():
        if config[key] != value:
            raise ConfigError(f"key {key!r}: given {config[key]!r}, but "
                              f"{path} was trained with {value!r}")
    return config, (arrays, train_seed)


def _require_dataset(config, *splits):
    """The dataset at ``dataset=``; each split named in ``splits`` must hold
    at least one graph."""
    path = config["dataset"]
    if not path:
        raise ConfigError("this command needs dataset=<path>")
    if not os.path.isdir(path):
        raise FileNotFoundError(f"dataset directory not found: {path}")
    ds = load_dataset(path)
    for split in splits:
        if not getattr(ds, split):
            raise ValueError(f"{path}: the {split} split is empty")
    return ds


def _load_model(config, template, checkpoint):
    """Model and train config of the checkpoint's arrays and train seed.
    The config's ``seed`` is the recorded train seed, which fixes structure
    draws such as the ``long_short`` edges; the command-line ``seed`` only
    seeds the sampler."""
    if checkpoint is None:
        raise FileNotFoundError(f"checkpoint not found: {_checkpoint_path(config)}")
    arrays, train_seed = checkpoint
    cfg = replace(_train_config(config), seed=train_seed)
    model = build_model(template, cfg)
    nn.load_into(model, arrays)
    return model, cfg


def _make_dataset(config, generate, noun, **params):
    check_counts(config["n_train"], config["n_test"])
    for split in ("train", "test"):
        check_replaceable(os.path.join(config["out_dir"], split))
    out = _start_run(config)
    ds = generate(n_train=config["n_train"], n_test=config["n_test"],
                  seed=config["seed"], **params)
    save_dataset(out, ds)
    return f"wrote {len(ds.train)} train / {len(ds.test)} test {noun}"


def cmd_simulate_data(config, args):
    return _make_dataset(config, generate_rd_dataset, "graphs",
                         sign_convention=config["convention"])


def cmd_make_shapes(config, args):
    return _make_dataset(config, generate_shape_dataset, "shapes",
                         n_points=config["n_points"])


def cmd_train(config, args):
    cfg = _train_config(config)
    ds = _require_dataset(config, "train")
    model = build_model(ds.train[0], cfg)
    out = _start_run(config)
    model, ema, rows = train(ds.train, cfg, model=model)
    write_csv(os.path.join(out, "loss.csv"), ("epoch", "step", "loss", "lr"),
              rows)
    record = {key: config[key] for key in TRAIN_KEYS.values()}
    for name, arrays in (("model.ckpt", model.state_arrays()),
                         ("ema.ckpt", ema.shadow)):
        nn.save_checkpoint(os.path.join(out, name), arrays, record)
    return f"final loss {rows[-1][2]:.6f} over {len(rows)} steps"


def cmd_sample(config, args):
    config, checkpoint = _with_checkpoint(config, args)
    check_mask_task(config["task"], config["mask_task"])
    ds = _require_dataset(config, "test")
    if config["method"] != "random_pred":
        model, cfg = _load_model(config, ds.test[0], checkpoint)
    sample_dir = os.path.join(config["out_dir"], "samples")
    check_replaceable(sample_dir)
    _start_run(config)
    n = config["n_samples"] or len(ds.test)  # cycling through the test split
    templates = [ds.test[i % len(ds.test)] for i in range(n)]
    draw = {"seed": config["seed"], "mask_task": config["mask_task"]}
    if config["method"] == "random_pred":
        generated = random_generations(templates, config["task"], **draw)
    else:
        generated = sample(model, templates, cfg, **draw)
    save_graphs(sample_dir, generated)
    return f"wrote {len(generated)} samples to {sample_dir}"


def cmd_eval(config, args):
    config, _ = _with_checkpoint(config, args)
    ds = _require_dataset(config, "test")
    sample_dir = os.path.join(config["out_dir"], "samples")
    generated = load_graphs(sample_dir) if os.path.isdir(sample_dir) else []
    if not generated:
        raise FileNotFoundError(f"no .graph samples found in {sample_dir}")
    out = _start_run(config)
    result = evaluate_w2(generated, ds.test, config["task"],
                         seed=config["seed"])
    row = (config["task"], config["method"], config["mp_kind"],
           result["mean"], result["std"], config["seed"])
    write_csv(os.path.join(out, "metrics.csv"),
              ("task", "method", "mp_kind", "w2_mean", "w2_std", "seed"),
              [row])
    flag = " (pool smaller than subsample)" if result["warned"] else ""
    return f"w2 {result['mean']:.6f} +/- {result['std']:.6f}{flag}"


def cmd_theory(config, args):
    out = _start_run(config)
    rows = theory.radius_sweep(THEORY_SNRS)
    write_csv(os.path.join(out, "theory.csv"), ("snr", "r_star", "mi"), rows)
    grid = [0.0, 0.25, 0.5, 0.75, 0.99]
    prop_rows = []
    for t in grid:
        for rho in [-0.9, -0.45, 0.0, 0.45, 0.9]:
            printed, consistent = theory.expected_sq_distance(t, 1.0, rho)
            mc = theory.mc_sq_distance(t, 1.0, rho, n_draws=10**5,
                                       seed=config["seed"])
            prop_rows.append((t, rho, printed, consistent, mc,
                              int(abs(mc - printed) < abs(mc - consistent))))
    write_csv(os.path.join(out, "prop1.csv"),
              ("t", "rho", "as_printed", "covariance_consistent",
               "mc", "printed_closer"), prop_rows)
    return (f"{len(rows)} radius rows, r* range "
            f"[{min(r[1] for r in rows):.3f}, {max(r[1] for r in rows):.3f}]")


def cmd_attention_study(config, args):
    ds = _require_dataset(config, "train", "test")
    out = _start_run(config)
    cfg = TrainConfig(task="positions", method="fully_connected",
                      epochs=config["attention.epochs"], batch=32,
                      lr=config["lr"], warmup_epochs=0, hdim=config["hdim"],
                      seed=config["seed"])
    d_in, odim = model_dims(ds.train[0], cfg.task)
    model, _, _ = train(ds.train, cfg,
                        model=FlatGat(d_in, odim, hdim=cfg.hdim, seed=cfg.seed))
    rows = attention_study(model, ds.test, bins=config["attention.bins"],
                           seed=config["seed"])
    write_csv(os.path.join(out, "attention.csv"),
              ("t_bucket", "bin_lo", "bin_hi", "weight"), rows)
    return f"{len(rows)} attention rows"


def cmd_gw_study(config, args):
    ds = _require_dataset(config, "train")
    out = _start_run(config)
    rows, argmin_rows = gw_study(
        ds.train, n_shapes=config["n_shapes"], n_seeds=config["n_seeds"],
        iters=config["gw.iters"], seed=config["seed"],
    )
    write_csv(os.path.join(out, "gw.csv"), ("t", "clusters", "gw_mean"), rows)
    write_csv(os.path.join(out, "gw_argmin.csv"), ("t", "argmin_clusters"),
              argmin_rows)
    argmins = " ".join(str(r[1]) for r in argmin_rows)
    return f"argmin clusters by noise level: {argmins}"


HANDLERS = {
    "simulate-data": cmd_simulate_data,
    "make-shapes": cmd_make_shapes,
    "train": cmd_train,
    "sample": cmd_sample,
    "eval": cmd_eval,
    "theory": cmd_theory,
    "attention-study": cmd_attention_study,
    "gw-study": cmd_gw_study,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ncgn", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=list(HANDLERS))
    parser.add_argument("--config", default=None, help="key = value file")
    parser.add_argument("overrides", nargs="*", help="key=value overrides")
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config, args.overrides)
        summary = HANDLERS[args.command](config, args)
    except (ConfigError, OSError, KeyError, ValueError, RuntimeError) as exc:
        # str() of a KeyError quotes its message; print the message itself
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"ncgn {args.command}: {message}", file=sys.stderr)
        return 1
    print(f"ncgn {args.command}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
