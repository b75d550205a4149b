"""Command-line entry point.

    ncgn <command> [--config FILE] [key=value ...]

Commands: simulate-data, make-shapes, train, sample, eval, theory,
attention-study, gw-study, ablate-depth. Every numeric artifact is CSV under
``out_dir``; each run echoes its resolved configuration to
``out_dir/config.resolved``. NCGN_THREADS caps worker counts.

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
    parse_config,
    parse_pairs,
    write_resolved,
)
from .dataset import (
    generate_rd_dataset,
    generate_shape_dataset,
    load_dataset,
    save_dataset,
)
from .dmp import FlatGat
from .engine import (
    TrainConfig,
    ablate_depth,
    attention_study,
    build_model,
    evaluate_w2,
    gw_study,
    model_dims,
    random_generations,
    sample,
    task_mask,
    train,
    write_csv,
)
from .graphs import load_graph, save_graph

COMMANDS = ("simulate-data", "make-shapes", "train", "sample", "eval",
            "theory", "attention-study", "gw-study", "ablate-depth")
SAMPLING_KEYS = ("nfes", "seed")  # train keys a checkpoint does not fix
THEORY_SNRS = np.logspace(np.log10(0.25), np.log10(16.0), 12)  # radius sweep


def _train_config(config):
    return TrainConfig(**{field: config[key] for field, key in TRAIN_KEYS.items()})


def _checkpoint_path(config):
    return config["checkpoint"] or os.path.join(config["out_dir"], "ema.ckpt")


def _with_checkpoint(config, args):
    """Read the checkpoint, if there is one, re-resolve ``args`` on top of
    its record and reject given keys that differ. Returns the config and
    the checkpoint's arrays and train seed (None without a checkpoint)."""
    path = _checkpoint_path(config)
    if not os.path.exists(path):
        return config, None
    arrays, record = nn.load_checkpoint(path)
    try:
        record = parse_pairs(record.items(), path)
    except ConfigError as exc:
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


def _require_dataset(config):
    path = config["dataset"]
    if not path:
        raise ConfigError("this command needs dataset=<path>")
    if not os.path.isdir(path):
        raise FileNotFoundError(f"dataset directory not found: {path}")
    return load_dataset(path)


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


def cmd_simulate_data(config):
    ds = generate_rd_dataset(
        n_train=config["n_train"], n_test=config["n_test"],
        seed=config["seed"], sign_convention=config["convention"],
    )
    save_dataset(config["out_dir"], ds)
    return f"wrote {len(ds.train)} train / {len(ds.test)} test graphs"


def cmd_make_shapes(config):
    ds = generate_shape_dataset(
        n_train=config["n_train"], n_test=config["n_test"],
        n_points=config["n_points"], seed=config["seed"],
    )
    save_dataset(config["out_dir"], ds)
    return f"wrote {len(ds.train)} train / {len(ds.test)} test shapes"


def cmd_train(config):
    ds = _require_dataset(config)
    cfg = _train_config(config)
    out = config["out_dir"]
    model, ema, rows = train(ds.train, cfg,
                             loss_path=os.path.join(out, "loss.csv"))
    record = {key: config[key] for key in TRAIN_KEYS.values()}
    for name, arrays in (("model.ckpt", model.state_arrays()),
                         ("ema.ckpt", ema.shadow)):
        nn.save_checkpoint(os.path.join(out, name), arrays, record)
    return f"final loss {rows[-1][2]:.6f} over {len(rows)} steps"


def cmd_sample(config, checkpoint):
    ds = _require_dataset(config)
    templates = ds.test
    if config["n_samples"] < 0:
        raise ConfigError(f"n_samples must be >= 0, got {config['n_samples']}")
    if config["mask_task"] and config["task"] == "positions":
        raise ConfigError(f"mask_task={config['mask_task']!r} conditions "
                          f"features; it cannot be used with task=positions")
    if not templates:
        raise ValueError(f"{config['dataset']}: the test split is empty, so "
                         f"there are no templates to sample")
    if config["n_samples"]:
        reps = -(-config["n_samples"] // len(templates))
        templates = (templates * reps)[: config["n_samples"]]
    out = config["out_dir"]
    cfg = _train_config(config)
    mask = None
    if config["mask_task"]:
        mask = [task_mask(g, config["mask_task"]) for g in templates]
    if config["method"] == "random_pred":
        generated = random_generations(templates, cfg.task, mask=mask,
                                       seed=config["seed"])
    else:
        model, cfg = _load_model(config, ds.train[0], checkpoint)
        generated = sample(model, templates, cfg, mask=mask,
                           seed=config["seed"])
    sample_dir = os.path.join(out, "samples")
    os.makedirs(sample_dir, exist_ok=True)
    for i, g in enumerate(generated):
        save_graph(os.path.join(sample_dir, f"{i:05d}.graph"), g)
    return f"wrote {len(generated)} samples to {sample_dir}"


def cmd_eval(config):
    ds = _require_dataset(config)
    sample_dir = os.path.join(config["out_dir"], "samples")
    if not os.path.isdir(sample_dir):
        raise FileNotFoundError(f"samples directory not found: {sample_dir}")
    names = sorted(n for n in os.listdir(sample_dir) if n.endswith(".graph"))
    if not names:
        raise FileNotFoundError(f"samples directory holds no .graph files: "
                                f"{sample_dir}")
    generated = [load_graph(os.path.join(sample_dir, n)) for n in names]
    result = evaluate_w2(generated, ds.test, config["task"],
                         seed=config["seed"])
    row = (config["task"], config["method"], config["mp_kind"],
           result["mean"], result["std"], config["seed"])
    write_csv(os.path.join(config["out_dir"], "metrics.csv"),
              ("task", "method", "mp_kind", "w2_mean", "w2_std", "seed"),
              [row])
    flag = " (pool smaller than subsample)" if result["warned"] else ""
    return f"w2 {result['mean']:.6f} +/- {result['std']:.6f}{flag}"


def cmd_theory(config):
    rows = theory.radius_sweep(THEORY_SNRS)
    out = config["out_dir"]
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


def cmd_attention_study(config):
    ds = _require_dataset(config)
    cfg = TrainConfig(task="positions", method="fully_connected",
                      epochs=config["attention.epochs"], batch=32,
                      lr=config["lr"], warmup_epochs=0, hdim=config["hdim"],
                      seed=config["seed"])
    d_in, odim = model_dims(ds.train[0], cfg.task)
    model, _, _ = train(ds.train, cfg,
                        model=FlatGat(d_in, odim, hdim=cfg.hdim, seed=cfg.seed))
    rows = attention_study(model, ds.test, bins=config["attention.bins"],
                           seed=config["seed"])
    write_csv(os.path.join(config["out_dir"], "attention.csv"),
              ("t_bucket", "bin_lo", "bin_hi", "weight"), rows)
    return f"{len(rows)} attention rows"


def cmd_gw_study(config):
    ds = _require_dataset(config)
    rows, argmin_rows = gw_study(
        ds.train, n_shapes=config["n_shapes"], n_seeds=config["n_seeds"],
        iters=config["gw.iters"], seed=config["seed"],
    )
    out = config["out_dir"]
    write_csv(os.path.join(out, "gw.csv"), ("t", "clusters", "gw_mean"), rows)
    write_csv(os.path.join(out, "gw_argmin.csv"), ("t", "argmin_clusters"),
              argmin_rows)
    argmins = " ".join(str(r[1]) for r in argmin_rows)
    return f"argmin clusters by noise level: {argmins}"


def cmd_ablate_depth(config):
    ds = _require_dataset(config)
    depths = tuple(int(x) for x in config["depths"].split())
    cfg = _train_config(config)
    rows = ablate_depth(ds.train, ds.test, cfg, depths=depths,
                        seed=config["seed"])
    write_csv(os.path.join(config["out_dir"], "depth.csv"),
              ("layers", "w2_mean", "w2_std"), rows)
    best = min(rows, key=lambda r: r[1])
    return f"best depth {best[0]} at w2 {best[1]:.6f}"


HANDLERS = {
    "simulate-data": cmd_simulate_data,
    "make-shapes": cmd_make_shapes,
    "train": cmd_train,
    "sample": cmd_sample,
    "eval": cmd_eval,
    "theory": cmd_theory,
    "attention-study": cmd_attention_study,
    "gw-study": cmd_gw_study,
    "ablate-depth": cmd_ablate_depth,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ncgn", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="key = value file")
    parser.add_argument("overrides", nargs="*", help="key=value overrides")
    args = parser.parse_args(argv)
    try:
        config, checkpoint = parse_config(args.config, args.overrides), None
        if args.command in ("sample", "eval"):
            config, checkpoint = _with_checkpoint(config, args)
        write_resolved(config, os.path.join(config["out_dir"], "config.resolved"))
        handler = HANDLERS[args.command]
        summary = (handler(config, checkpoint) if args.command == "sample"
                   else handler(config))
    except (ConfigError, FileNotFoundError, KeyError, ValueError,
            RuntimeError) as exc:
        # str() of a KeyError quotes its message; print the message itself
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"ncgn {args.command}: {message}", file=sys.stderr)
        return 1
    print(f"ncgn {args.command}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
