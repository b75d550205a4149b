"""Key=value run configuration.

Files are line-oriented ``key = value`` text with ``#`` comments; dotted keys
namespace modules (``schedule.kind``, ``interpolant.kind``). Precedence:
command-line overrides > file > defaults. Unknown keys are rejected by name,
and the resolved configuration is echoed to ``out_dir/config.resolved`` so a
run can be reproduced from its own artifact.

The train keys and their defaults are the fields of ``engine.TrainConfig``;
``TRAIN_KEYS`` maps each field to its key. Training records those keys in
every checkpoint's header, and ``sample`` and ``eval`` convert and check the
record with ``parse_pairs``, so they read the model keys from the checkpoint
instead of repeating them.
"""

from __future__ import annotations

import os
from dataclasses import fields

from .engine import TrainConfig

_NAMESPACED = {
    "interpolant": "interpolant.kind",
    "schedule_kind": "schedule.kind",
}
TRAIN_KEYS = {f.name: _NAMESPACED.get(f.name, f.name) for f in fields(TrainConfig)}

DEFAULTS = {
    "out_dir": "out",
    **{TRAIN_KEYS[f.name]: f.default for f in fields(TrainConfig)},
    "dataset": "",
    "checkpoint": "",
    "n_train": 2000,
    "n_test": 400,
    "n_points": 64,
    "n_shapes": 20,
    "n_seeds": 3,
    "convention": "damped",
    "mask_task": "",
    "n_samples": 0,
    "gw.iters": 50,
    "attention.bins": 10,
    "attention.epochs": 50,
    "depths": "2 4 8 16",
}


class ConfigError(ValueError):
    pass


def _convert(key, raw):
    default = DEFAULTS[key]
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected integer, got {raw!r}") from None
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected number, got {raw!r}") from None
    return raw


def parse_pairs(pairs, source):
    """Convert (key, raw string) pairs to typed values; an unknown or
    repeated key raises ConfigError naming ``source``."""
    seen = {}
    for key, raw in pairs:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r} ({source})")
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} ({source})")
        seen[key] = _convert(key, raw)
    return seen


def read_config_file(path):
    pairs = []
    with open(path) as fh:
        for ln_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path} line {ln_no}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            pairs.append((key, raw))
    return parse_pairs(pairs, path)


def parse_config(path=None, overrides=(), record=None):
    """Resolve defaults <- checkpoint ``record`` <- config file <- key=value
    override strings."""
    config = {**DEFAULTS, **(record or {})}
    if path:
        config.update(read_config_file(path))
    pairs = []
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        pairs.append((key, raw))
    config.update(parse_pairs(pairs, "command line"))
    return config


def write_resolved(config, path):
    """Write ``config`` to ``path`` as sorted ``key = value`` lines, in the
    format ``read_config_file`` reads back."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        for key in sorted(config):
            fh.write(f"{key} = {config[key]}\n")
    return path
