"""Key=value run configuration.

Files are line-oriented ``key = value`` text with ``#`` comments; dotted keys
namespace modules (``schedule.kind``, ``gw.iters``). Precedence:
command-line overrides > file > defaults. ``DOMAINS`` is the one table of
what each key accepts, and ``check`` the one place a value is compared with
it: an unknown key, or a value from a file, the command line or a checkpoint
record outside its key's domain, is rejected by name before the resolved
configuration is echoed to ``out_dir/config.resolved``.

The train keys and their defaults are the fields of ``TrainConfig``, which
checks each field under its key; ``TRAIN_KEYS`` maps each field to its key.
Training records those keys in every checkpoint's header, and ``sample`` and
``eval`` convert and check the record with ``parse_pairs``, so they read the
model keys from the checkpoint instead of repeating them.
"""

from __future__ import annotations

import os
from dataclasses import InitVar, dataclass, fields

from . import dmp, reaction_diffusion, schedule, shapes

BASELINES = ("knn_fixed", "fully_connected", "long_short")
METHODS = ("dmp",) + BASELINES + ("random_pred",)
MASK_TASKS = ("temporal_trajectory", "temporal_interpolation",
              "gene_imputation", "spatial_imputation", "gene_knockout")


class ConfigError(ValueError):
    pass


@dataclass
class TrainConfig:
    task: str = "features"
    method: str = "dmp"
    mp_kind: str = "gcn"
    schedule_kind: str = "exponential"
    epochs: int = 300
    batch: int = 128
    lr: float = 1e-3
    warmup_epochs: int = 10
    hdim: int = 32
    layers: int = 3
    knn_k: int = 8
    nfes: int = 200
    seed: int = 0
    # constructor-only, for the benchmark harness's interpolant="cfm"; not a
    # field, so no config key or checkpoint record carries it
    interpolant: InitVar[str] = "cfm"

    def __post_init__(self, interpolant):
        if interpolant != "cfm":
            raise ValueError(f"unknown interpolant {interpolant!r}; cfm is the "
                             f"one noising process")
        for name, key in TRAIN_KEYS.items():
            check(key, getattr(self, name))
        if self.warmup_epochs > self.epochs:
            raise ConfigError(f"need 0 <= warmup_epochs <= epochs, got "
                              f"warmup_epochs={self.warmup_epochs} and "
                              f"epochs={self.epochs}")


_NAMESPACED = {"schedule_kind": "schedule.kind"}
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
}

# each key's domain: choices, float (positive, finite) or an integer minimum
# (n_samples=0 samples each test graph once); free-text keys have none
DOMAINS = {
    "task": ("features", "positions"),
    "method": METHODS,
    "mp_kind": dmp.MP_KINDS,
    "schedule.kind": schedule.SCHEDULE_KINDS,
    "convention": reaction_diffusion.SIGN_CONVENTIONS,
    "mask_task": ("",) + MASK_TASKS,
    "lr": float,
    "n_points": shapes.MIN_POINTS,
    **dict.fromkeys(("warmup_epochs", "seed", "n_train", "n_test",
                     "n_samples"), 0),
    **dict.fromkeys(("epochs", "batch", "hdim", "layers", "knn_k", "nfes",
                     "n_shapes", "n_seeds", "gw.iters", "attention.bins",
                     "attention.epochs"), 1),
}


def check(key, value):
    """Return ``value`` if it lies in ``key``'s domain in DOMAINS, else raise
    ConfigError naming the key, the domain and the value."""
    domain = DOMAINS.get(key)
    if domain is None:
        return value
    if isinstance(domain, tuple):
        ok, expected = value in domain, "one of " + ", ".join(map(repr, domain))
    elif domain is float:
        ok, expected = 0 < value < float("inf"), "a positive finite number"
    else:
        ok, expected = value >= domain, f"an integer of at least {domain}"
    if not ok:
        raise ConfigError(f"key {key!r}: expected {expected}, got {value!r}")
    return value


def parse_pairs(pairs, source):
    """Convert (key, raw string) pairs to typed values, each passed through
    ``check``; an unknown or repeated key raises ConfigError naming ``source``."""
    seen = {}
    for key, raw in pairs:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r} ({source})")
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} ({source})")
        kind = type(DEFAULTS[key])
        try:
            value = kind(raw)
        except ValueError:
            noun = "integer" if kind is int else "number"
            raise ConfigError(f"key {key!r}: expected {noun}, got {raw!r}") from None
        seen[key] = check(key, value)
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
