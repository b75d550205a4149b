"""Layers, optimizer, EMA and checkpoint I/O on top of the tensor engine."""

from __future__ import annotations

import math
import re

import numpy as np

from .tensor import Tensor, batch_norm, linear

BN_EPS = 1e-5  # variance floor of every batch norm
BN_MOMENTUM = 0.1  # weight of each new batch in the running statistics
ADAM_BETAS = (0.9, 0.999)  # Adam's first and second moment decay rates
ADAM_EPS = 1e-8  # Adam's denominator floor
EMA_DECAY = 0.95  # weight of the old shadow in each EMA update


class Module:
    """Base class: parameters, buffers and submodules are found by one
    recursive attribute walk."""

    def walk(self, prefix=""):
        """(key, value) for every attribute and list/tuple item, depth first in
        attribute order; a submodule is yielded just before its own members."""
        for name, val in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(val, (list, tuple)):
                pairs = [(f"{key}.{i}", item) for i, item in enumerate(val)]
            else:
                pairs = [(key, val)]
            for k, item in pairs:
                yield k, item
                if isinstance(item, Module):
                    yield from item.walk(prefix=f"{k}.")

    def modules(self):
        """This module and every nested submodule."""
        return [self] + [v for _, v in self.walk() if isinstance(v, Module)]

    def named_parameters(self):
        return [(k, v) for k, v in self.walk()
                if isinstance(v, Tensor) and v.requires_grad]

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def state_arrays(self):
        """All persistent arrays: every parameter, then every ``running_*``
        buffer (running statistics), each group in walk order."""
        members = list(self.walk())
        out = {k: v for k, v in members if isinstance(v, Tensor) and v.requires_grad}
        out.update((k, v) for k, v in members
                   if isinstance(v, Tensor) and not v.requires_grad
                   and k.rsplit(".", 1)[-1].startswith("running_"))
        return out

    def train(self):
        for m in self.modules():
            if hasattr(m, "training"):
                m.training = True

    def eval(self):
        for m in self.modules():
            if hasattr(m, "training"):
                m.training = False


class Linear(Module):
    """``x @ weight + bias``; with ``bias=False``, ``x @ weight`` and no
    ``bias`` parameter. The bias starts at zero and draws nothing from
    ``rng``."""

    def __init__(self, d_in, d_out, rng, bias=True):
        scale = np.sqrt(2.0 / (d_in + d_out))
        self.weight = Tensor(rng.normal(0.0, scale, size=(d_in, d_out)), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class BatchNorm(Module):
    """Per-channel batch normalization over node rows.

    The first training batch seeds the running statistics directly, so a
    single train step followed by eval reproduces that batch's stats;
    subsequent batches blend with momentum ``BN_MOMENTUM``.
    """

    def __init__(self, channels):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = Tensor(np.zeros(channels))
        self.running_var = Tensor(np.ones(channels))
        self._initialized = False
        self.training = True

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2:
            raise ValueError("batch norm expects nodes x channels")
        if self.training:
            if x.data.shape[0] < 1:
                raise ValueError("batch norm needs at least one row in train mode")
            out, m, v = batch_norm(x, self.gamma, self.beta, BN_EPS)
            if not self._initialized:
                self.running_mean.data[:] = m
                self.running_var.data[:] = v
                self._initialized = True
            else:
                self.running_mean.data *= 1.0 - BN_MOMENTUM
                self.running_mean.data += BN_MOMENTUM * m
                self.running_var.data *= 1.0 - BN_MOMENTUM
                self.running_var.data += BN_MOMENTUM * v
            return out
        xhat = (x - self.running_mean.data[None, :]) / np.sqrt(
            self.running_var.data[None, :] + BN_EPS
        )
        return xhat * self.gamma + self.beta


class MLP(Module):
    """MLP over a list of layer widths, e.g. [d_in, h, h, d_out].

    Each hidden layer is Linear -> BatchNorm -> GELU, with a bias-free
    Linear: the norm subtracts the batch mean, which would cancel a bias.
    The final Linear is bare; ``bias=False`` drops its bias too, for an MLP
    whose output reaches a batch norm only through linear maps.
    """

    def __init__(self, widths, rng, bias=True):
        last = len(widths) - 2
        self.layers = [Linear(a, b, rng, bias=bias and i == last)
                       for i, (a, b) in enumerate(zip(widths[:-1], widths[1:]))]
        self.norms = [BatchNorm(b) for b in widths[1:-1]]

    def __call__(self, x: Tensor) -> Tensor:
        for lin, norm in zip(self.layers, self.norms):
            x = norm(lin(x)).gelu()
        return self.layers[-1](x)


class Adam:
    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = ADAM_BETAS
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            mhat = m / (1.0 - b1**self.t)
            vhat = v / (1.0 - b2**self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


class EMA:
    """Exponential moving average of a module's state arrays, with decay
    ``EMA_DECAY``."""

    def __init__(self, module: Module):
        self.shadow = {k: t.data.copy() for k, t in module.state_arrays().items()}

    def update(self, module: Module):
        for k, t in module.state_arrays().items():
            s = self.shadow[k]
            s *= EMA_DECAY
            s += (1.0 - EMA_DECAY) * t.data

    def copy_to(self, module: Module):
        for k, t in module.state_arrays().items():
            t.data[:] = self.shadow[k].reshape(t.data.shape)


# ----------------------------------------------------------------------
# checkpoint format, known to this module only: one file. A text header holds
# the format line, the train record as "key = value" lines, one "name: d0xd1"
# line per array and an empty line; the arrays follow as little-endian
# float64, in header order.

CHECKPOINT_FORMAT = "ncgn checkpoint 1"  # first line of every checkpoint
_ARRAY_LINE = re.compile(r"(\S+): ((?:\d+x)*\d+)?")


def save_checkpoint(path, arrays, record):
    """Write ``arrays`` (name -> numpy array or Tensor) and the train
    ``record`` (key -> value) to ``path``."""
    data = {name: np.asarray(arr.data if isinstance(arr, Tensor) else arr, dtype="<f8")
            for name, arr in arrays.items()}
    header = [CHECKPOINT_FORMAT]
    header += [f"{key} = {value}" for key, value in record.items()]
    header += [f"{name}: {'x'.join(map(str, a.shape))}" for name, a in data.items()]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n\n").encode())
        for a in data.values():
            fh.write(a.tobytes())


def load_checkpoint(path):
    """``(arrays, record)`` of a file written by ``save_checkpoint``; the
    record's values are strings. Raises ValueError naming ``path`` for a
    file without the format line (another version's checkpoint), a payload
    shorter than the header declares, or bytes after the last array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head, _, payload = blob.partition(b"\n\n")
    lines = head.decode("utf-8", "replace").split("\n")
    if lines[0] != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: no {CHECKPOINT_FORMAT!r} line; it was written "
                         f"by another version of ncgn or is not a checkpoint, so "
                         f"the model must be retrained")
    arrays, record, offset = {}, {}, 0
    for ln_no, line in enumerate(lines[1:], start=2):
        key, eq, value = line.partition(" = ")
        if eq:
            record[key] = value
            continue
        match = _ARRAY_LINE.fullmatch(line)
        if match is None:
            raise ValueError(f"{path} header line {ln_no}: expected 'key = value' "
                             f"or 'name: d0xd1', got {line!r}")
        name, dims = match.groups()
        shape = tuple(int(d) for d in dims.split("x")) if dims else ()
        size = 8 * math.prod(shape)
        if offset + size > len(payload):
            raise ValueError(f"{path}: truncated at array {name!r}: the header "
                             f"declares at least {offset + size} payload bytes, "
                             f"the file holds {len(payload)}")
        arrays[name] = np.frombuffer(payload, "<f8", size // 8, offset).reshape(
            shape).astype(np.float64)
        offset += size
    if offset != len(payload):
        raise ValueError(f"{path}: {len(payload) - offset} trailing bytes after "
                         f"the {len(arrays)} arrays the header declares")
    return arrays, record


def load_into(module: Module, arrays):
    """Copy checkpoint ``arrays`` into ``module``'s state arrays.

    Names must match in both directions and shapes exactly; everything is
    checked before anything is written, so a bad checkpoint leaves the
    module untouched. A checkpoint with arrays the module lacks (such as
    the ``.bias`` of a layer that feeds a batch norm, which older layouts
    kept) has another layout: the model must be retrained.
    """
    state = module.state_arrays()
    unknown = [name for name in arrays if name not in state]
    if unknown:
        raise KeyError(f"checkpoint layout differs from the model's "
                       f"(unknown parameter {unknown[0]!r}); the model must "
                       f"be retrained")
    missing = [name for name in state if name not in arrays]
    if missing:
        raise KeyError(f"checkpoint lacks {', '.join(map(repr, missing))}")
    for name, arr in arrays.items():
        if np.shape(arr) != state[name].data.shape:
            raise ValueError(f"shape mismatch for {name!r}: checkpoint "
                             f"{np.shape(arr)}, module {state[name].data.shape}")
    for name, arr in arrays.items():
        state[name].data[:] = arr
    for m in module.modules():
        if isinstance(m, BatchNorm):
            m._initialized = True


__all__ = [
    "Module",
    "Linear",
    "BatchNorm",
    "MLP",
    "Adam",
    "EMA",
    "save_checkpoint",
    "load_checkpoint",
    "load_into",
]
