"""Layers, optimizer, EMA and checkpoint I/O on top of the tensor engine."""

from __future__ import annotations

import struct

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
# checkpoint format: one binary file of little-endian float64 arrays, each
# preceded by a shape header (uint32 ndim, uint32 dims), in manifest order;
# the sidecar <path>.manifest lists "name: d0xd1" per line.


def save_checkpoint(path, arrays):
    """``arrays``: mapping name -> numpy array (or Tensor)."""
    names = list(arrays.keys())
    with open(path, "wb") as fh:
        for name in names:
            arr = arrays[name]
            data = np.asarray(arr.data if isinstance(arr, Tensor) else arr, dtype="<f8")
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(data.tobytes())
    with open(str(path) + ".manifest", "w") as fh:
        for name in names:
            arr = arrays[name]
            data = np.asarray(arr.data if isinstance(arr, Tensor) else arr)
            fh.write(f"{name}: {'x'.join(str(s) for s in data.shape)}\n")


def load_checkpoint(path):
    names = []
    with open(str(path) + ".manifest") as fh:
        for line in fh:
            line = line.strip()
            if line:
                names.append(line.split(":")[0].strip())
    out = {}
    with open(path, "rb") as fh:
        for name in names:
            (ndim,) = struct.unpack("<I", fh.read(4))
            shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim)) if ndim else ()
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape)
            out[name] = data.astype(np.float64)
    return out


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
