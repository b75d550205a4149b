"""Dense-tensor reverse-mode autodiff engine.

Arrays are float64 throughout. Each Tensor op records its parents and a
closure that pushes the upstream gradient back onto them. ``backward``, the
one way to take gradients, walks the recorded graph in reverse topological
order and adds onto each leaf's ``grad``: set it to None first, then read
it; a leaf the loss does not reach keeps None. Broadcasting follows numpy
rules (2-D needs only), with gradients summed back over broadcast axes.
Inside ``with no_grad():`` ops record no parents and no closures, so
inference builds no graph.

``backward`` releases the graph as it walks it. Once a node's closure has
run, the node drops its gradient (unless it is the root), its closure and
its parents, so each forward array is freed as soon as the last node that
needs it is done: a train step never holds two graphs at once. A graph runs
backward once; a second ``backward`` through it raises RuntimeError.
Afterwards only leaves (tensors built with ``requires_grad=True``) and the
root hold a ``grad``.

The first ``backward`` of a process also asks glibc to keep freed pages
(``_keep_freed_pages``): arrays up to 32 MiB come from the heap instead of
fresh mappings, and the heap is never trimmed. Otherwise every step would
return its released graph to the kernel and fault the same pages back in
on the next forward. Processes that take no gradient keep the default
allocator.

Three fused ops stand in for the node-level layers, one node each.
``linear`` is ``x @ weight + bias`` (or ``x @ weight``, without a bias),
with the same float operations forward and backward as the composed form.
``batch_norm`` is batch normalization; its forward repeats the composed
form's operations, so its output is the same bytes, and over batch
statistics its backward is the closed form of Ioffe & Szegedy (2015).
``hidden_layer`` is an MLP hidden layer, ``gelu(batch_norm(x @ weight))``:
it runs that three-op chain's float operations in order, forward and
backward, so every result is the chain's bytes, but keeps only the
normalized input, the Gaussian CDF and its output for the backward.

Scatters (the ``segment_sum`` forward, the ``gather_rows`` backward and the
sums in ``segment_softmax``) multiply by a CSR incidence matrix with one row
per segment and unit weights. Each row adds its entries in index order from
0.0: the same float additions as ``numpy.add.at``, in a fraction of its
time, so results are byte-identical to the ``numpy.add.at`` form. Ids
outside ``[0, n)`` raise ValueError instead of wrapping around.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import threading

import numpy as np

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

LEAKY_SLOPE = 0.2  # conventional GAT negative slope


def _unbroadcast(grad, shape):
    """Sum ``grad`` back down to ``shape`` after a broadcast op."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _check_ids(ids, n):
    """Raise ValueError naming the first id outside ``[0, n)``."""
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        flat = ids.ravel()
        bad = flat[np.argmax((flat < 0) | (flat >= n))]
        raise ValueError(f"id {bad} outside [0, {n})")


def _scatter_add(ids, n, values):
    """``out[i]`` = sum of ``values[j]`` over ``ids[j] == i``, for ``n`` rows.

    ``ids`` is 1-D with one entry per leading row of ``values``. The stable
    argsort keeps each segment's entries in index order, which makes the
    sums equal ``numpy.add.at``'s bit for bit.
    """
    from scipy import sparse

    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(ids, minlength=n), out=indptr[1:])
    incidence = sparse.csr_array(
        (np.ones(ids.size), np.argsort(ids, kind="stable"), indptr),
        shape=(n, ids.size))
    tail = values.shape[1:]
    return (incidence @ values.reshape(ids.size, math.prod(tail))).reshape((n,) + tail)


# glibc mallopt parameters: serve arrays up to 32 MiB from the heap, never
# trim it. 32 MiB is the largest mmap threshold glibc accepts on 64-bit.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_pages_kept = False


def _keep_freed_pages():
    """Once per process, ask glibc to keep the pages a released graph
    frees, so the next forward reuses them instead of faulting fresh ones
    in. Does nothing without a libc that has ``mallopt``."""
    global _pages_kept
    if _pages_kept:
        return
    _pages_kept = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, -1)


def _released(g):
    raise RuntimeError("backward() through a graph that was freed by an "
                       "earlier backward(); run the forward again")


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Ops in the body record no graph (this thread only); leaves built
    with ``requires_grad=True`` keep the flag. The previous mode comes
    back when the body exits, also by an exception."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or (
            _grad_mode.enabled and any(p.requires_grad for p in _parents))
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # backward machinery

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        _keep_freed_pages()
        self.grad = np.ones_like(self.data)
        # consume the list so a released node has no reference left
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node._backward, node._parents = _released, ()
                if node is not self:
                    node.grad = None

    def _accum(self, g):
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    # ------------------------------------------------------------------
    # arithmetic

    @staticmethod
    def _lift(x):
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = Tensor._lift(other)
        out_data = self.data + other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))

        return Tensor(out_data, _parents=(self, other), _backward=bwd)

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor._lift(other)
        out_data = self.data - other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(-g, other.data.shape))

        return Tensor(out_data, _parents=(self, other), _backward=bwd)

    def __rsub__(self, other):
        return Tensor._lift(other) - self

    def __mul__(self, other):
        other = Tensor._lift(other)
        out_data = self.data * other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape))

        return Tensor(out_data, _parents=(self, other), _backward=bwd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._lift(other)
        out_data = self.data / other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accum(
                    _unbroadcast(-g * self.data / other.data**2, other.data.shape)
                )

        return Tensor(out_data, _parents=(self, other), _backward=bwd)

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only scalar exponents supported")
        out_data = self.data**p

        def bwd(g):
            self._accum(g * p * self.data ** (p - 1))

        return Tensor(out_data, _parents=(self,), _backward=bwd)

    def __matmul__(self, other):
        other = Tensor._lift(other)
        out_data = self.data @ other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(g @ other.data.T)
            if other.requires_grad:
                other._accum(self.data.T @ g)

        return Tensor(out_data, _parents=(self, other), _backward=bwd)

    # ------------------------------------------------------------------
    # reductions and reshaping

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            gg = g if axis is None or keepdims else np.expand_dims(g, axis)
            self._accum(np.broadcast_to(gg, self.data.shape))

        return Tensor(out_data, _parents=(self,), _backward=bwd)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        out_data = self.data.reshape(*shape)
        old = self.data.shape

        def bwd(g):
            self._accum(g.reshape(old))

        return Tensor(out_data, _parents=(self,), _backward=bwd)

    def gather_rows(self, idx):
        """Select rows by integer index; duplicates scatter-add on backward."""
        idx = np.asarray(idx, dtype=np.intp)
        n, tail = self.data.shape[0], self.data.shape[1:]
        _check_ids(idx, n)
        out_data = self.data[idx]

        def bwd(g):
            self._accum(_scatter_add(idx.ravel(), n, g.reshape((idx.size,) + tail)))

        return Tensor(out_data, _parents=(self,), _backward=bwd)

    # ------------------------------------------------------------------
    # elementwise nonlinearities

    def sigmoid(self):
        from scipy.special import expit

        out_data = expit(self.data)

        def bwd(g):
            self._accum(g * out_data * (1.0 - out_data))

        return Tensor(out_data, _parents=(self,), _backward=bwd)

    def gelu(self):
        # exact Gaussian-CDF form; derivative at 0 is exactly 0.5
        from scipy.special import erf

        phi = 0.5 * (1.0 + erf(self.data / SQRT2))
        out_data = self.data * phi

        def bwd(g):
            pdf = INV_SQRT_2PI * np.exp(-0.5 * self.data**2)
            self._accum(g * (phi + self.data * pdf))

        return Tensor(out_data, _parents=(self,), _backward=bwd)

    def leaky_relu(self, slope=LEAKY_SLOPE):
        pos = self.data >= 0
        out_data = np.where(pos, self.data, slope * self.data)

        def bwd(g):
            self._accum(g * np.where(pos, 1.0, slope))

        return Tensor(out_data, _parents=(self,), _backward=bwd)


def concat(tensors, axis=1):
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        parts = np.split(g, splits, axis=axis)
        for t, p in zip(tensors, parts):
            if t.requires_grad:
                t._accum(p)

    return Tensor(out_data, _parents=tuple(tensors), _backward=bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    """``x @ weight + bias`` as one node, for N x d_in ``x``, d_in x d_out
    ``weight`` and length-d_out ``bias``; ``bias=None`` gives ``x @ weight``.
    Forward and backward are the same float operations as the composed
    matmul (and add)."""
    out_data = x.data @ weight.data
    if bias is not None:
        out_data += bias.data

    def bwd(g):
        if x.requires_grad:
            x._accum(g @ weight.data.T)
        if weight.requires_grad:
            weight._accum(x.data.T @ g)
        if bias is not None and bias.requires_grad:
            bias._accum(g.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor(out_data, _parents=parents, _backward=bwd)


def _normalize(h, eps, stats):
    """``(xhat, std, mean, var)`` for the N x C array ``h``: normalized over
    its rows with their mean and biased variance, or with ``stats``, a
    ``(mean, var)`` pair of length-C arrays, when given. ``std`` is 1 x C."""
    if stats is not None:
        mean, var = stats
        std = np.sqrt(var[None, :] + eps)
        return (h - mean[None, :]) / std, std, mean, var
    inv_n = 1.0 / h.shape[0]
    mu = h.sum(axis=0, keepdims=True) * inv_n
    centered = h - mu
    var = (centered**2).sum(axis=0, keepdims=True) * inv_n
    std = (var + eps) ** 0.5
    return centered / std, std, mu.ravel(), var.ravel()


def _normalize_backward(g, xhat, std, gamma, beta, batch_stats, wants_input):
    """Push the gradient ``g`` of ``xhat * gamma + beta`` onto ``gamma`` and
    ``beta``; return the gradient of the normalized input when
    ``wants_input``, else None. Over batch statistics it is the closed form
    ``(gg - mean(gg) - xhat * mean(gg * xhat)) / std`` with ``gg = g *
    gamma``; with fixed statistics it is ``gg / std``."""
    if gamma.requires_grad:
        gamma._accum((g * xhat).sum(axis=0))
    if beta.requires_grad:
        beta._accum(g.sum(axis=0))
    if not wants_input:
        return None
    gg = g * gamma.data
    if not batch_stats:
        return gg / std
    inv_n = 1.0 / g.shape[0]
    return (gg - gg.sum(axis=0) * inv_n
            - xhat * ((gg * xhat).sum(axis=0) * inv_n)) / std


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float, stats=None):
    """Batch normalization ``(x - mean) / (var + eps) ** 0.5 * gamma + beta``
    of the N x C ``x`` as one node. The statistics are those of ``x``'s rows
    (train mode), or ``stats``, a ``(mean, var)`` pair of length-C arrays
    (eval mode with running statistics). Returns (output, mean, var), the
    last two as length-C arrays.

    The forward is the composed form operation for operation. Over batch
    statistics the backward is the closed form of ``_normalize_backward``.
    """
    xhat, std, mean, var = _normalize(x.data, eps, stats)
    out_data = xhat * gamma.data + beta.data

    def bwd(g):
        dx = _normalize_backward(g, xhat, std, gamma, beta, stats is None,
                                 x.requires_grad)
        if dx is not None:
            x._accum(dx)

    out = Tensor(out_data, _parents=(x, gamma, beta), _backward=bwd)
    return out, mean, var


def hidden_layer(x: Tensor, weight: Tensor, gamma: Tensor, beta: Tensor,
                 eps: float, stats=None):
    """An MLP hidden layer, ``gelu(batch_norm(x @ weight))``, as one node;
    ``stats`` and the return value are those of ``batch_norm``.

    Forward and backward run the float operations of ``linear(x, weight,
    None)``, ``batch_norm`` and ``Tensor.gelu`` in the same order, so every
    result is the bytes of that chain. The node keeps the
    normalized ``xhat``, the Gaussian CDF and its output; the backward
    recomputes the pre-activation ``xhat * gamma + beta``.
    """
    from scipy.special import erf

    xhat, std, mean, var = _normalize(x.data @ weight.data, eps, stats)
    pre = xhat * gamma.data + beta.data
    phi = 0.5 * (1.0 + erf(pre / SQRT2))
    out_data = pre * phi

    def bwd(g):
        pre = xhat * gamma.data + beta.data
        pdf = INV_SQRT_2PI * np.exp(-0.5 * pre**2)
        dh = _normalize_backward(g * (phi + pre * pdf), xhat, std, gamma, beta,
                                 stats is None,
                                 x.requires_grad or weight.requires_grad)
        if x.requires_grad:
            x._accum(dh @ weight.data.T)
        if weight.requires_grad:
            weight._accum(x.data.T @ dh)

    out = Tensor(out_data, _parents=(x, weight, gamma, beta), _backward=bwd)
    return out, mean, var


def segment_sum(values: Tensor, segment_ids, num_segments) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets."""
    values = Tensor._lift(values)
    seg = np.asarray(segment_ids, dtype=np.intp)
    if seg.ndim != 1 or seg.shape[0] != values.data.shape[0]:
        raise ValueError("segment_ids must be 1-D with one entry per row")
    _check_ids(seg, num_segments)
    out_data = _scatter_add(seg, num_segments, values.data)

    def bwd(g):
        values._accum(g[seg])

    return Tensor(out_data, _parents=(values,), _backward=bwd)


def segment_softmax(logits: Tensor, segment_ids) -> Tensor:
    """Softmax normalized independently within each segment.

    ``logits`` is 1-D; segment ids need not be sorted. An id that appears
    once yields weight 1. Ids present in ``segment_ids`` define the segments;
    empty segments cannot arise by construction.
    """
    logits = Tensor._lift(logits)
    if logits.data.ndim != 1:
        raise ValueError("segment_softmax expects 1-D logits")
    seg = np.asarray(segment_ids, dtype=np.intp)
    if seg.shape != logits.data.shape:
        raise ValueError("logits and segment_ids must have the same length")
    if seg.size == 0:
        raise ValueError("empty segment list")
    nseg = int(seg.max()) + 1
    _check_ids(seg, nseg)
    # stabilize with a per-segment max
    seg_max = np.full(nseg, -np.inf)
    np.maximum.at(seg_max, seg, logits.data)
    shifted = np.exp(logits.data - seg_max[seg])
    denom = _scatter_add(seg, nseg, shifted)
    out_data = shifted / denom[seg]

    def bwd(g):
        dot = _scatter_add(seg, nseg, g * out_data)
        logits._accum(out_data * (g - dot[seg]))

    return Tensor(out_data, _parents=(logits,), _backward=bwd)

