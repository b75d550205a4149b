"""Dense-tensor reverse-mode autodiff engine.

Arrays are float64 throughout. A ``Tensor`` is a value (``data``) and, when
it requires grad, a graph node (``_Node``): its gradient, the nodes of the
op inputs that require grad, and a closure that pushes the upstream
gradient back onto them. Leaves built with ``requires_grad=True`` get a
node with neither; a tensor that requires no grad has no node at all.
``backward``, the one way to take gradients, walks the nodes in reverse
topological order and adds onto each leaf's ``grad``: set it to None
first, then read it; a leaf the loss does not reach keeps None.
Broadcasting follows numpy rules (2-D needs only), with gradients summed
back over broadcast axes. Inside ``with no_grad():`` ops build no nodes,
so inference builds no graph.

Each closure captures only the arrays and shapes its backward reads, never
a ``Tensor``: ``*``, ``@`` and ``segment_sum`` keep only the operands the
other side's gradient reads, while ``+``, ``-``, ``concat``,
``gather_rows``, ``reshape`` and ``sum`` keep no input array. So an
interior value is freed as soon as the forward code drops its tensor,
unless a later op's backward reads it; the graph holds nodes, not values.

``backward`` releases the graph as it walks it. Once a node's closure has
run, the node drops its gradient (unless it is the root), its closure (and
with it the arrays it saved) and its parents: a train step never holds two
graphs at once. A graph runs backward once; a second ``backward`` through
it raises RuntimeError. Afterwards only leaves and the root hold a
``grad``. Gradients are read-only values, shared and never copied: a node
keeps the first gradient it receives as it is, even when its closure's
node or a sibling holds the same array (``+`` and ``-`` hand the upstream
gradient on, ``reshape``, ``sum`` and ``concat`` views of it), and a later
one replaces it by the sum. A write into a gradient raises ValueError
instead of changing another node's array.

``backward`` calls no allocator function; the allocator policy is one
context manager, ``freed_pages_kept``, and ``engine.train`` holds it
around its loop. Inside it glibc keeps freed pages: arrays up to 32 MiB
come from the heap instead of fresh mappings, and the heap is not trimmed,
so a step does not return its released graph to the kernel only to fault
the same pages back in on the next forward. Threads started afterwards
share that heap (one arena). When the loop ends, also by an exception, the
free pages go back to the kernel (``malloc_trim(0)``): sampling and
evaluation then run on the live set, not on top of the loop's free heap,
whose chunks are too small for a W2 cost matrix. Processes that never
train keep the default allocator.

One fused op, ``mlp``, runs a whole MLP as one node: every hidden layer
is the matmul ``x @ w``, batch normalization and GELU, then the output
linear ``x @ weight + bias``; an MLP with no hidden layer is a linear map.
Its input is given as blocks, and the first weight multiplies them block
by block, summed in block order, so the concatenated input and the pair
encodings are never formed. It runs the float operations of that
block-wise per-layer chain in order, forward and backward, so every result
is that chain's bytes, not those of concatenating the blocks first.
Gradients are taken over batch statistics only, where the normalization's
backward is the closed form of Ioffe & Szegedy (2015); running statistics
are for inference only, so ``mlp`` takes them only under ``no_grad()``. It
keeps the input blocks' arrays, except a block given with a function that
rebuilds it, and per hidden layer only its length-C mean and std. Its
backward takes one route through every hidden layer
(recompute as in Chen et al. 2016, from what batch norm keeps anyway as
in Rota Bulò et al. 2018): bottom-up it rebuilds such a block and re-runs
each layer's product, keeping only the products, and top down it
rebuilds each layer's normalized input, Gaussian CDF and output from its
product a row block at a time. A second
fused op, ``gated_blend``, is DMP's gate ``lam * a + (1 - lam) * b`` with
``lam`` the sigmoid of its logits: one node with the bytes of the chain of
primitive ops it replaces, and a function that blends its output again,
so a consumer need not keep it. Its logits may come as a rebuilt block,
as ``mlp``'s input may; the node keeps no ``lam``, and the blend's rebuild
and the backward each take it from the rebuilt logits a row block at a
time. A hidden layer's
elementwise steps, forward and backward, run over row blocks of 1,024 to
2,047 rows (loop tiling, Wolf & Lam 1991), so a chain of them reads each
block from a core's L2 instead of streaming the whole N x C array once
per step; its column sums are ``np.einsum``, which adds the rows in order
as ``sum(axis=0)`` does without the strided walk or a product array. Both
leave every byte as the whole-array chain computes it.

Every gather and scatter goes through a ``SparsePlan``, a sparse matrix
given by its (row, column) entries that builds its CSR layout once and
keeps it. ``segment_sum``, one node per call, sums the rows of ``x`` into
the plan's rows, each entry scaled by its weight or not; ``gather_rows``
picks row ``rows[j]`` for entry j and adds its gradient back by the plan's
scatter matrix; the two sums of ``segment_softmax`` multiply by a plan's
matrix too. No op builds a plan: the plans' owner builds each once
(``dmp.Structure`` those of a forward pass), and every product and
backward that uses a plan shares its layout and that of its transpose,
each built once. Rows add their entries in entry order from 0.0, the
float additions of ``numpy.add.at``, so every sum is its bytes, and a
weighted product and its gradients are the bytes of the gather, scale and
``numpy.add.at`` chain it replaces, without that chain's arrays of one row
per entry (Fey & Lenssen 2019 aggregate by a sparse-dense product in the
same way). Ids outside a plan's shape raise ValueError instead of wrapping
around.
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
BN_EPS = 1e-5  # variance floor of every batch norm


def _unbroadcast(grad, shape):
    """Sum ``grad`` back down to ``shape`` after a broadcast op. Returns
    ``grad`` itself when it already has that shape, else a new array."""
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


class SparsePlan:
    """The sparse matrix A of ``segment_sum`` and ``gather_rows``, given by
    its entries: entry j puts a weight at ``(rows[j], cols[j])`` of the
    ``shape[0] x shape[1]`` matrix. Ids outside the shape raise ValueError
    naming the first one.

    Built once, a plan serves any number of products and gathers. It
    builds A's CSR layout (``indptr``, each row's entries in entry order,
    and their column ids) on first use and keeps it, and its unit-weight
    and scatter matrices once built. ``T`` is the plan of A's transpose
    (each column's entries in entry order); ``segment_sum``'s backward
    holds ``T`` alone, so A's layout goes with the plan once the forward
    drops it, and the first backward builds ``T``'s.
    """

    __slots__ = ("rows", "cols", "shape", "_layout", "_unit", "_scatter", "_transpose")

    def __init__(self, rows, cols, shape):
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        if self.rows.ndim != 1 or self.rows.shape != self.cols.shape:
            raise ValueError(f"rows and cols must be 1-D of one length, got "
                             f"shapes {self.rows.shape} and {self.cols.shape}")
        self.shape = (int(shape[0]), int(shape[1]))
        _check_ids(self.rows, self.shape[0])
        _check_ids(self.cols, self.shape[1])
        self._layout = self._unit = self._scatter = self._transpose = None

    def _csr(self):
        """``(indptr, order, column ids)`` of A's CSR form."""
        if self._layout is None:
            indptr = np.zeros(self.shape[0] + 1, dtype=np.intp)
            np.cumsum(np.bincount(self.rows, minlength=self.shape[0]),
                      out=indptr[1:])
            order = np.argsort(self.rows, kind="stable")
            self._layout = (indptr, order, self.cols[order])
        return self._layout

    @property
    def indptr(self) -> np.ndarray:
        return self._csr()[0]

    @property
    def T(self) -> SparsePlan:
        if self._transpose is None:
            self._transpose = SparsePlan(self.cols, self.rows, self.shape[::-1])
        return self._transpose

    def matrix(self, weights=None):
        """A as a scipy CSR array whose entry j holds ``weights[j]``, 1.0
        for ``weights=None``."""
        from scipy import sparse

        indptr, order, indices = self._csr()
        if weights is not None:
            return sparse.csr_array((weights[order], indices, indptr),
                                    shape=self.shape)
        if self._unit is None:
            self._unit = sparse.csr_array((np.ones(order.size), indices, indptr),
                                          shape=self.shape)
        return self._unit

    def scatter(self):
        """The unit CSR matrix with entry j at ``(rows[j], j)``: it adds a
        gather's gradient rows onto rows ``rows``, in entry order."""
        if self._scatter is None:
            from scipy import sparse

            indptr, order, _ = self._csr()
            self._scatter = sparse.csr_array((np.ones(order.size), order, indptr),
                                             shape=(self.shape[0], order.size))
        return self._scatter


# glibc mallopt parameters: serve arrays up to 32 MiB from the heap, never
# trim it, and give every thread that one heap. 32 MiB is the largest mmap
# threshold glibc accepts on 64-bit.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_MMAP_THRESHOLD_BYTES = 32 << 20
_trim = None  # malloc_trim once looked up, False without it


@contextlib.contextmanager
def freed_pages_kept():
    """Keep the pages a released graph frees while the body runs, and hand
    the free ones back to the kernel when it ends, also when it raises.

    On the first entry of a process glibc's ``mallopt`` is set to serve
    arrays up to 32 MiB from the heap and never trim it, so each train step
    reuses the pages the last one freed instead of faulting fresh ones in;
    it also serves later threads (``engine.evaluate_w2``'s pool) from that
    one heap instead of new arenas. glibc applies the arena limit when a
    thread picks its arena, so it covers threads started after the first
    entry, not those already running. On every exit ``malloc_trim(0)``
    returns the heap's free pages, so what runs afterwards starts from the
    live set, not from the train loop's high-water mark. Does nothing
    without a libc that has both ``mallopt`` and ``malloc_trim``."""
    global _trim
    if _trim is None:
        _trim = False
        try:
            libc = ctypes.CDLL(None)
            mallopt, trim = libc.mallopt, libc.malloc_trim
        except (OSError, AttributeError):
            pass
        else:
            mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            mallopt.restype = ctypes.c_int
            trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
            mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
            mallopt(_M_TRIM_THRESHOLD, -1)
            mallopt(_M_ARENA_MAX, 1)
            _trim = trim
    try:
        yield
    finally:
        if _trim:
            _trim(0)


def _released(g):
    raise RuntimeError("backward() through a graph that was freed by an "
                       "earlier backward(); run the forward again")


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Ops in the body build no graph nodes (this thread only); leaves
    built with ``requires_grad=True`` keep their node. The previous mode
    comes back when the body exits, also by an exception."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


class _Node:
    """A graph node: the gradient ``backward`` accumulates, the nodes of
    the op's inputs that require grad (``parents``) and the closure that
    pushes a gradient onto them (``backward``). A leaf has neither."""

    __slots__ = ("grad", "parents", "backward", "__weakref__")

    def __init__(self, parents=(), backward=None):
        self.grad = None
        self.parents = parents
        self.backward = backward

    def accum(self, g):
        """Take ``g`` as the first gradient, or replace the gradient by
        ``self.grad + g`` for a later one. The gradient is stored
        read-only: other nodes may share its array, so a write into it
        raises ValueError."""
        g = np.asarray(g if self.grad is None else self.grad + g)
        g.flags.writeable = False
        self.grad = g


def _result(data, parents, backward):
    """The Tensor of an op's output ``data``. It gets a node with the
    closure ``backward`` when grad mode is on and some input requires grad;
    ``parents`` holds the inputs' nodes, None for an input without one."""
    out = Tensor(data)
    if _grad_mode.enabled:
        nodes = tuple(p for p in parents if p is not None)
        if nodes:
            out._node = _Node(nodes, backward)
    return out


class Tensor:
    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node = _Node() if requires_grad else None

    @property
    def requires_grad(self):
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        self._node.grad = value

    @property
    def _backward(self):
        """The node's closure, None without a node; settable, so a tracer
        can wrap it."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, closure):
        self._node.backward = closure

    # ------------------------------------------------------------------
    # backward machinery

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        root = self._node
        if root is None:
            raise RuntimeError("backward() of a tensor that requires no grad")
        topo = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        root.grad = None  # a leaf root takes ones, not ones plus its last grad
        root.accum(np.ones_like(self.data))
        # consume the list so a released node has no reference left
        while topo:
            node = topo.pop()
            if node.backward is not None:
                node.backward(node.grad)
                node.backward, node.parents = _released, ()
                if node is not root:
                    node.grad = None

    # ------------------------------------------------------------------
    # arithmetic

    @staticmethod
    def _lift(x):
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = Tensor._lift(other)
        a, b = self._node, other._node
        sa, sb = self.data.shape, other.data.shape

        def bwd(g):
            if a is not None:
                a.accum(_unbroadcast(g, sa))
            if b is not None:
                b.accum(_unbroadcast(g, sb))

        return _result(self.data + other.data, (a, b), bwd)

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor._lift(other)
        a, b = self._node, other._node
        sa, sb = self.data.shape, other.data.shape

        def bwd(g):
            if a is not None:
                a.accum(_unbroadcast(g, sa))
            if b is not None:
                b.accum(_unbroadcast(-g, sb))

        return _result(self.data - other.data, (a, b), bwd)

    def __mul__(self, other):
        other = Tensor._lift(other)
        a, b = self._node, other._node
        sa, sb = self.data.shape, other.data.shape
        # each operand is kept only for the other side's gradient
        x = self.data if b is not None else None
        y = other.data if a is not None else None

        def bwd(g):
            if a is not None:
                a.accum(_unbroadcast(g * y, sa))
            if b is not None:
                b.accum(_unbroadcast(g * x, sb))

        return _result(self.data * other.data, (a, b), bwd)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = Tensor._lift(other)
        a, b = self._node, other._node
        x = self.data if b is not None else None
        y = other.data if a is not None else None

        def bwd(g):
            if a is not None:
                a.accum(g @ y.T)
            if b is not None:
                b.accum(x.T @ g)

        return _result(self.data @ other.data, (a, b), bwd)

    # ------------------------------------------------------------------
    # reductions and reshaping

    def sum(self, axis=None, keepdims=False):
        a, shape = self._node, self.data.shape

        def bwd(g):
            gg = g if axis is None or keepdims else np.expand_dims(g, axis)
            a.accum(np.broadcast_to(gg, shape))

        return _result(self.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        a, old = self._node, self.data.shape

        def bwd(g):
            a.accum(g.reshape(old))

        return _result(self.data.reshape(*shape), (a,), bwd)

    def gather_rows(self, plan: SparsePlan):
        """Row j of the output is row ``plan.rows[j]``, of ``plan.shape[0]``
        rows; the backward adds the gradient back by ``plan.scatter()``, so
        duplicates sum in entry order."""
        a, shape = self._node, self.data.shape
        if shape[:1] != plan.shape[:1]:
            raise ValueError(f"gather_rows over a plan of {plan.shape[0]} rows "
                             f"needs {plan.shape[0]} rows, got shape {shape}")
        width = math.prod(shape[1:])

        def bwd(g):
            g = g.reshape(plan.rows.size, width)
            a.accum((plan.scatter() @ g).reshape(shape))

        return _result(self.data[plan.rows], (a,), bwd)

    # ------------------------------------------------------------------
    # elementwise nonlinearities

    def gelu(self):
        # exact Gaussian-CDF form; derivative at 0 is exactly 0.5
        from scipy.special import erf

        a, x = self._node, self.data
        phi = 0.5 * (1.0 + erf(x / SQRT2))

        def bwd(g):
            pdf = INV_SQRT_2PI * np.exp(-0.5 * x**2)
            a.accum(g * (phi + x * pdf))

        return _result(x * phi, (a,), bwd)

    def leaky_relu(self):
        a, pos = self._node, self.data >= 0

        def bwd(g):
            a.accum(g * np.where(pos, 1.0, LEAKY_SLOPE))

        return _result(np.where(pos, self.data, LEAKY_SLOPE * self.data), (a,),
                       bwd)


def concat(tensors, axis=1):
    tensors = [Tensor._lift(t) for t in tensors]
    nodes = [t._node for t in tensors]
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def bwd(g):
        for node, part in zip(nodes, np.split(g, splits, axis=axis)):
            if node is not None:
                node.accum(part)

    return _result(np.concatenate([t.data for t in tensors], axis=axis),
                   nodes, bwd)


_ROW_BLOCK = 1024  # rows per block of an elementwise pass over an N-row array


def _row_blocks(n):
    """The row slices of ``k = max(1, n // _ROW_BLOCK)`` near-equal blocks
    covering ``[0, n)`` in order, the last one the longest: one block below
    ``2 * _ROW_BLOCK`` rows, else blocks of ``_ROW_BLOCK`` to ``2 *
    _ROW_BLOCK - 1`` rows. A hidden layer's arrays at 32 columns then take
    a few hundred KB per block, so a chain of elementwise steps reads each
    block from a core's L2. Splitting near-equally leaves no short
    remainder block to pay a whole chain's per-call cost for a few rows:
    the sampler's 1,024- and 1,056-row arrays run as one block."""
    k = max(1, n // _ROW_BLOCK)
    return [slice(i * n // k, (i + 1) * n // k) for i in range(k)]


def _block_scratch(blocks, c, count):
    """``count`` uninitialized arrays of the longest of ``blocks``' rows by
    ``c`` columns, stacked: the temporaries of a blocked pass, written
    again for every block so they stay in cache."""
    return np.empty((count, blocks[-1].stop - blocks[-1].start, c))


def _column_sum(a, b=None, scale=None):
    """The column sums of the N x C array ``a`` (of ``a * b``), adding the
    rows in order from 0.0: the bytes of ``a.sum(axis=0)`` (``(a *
    b).sum(axis=0)``). With ``scale``, a length-C array, they are those of
    ``a * scale`` (``a * scale * b``), multiplied in that order.
    ``np.einsum`` adds them in that order without the product array and
    reads each row once, where numpy's reduction walks the columns with a
    stride. Numpy adds one column, or columns laid out along the rows (a
    transpose, a broadcast), in another order, so those take numpy's own
    form."""
    operands = (a,) if b is None else (a, b)
    if a.shape[1] > 1 and all(x.strides[1] == x.itemsize
                              and abs(x.strides[0]) >= x.shape[1] * x.itemsize
                              for x in operands):
        if scale is None:
            return np.einsum("ij,ij->j" if b is not None else "ij->j", *operands)
        return np.einsum("ij,j,ij->j" if b is not None else "ij,j->j",
                         a, scale, *operands[1:])
    prod = a if scale is None else a * scale
    return prod.sum(axis=0) if b is None else (prod * b).sum(axis=0)


def _normalize_backward(g, xhat, std, gamma, gamma_node, beta_node):
    """Push the gradient ``g`` of ``xhat * gamma + beta`` onto the nodes of
    ``gamma`` (the array) and ``beta`` (None for no grad) and return the
    gradient of the layer's product, written into ``g``: over the batch
    statistics ``xhat`` was normalized with, the closed form ``(gg -
    mean(gg) - xhat * mean(gg * xhat)) / std`` with ``gg = g * gamma``,
    whose means scale ``g`` by ``gamma`` as they sum it. Its elementwise
    steps run one row block at a time."""
    if gamma_node is not None:
        gamma_node.accum(_column_sum(g, xhat))
    if beta_node is not None:
        beta_node.accum(_column_sum(g))
    inv_n = 1.0 / g.shape[0]
    mean_gg = _column_sum(g, scale=gamma) * inv_n
    mean_prod = _column_sum(g, xhat, gamma) * inv_n
    blocks = _row_blocks(g.shape[0])
    scratch, = _block_scratch(blocks, g.shape[1], 1)
    for rows in blocks:
        gg = g[rows]
        gg *= gamma
        gg -= mean_gg
        gg -= np.multiply(xhat[rows], mean_prod,
                          out=scratch[:rows.stop - rows.start])
        gg /= std
    return g


def _blocks_product(parts, w):
    """A layer's input blocks times its weight ``w``: the sum, in order, of
    ``array @ w[rows]`` over the ``(array, v, rows)`` triples of ``parts``,
    or of ``array @ (v @ w[rows])`` for a pair (``v`` not None). The
    products after the first share one scratch array."""
    out = scratch = None
    for a, v, rows in parts:
        u = w[rows] if v is None else v @ w[rows]
        if out is None:
            out = a @ u
            continue
        if scratch is None:
            scratch = np.empty_like(out)
        out += np.matmul(a, u, out=scratch)
    return out


def _gaussian_cdf(pre, out):
    """Write the Gaussian CDF ``0.5 * (1.0 + erf(pre / SQRT2))`` of ``pre``
    into ``out``, an array of its shape, and return ``out``. erf is odd, so
    it runs on ``|pre / SQRT2|`` and takes ``pre``'s sign back: the same
    bytes as the signed call (``tests/test_tensor.py`` checks them), without
    the sign branch inside erf that a half-negative input mispredicts."""
    from scipy.special import erf

    np.divide(pre, SQRT2, out=out)
    np.abs(out, out=out)
    erf(out, out=out)
    np.copysign(out, pre, out=out)
    out += 1.0
    out *= 0.5
    return out


def _activate(x, std, gamma, beta):
    """Overwrite ``x``, a hidden layer's product less its mean, with the
    layer's output and return it: the GELU of the pre-activation ``x / std
    * gamma + beta``, the pre-activation times its Gaussian CDF
    (``_gaussian_cdf``). Each row block writes its CDF into one block of
    scratch, so no N-row pre-activation or CDF is made."""
    blocks = _row_blocks(x.shape[0])
    cdf_scratch, = _block_scratch(blocks, x.shape[1], 1)
    for rows in blocks:
        pre = x[rows]
        pre /= std
        pre *= gamma
        pre += beta
        pre *= _gaussian_cdf(pre, cdf_scratch[:rows.stop - rows.start])
    return x


def _hidden_forward(parts, w, gamma, beta, stats):
    """One MLP hidden layer on arrays, over the input blocks ``parts``:
    ``(out, std, mean, var)``. The product ``h = _blocks_product(parts,
    w)`` is normalized, ``xhat = (h - mean) / std`` with ``std = (var +
    BN_EPS) ** 0.5``, over its rows with their mean and biased variance, or
    with ``stats``, a ``(mean, var)`` pair of length-C arrays, when given;
    ``out`` is its GELU (``_activate``). The statistics are whole-array
    column sums; ``h``'s array, less its mean, ends up holding ``out``."""
    h = _blocks_product(parts, w)
    if stats is not None:
        mean, var = stats
        h -= mean
        std = np.sqrt(var + BN_EPS)
    else:
        if h.shape[0] < 1:
            raise ValueError("batch norm needs at least one row to normalize over")
        inv_n = 1.0 / h.shape[0]
        mean = _column_sum(h) * inv_n
        h -= mean
        var = _column_sum(h, h) * inv_n
        std = (var + BN_EPS) ** 0.5
    return _activate(h, std, gamma, beta), std, mean, var


def _gelu_backward(g, h, mean, std, gamma, beta):
    """Multiply ``g``, the gradient of a hidden layer's output, in place by
    GELU's derivative ``phi + pre * pdf`` and return the output ``pre *
    phi``. ``h`` is the layer's product: each row block first normalizes it
    in place into ``xhat = (h - mean) / std``, then rebuilds the
    pre-activation ``pre = xhat * gamma + beta`` in the output's rows and
    its Gaussian CDF ``phi`` (``_gaussian_cdf``) in a block of scratch, with
    the forward's float operations, so no N-row pre-activation or CDF is
    made."""
    out = np.empty_like(g)
    blocks = _row_blocks(g.shape[0])
    dpre_scratch, cdf_scratch = _block_scratch(blocks, g.shape[1], 2)
    for rows in blocks:
        xhat, m = h[rows], rows.stop - rows.start
        xhat -= mean
        xhat /= std
        pre = np.multiply(xhat, gamma, out=out[rows])
        pre += beta
        cdf = _gaussian_cdf(pre, cdf_scratch[:m])
        dpre = np.square(pre, out=dpre_scratch[:m])
        dpre *= -0.5
        np.exp(dpre, out=dpre)
        dpre *= INV_SQRT_2PI
        dpre *= pre
        dpre += cdf
        g[rows] *= dpre
        pre *= cdf
    return out


def mlp(blocks, hidden, weight: Tensor, bias: Tensor | None, stats=None):
    """A whole MLP as one node: one hidden layer per ``(w, gamma, beta)``
    triple of ``hidden``, the GELU of the batch normalization ``(x @ w -
    mean) / (var + BN_EPS) ** 0.5 * gamma + beta``, then the output linear
    ``x @ weight + bias`` (``x @ weight`` for ``bias=None``). Returns
    ``(out, moments)``, ``moments`` holding each hidden layer's ``(mean,
    var)`` as length-C arrays.

    The input is the column concatenation of ``blocks``, whose widths must
    add up to the first weight's rows (ValueError otherwise). A block is a
    Tensor, an ``(array, w)`` pair of a constant array and a Tensor that
    stands for ``array @ w``, or a ``(tensor, rebuild)`` pair: a Tensor whose
    array the node does not keep, and a function of no arguments that
    returns a new array of that array's bytes. The backward calls
    ``rebuild`` once, before it re-runs the first product, and drops the
    array when it is done; the Tensor's node is a parent as for a Tensor
    block, so gradients reach the graph in the same order. Each hidden
    layer normalizes over the batch's rows, or with its ``(mean, var)``
    entry of ``stats``, length-C arrays (``nn.inference()``'s running
    statistics). Gradients are taken over batch statistics only (Ioffe &
    Szegedy 2015), so ``stats`` with grad mode on raises ValueError, before
    any node exists.

    The first weight W (the first hidden layer's, or ``weight`` with no
    hidden layer) multiplies the input block by block: ``x @ W[rows]`` for
    a Tensor block, ``array @ (w @ W[rows])`` for a pair, summed in block
    order. So neither the concatenation nor a pair's ``array @ w`` is
    formed, forward or backward. Forward and backward run the float
    operations of that chain of primitive ops (then per hidden layer batch
    normalization, ``Tensor.gelu`` and the next matmul, then the bias add)
    in the same order, so every result is that chain's bytes, not those of
    concatenating first; the Gaussian CDF is ``_gaussian_cdf``'s, the
    bytes of ``Tensor.gelu``'s.

    The node keeps the blocks' arrays (a rebuilt block's only as its
    ``rebuild``) and, per hidden layer, only its length-C ``mean`` and
    ``std``: no ``xhat``, no Gaussian CDF and no hidden output. Its
    backward rebuilds them from the blocks with the forward's float
    operations (recompute as in Chen et al. 2016), so they are the
    forward's bytes, and every hidden layer takes one route. Bottom-up it
    re-runs each layer's product and keeps only the product; a lower
    layer's output, the next product's input, is rebuilt by the forward's
    kernel (``_activate``) and lives only while that product is made. Then,
    top down, ``_gelu_backward`` normalizes each product into ``xhat`` and
    rebuilds the layer's Gaussian CDF and output a row block at a time, for
    GELU's derivative and the weight above's gradient. So a layer below the
    top builds its CDF twice in the backward, and no layer keeps one. Every
    elementwise step runs over row blocks (``_row_blocks``) and every
    column sum is ``_column_sum``, rows added in order: neither moves a
    byte of the results.
    """
    if stats is not None and _grad_mode.enabled:
        raise ValueError("mlp: running statistics (stats) are for inference "
                         "only; run the forward under no_grad()")
    parts, block_nodes, rebuilds, start = [], [], [], 0
    for b in blocks:
        rebuild = None
        if isinstance(b, Tensor):
            a, v, node = b.data, None, b._node
        elif isinstance(b[0], Tensor):
            (a, v, node), rebuild = (b[0].data, None, b[0]._node), b[1]
        else:
            a, v, node = np.asarray(b[0], dtype=np.float64), b[1].data, b[1]._node
        stop = start + (a if v is None else v).shape[1]
        parts.append((a, v, slice(start, stop)))
        block_nodes.append(node)
        rebuilds.append(rebuild)
        start = stop
    first = hidden[0][0] if hidden else weight
    if start != first.data.shape[0]:
        raise ValueError(f"mlp input blocks are {start} columns wide, the "
                         f"first weight has {first.data.shape[0]} rows")
    inputs, saved, moments = parts, [], []
    for k, (w, gamma, beta) in enumerate(hidden):
        x, std, mean, var = _hidden_forward(
            inputs, w.data, gamma.data, beta.data,
            None if stats is None else stats[k])
        inputs = [(x, None, slice(None))]
        saved.append((mean, std))
        moments.append((mean, var))
    out_data = _blocks_product(inputs, weight.data)
    if bias is not None:
        out_data += bias.data
    bias_node = None if bias is None else bias._node
    parents = block_nodes + [t._node for triple in hidden for t in triple]
    parents += [weight._node, bias_node]

    layers = [(w.data, w._node) for w, _, _ in hidden] + [(weight.data, weight._node)]
    norms = [(gamma.data, beta.data, gamma._node, beta._node)
             for _, gamma, beta in hidden]
    # a rebuilt block's array is not kept
    kept = [(a if rebuild is None else None, v, rows)
            for (a, v, rows), rebuild in zip(parts, rebuilds)]

    def bwd(g):
        if bias_node is not None:
            bias_node.accum(_column_sum(g))
        parts = [(a if rebuild is None else rebuild(), v, rows)
                 for (a, v, rows), rebuild in zip(kept, rebuilds)]
        # each hidden layer's product, bottom-up; a lower layer's output is
        # the next product's input and is dropped once that product is made
        products, below = [], parts
        for k, (mean, std) in enumerate(saved):
            products.append(_blocks_product(below, layers[k][0]))
            if k + 1 < len(saved):
                below = [(_activate(products[k] - mean, std, *norms[k][:2]),
                          None, slice(None))]
        del below
        dh = g
        for j in range(len(norms), 0, -1):
            # through the weight onto hidden output j - 1, then through that
            # layer's GELU (whose pass normalizes the product into xhat and
            # rebuilds the output for the weight's gradient) and batch norm
            w, w_node = layers[j]
            mean, std = saved[j - 1]
            gamma, beta, gamma_node, beta_node = norms[j - 1]
            xhat = products.pop()
            d = dh @ w.T
            x = _gelu_backward(d, xhat, mean, std, gamma, beta)
            if w_node is not None:
                w_node.accum(x.T @ dh)
            del x
            dh = _normalize_backward(d, xhat, std, gamma, gamma_node, beta_node)
            del xhat
        w, w_node = layers[0]
        # the input blocks: a pair reads dh only through s = array.T @ dh,
        # so the only N-row arrays built are the Tensor blocks' gradients
        dw = None if w_node is None else np.empty_like(w)
        for (a, v, rows), node in zip(parts, block_nodes):
            x, s = (a, dh) if v is None else (v, a.T @ dh)
            if dw is not None:
                dw[rows] = x.T @ s
            if node is not None:
                node.accum(s @ w[rows].T)
        if w_node is not None:
            w_node.accum(dw)

    return _result(out_data, parents, bwd), moments


def gated_blend(logits, a: Tensor, b: Tensor):
    """The gated blend ``lam * a + (1.0 - lam) * b`` of three N x C tensors
    of one shape, ``lam`` the logistic sigmoid of ``logits``, as one node
    that keeps no ``lam``, ``1.0 - lam``, product or output, and reads
    ``a`` and ``b``, which the caller keeps. ``logits`` is a Tensor, whose
    array the node keeps, or an ``mlp``-style ``(tensor, rebuild)`` block:
    a Tensor whose array the node does not keep, and a function of no
    arguments that returns a new array of that array's bytes. Forward and
    backward run the float operations of the chain ``sigmoid``, ``*``,
    ``-``, ``*``, ``+`` it replaces, one row block at a time, so every
    result is that chain's bytes: ``a``'s gradient is ``g * lam``, ``b``'s
    ``g * (1.0 - lam)`` and the logits' ``(g * a + -(g * b)) * lam * (1.0 -
    lam)``, whose sum is that subtraction.

    Returns ``(out, rebuild)``, an ``mlp`` input block: ``rebuild()``
    returns a new array of ``out``'s bytes, so a consumer need not keep
    ``out``. It and the backward each rebuild the logits (a kept array is
    copied) and take ``lam`` from them a row block at a time with the
    forward's ``expit``, so ``lam`` never exists as an N-row array: the
    blend is written over the rebuilt logits, and so is their gradient."""
    from scipy.special import expit

    if isinstance(logits, tuple):
        logits, rebuild_logits = logits
    else:
        logits = Tensor._lift(logits)
        rebuild_logits = logits.data.copy
    a, b = Tensor._lift(a), Tensor._lift(b)
    shape = logits.data.shape
    if len(shape) != 2 or not shape == a.data.shape == b.data.shape:
        raise ValueError(f"gated_blend needs three N x C tensors of one shape, "
                         f"got {shape}, {a.data.shape} and {b.data.shape}")
    nz, na, nb = logits._node, a._node, b._node
    av, bv = a.data, b.data
    # a and b are read only for the logits' gradient
    x, y = (av, bv) if nz is not None else (None, None)
    blocks = _row_blocks(shape[0])

    def blend(z, out):
        """Write the blend of the logits ``z`` into ``out``, which may be
        ``z``, and return it."""
        lam_scratch, rest_scratch = _block_scratch(blocks, shape[1], 2)
        for rows in blocks:
            m = rows.stop - rows.start
            lr = expit(z[rows], out=lam_scratch[:m])
            rest = np.subtract(1.0, lr, out=rest_scratch[:m])
            rest *= bv[rows]
            np.multiply(lr, av[rows], out=out[rows])
            out[rows] += rest
        return out

    out = blend(logits.data, np.empty(shape))

    def rebuild():
        z = rebuild_logits()
        return blend(z, z)

    def bwd(g):
        # the logits' gradient is written over the rebuilt logits
        z = rebuild_logits()
        ga, gb = (None if node is None else np.empty(shape) for node in (na, nb))
        lam_scratch, rest_scratch, prod_scratch = _block_scratch(blocks, shape[1], 3)
        for rows in blocks:
            m, gr = rows.stop - rows.start, g[rows]
            lr = expit(z[rows], out=lam_scratch[:m])
            rest = np.subtract(1.0, lr, out=rest_scratch[:m])
            if ga is not None:
                np.multiply(gr, lr, out=ga[rows])
            if gb is not None:
                np.multiply(gr, rest, out=gb[rows])
            if nz is not None:
                dlam = np.multiply(gr, x[rows], out=z[rows])
                dlam -= np.multiply(gr, y[rows], out=prod_scratch[:m])
                dlam *= lr
                dlam *= rest
        for node, grad in zip((nz, na, nb), (z, ga, gb)):
            if node is not None:
                node.accum(grad)

    return _result(out, (nz, na, nb), bwd), rebuild


_ENTRY_CHUNK = 4096  # plan entries per temporary in the weight gradient


def segment_sum(plan: SparsePlan, x: Tensor, weights: Tensor | None = None) -> Tensor:
    """The sparse product ``A @ x`` of ``plan``'s matrix A and the rows of
    ``x``, which has one row per column of A and any trailing shape:
    ``out[i]`` adds ``weights[j] * x[cols[j]]`` (``x[cols[j]]`` for
    ``weights=None``) over the plan's entries j in row i, in entry order
    from 0.0. So over the plan ``(ids, arange(len(ids)))`` it sums each
    segment's rows as ``numpy.add.at`` does, and in general it runs the
    float operations of gathering ``x[cols]``, scaling by the weights and
    that sum: the output and both gradients are that chain's bytes.

    The node keeps ``weights`` for x's gradient, the transposed product,
    and ``x`` for the weights' gradient, ``(g[rows] * x[cols]).sum(axis=1)``,
    which it forms a few thousand entries at a time: no array of one row
    per entry outlives the call or its backward.
    """
    x = Tensor._lift(x)
    m, n = plan.shape
    if x.data.ndim < 1 or x.data.shape[0] != n:
        raise ValueError(f"segment_sum over a {m} x {n} plan needs {n} rows "
                         f"of x, got shape {x.data.shape}")
    tail = x.data.shape[1:]
    width = math.prod(tail)
    w, b = None, None
    if weights is not None:
        weights = Tensor._lift(weights)
        w, b = weights.data, weights._node
        if w.shape != plan.rows.shape:
            raise ValueError(f"segment_sum needs one weight per plan entry "
                             f"({plan.rows.size}), got shape {w.shape}")
    a = x._node
    # each side is kept only for the other side's gradient
    kept_x = x.data.reshape(n, width) if b is not None else None
    kept_w = w if a is not None else None
    rows, cols = plan.rows, plan.cols
    transposed = plan.T if a is not None else None

    def bwd(g):
        g = g.reshape(m, width)
        if a is not None:
            a.accum((transposed.matrix(kept_w) @ g).reshape((n,) + tail))
        if b is not None:
            gw = np.empty(rows.size)
            for start in range(0, gw.size, _ENTRY_CHUNK):
                part = slice(start, start + _ENTRY_CHUNK)
                prod = g[rows[part]]
                prod *= kept_x[cols[part]]
                prod.sum(axis=1, out=gw[part])
            b.accum(gw)

    out = plan.matrix(w) @ x.data.reshape(n, width)
    return _result(out.reshape((m,) + tail), (a, b), bwd)


def segment_softmax(logits: Tensor, plan: SparsePlan) -> Tensor:
    """Softmax of the 1-D ``logits``, one per entry of ``plan``, normalized
    within each of the plan's rows: an entry alone in its row gets weight
    1. Each row's sums (the normalizer, and in the backward the gradient's
    dot product) are products with ``plan.matrix(values)`` over the plan's
    layout, which add the row's entries in entry order from 0.0."""
    logits = Tensor._lift(logits)
    if logits.data.ndim != 1:
        raise ValueError("segment_softmax expects 1-D logits")
    if logits.data.size != plan.rows.size:
        raise ValueError(f"segment_softmax needs one logit per plan entry "
                         f"({plan.rows.size}), got {logits.data.size}")
    seg = plan.rows
    # stabilize with a per-row max
    seg_max = np.full(plan.shape[0], -np.inf)
    np.maximum.at(seg_max, seg, logits.data)
    shifted = np.exp(logits.data - seg_max[seg])
    denom = plan.matrix(shifted) @ np.ones(plan.shape[1])
    out_data = shifted / denom[seg]
    a = logits._node

    def bwd(g):
        dot = plan.matrix(g * out_data) @ np.ones(plan.shape[1])
        a.accum(out_data * (g - dot[seg]))

    return _result(out_data, (a,), bwd)
