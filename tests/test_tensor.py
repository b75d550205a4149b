import contextlib
import ctypes
import itertools
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgn import tensor
from ncgn.tensor import (
    SparsePlan,
    Tensor,
    _unbroadcast,
    _result,
    concat,
    gated_blend,
    mlp,
    no_grad,
    segment_softmax,
    segment_sum,
)
from structure_helpers import finite_diff, one_to_one, segment_sum_by_ids, segments


def check_op(build, shape, seed=0, tol=1e-6):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    fd = finite_diff(lambda arr: float(build(Tensor(arr)).data), x.copy())
    np.testing.assert_allclose(t.grad, fd, rtol=tol, atol=tol)


@pytest.mark.parametrize("build", [
    lambda t: (t * t).sum(),
    lambda t: (t + 2.0).mean(),
    lambda t: (t - 0.3).sum(),
    lambda t: (Tensor(2.5) - t * t).sum(),  # the right operand of -
    lambda t: (t * t * t).sum(),
    lambda t: gated_blend(t, t * t, t + 1.0)[0].sum(),
    lambda t: t.gelu().sum(),
    lambda t: t.reshape(-1).sum(),
    lambda t: t.mean(axis=0).sum(),
    lambda t: t.sum(axis=1, keepdims=True).mean(),
])
def test_elementwise_grads(build):
    check_op(build, (4, 3))


def test_leaky_relu_grad():
    # keep values away from the kink
    x = np.array([[-2.0, -0.5, 0.4, 1.5]])
    t = Tensor(x.copy(), requires_grad=True)
    t.leaky_relu().sum().backward()
    fd = finite_diff(lambda a: float(Tensor(a).leaky_relu().sum().data), x.copy())
    np.testing.assert_allclose(t.grad, fd, rtol=1e-6)


def test_matmul_grad():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    prod = a @ b
    (prod * prod).sum().backward()
    for t in (a, b):
        other = b if t is a else a
        def fn(arr):
            lhs = Tensor(arr) if t is a else Tensor(a.data)
            rhs = Tensor(b.data) if t is a else Tensor(arr)
            prod = lhs @ rhs
            return float((prod * prod).sum().data)
        fd = finite_diff(fn, t.data.copy())
        np.testing.assert_allclose(t.grad, fd, rtol=1e-5, atol=1e-8)


def test_broadcast_grads():
    rng = np.random.default_rng(2)
    a = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((1, 3)), requires_grad=True)
    (a * b + b).sum().backward()
    fd_b = finite_diff(
        lambda arr: float((Tensor(a.data) * Tensor(arr) + Tensor(arr)).sum().data),
        b.data.copy(),
    )
    np.testing.assert_allclose(b.grad, fd_b, rtol=1e-6)
    assert b.grad.shape == (1, 3)


def test_gather_rows_scatter_add():
    t = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    idx = np.array([0, 2, 0, 1])
    out = t.gather_rows(segments(idx, 3))
    np.testing.assert_array_equal(out.data, t.data[idx])
    out.sum().backward()
    np.testing.assert_array_equal(t.grad, [[2.0, 2.0], [1.0, 1.0], [1.0, 1.0]])


def test_concat_grad():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.full((2, 3), 2.0), requires_grad=True)
    out = concat([a, b], axis=1)
    assert out.data.shape == (2, 5)
    (out * np.arange(5.0)).sum().backward()
    np.testing.assert_array_equal(a.grad, [[0, 1], [0, 1]])
    np.testing.assert_array_equal(b.grad, [[2, 3, 4], [2, 3, 4]])


def test_segment_sum_values_and_grad():
    v = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]), requires_grad=True)
    seg = np.array([0, 1, 0, 1])
    out = segment_sum_by_ids(v, seg, 2)
    np.testing.assert_array_equal(out.data, [[4.0], [6.0]])
    (out * np.array([[2.0], [3.0]])).sum().backward()
    np.testing.assert_array_equal(v.grad, [[2.0], [3.0], [2.0], [3.0]])


def test_segment_softmax_normalizes():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.standard_normal(10), requires_grad=True)
    seg = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 3])
    out = segment_softmax(logits, segments(seg, 4))
    sums = np.zeros(4)
    np.add.at(sums, seg, out.data)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)
    # singleton segment gets weight exactly 1
    assert out.data[9] == 1.0


def test_segment_softmax_grad():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(8)
    seg = np.array([0, 0, 1, 1, 1, 2, 2, 2])
    w = rng.standard_normal(8)

    def fn(arr):
        return float((segment_softmax(Tensor(arr), segments(seg, 3)) * w).sum().data)

    t = Tensor(x.copy(), requires_grad=True)
    (segment_softmax(t, segments(seg, 3)) * w).sum().backward()
    fd = finite_diff(fn, x.copy())
    np.testing.assert_allclose(t.grad, fd, rtol=1e-5, atol=1e-8)


def test_segment_softmax_large_logits_stable():
    out = segment_softmax(Tensor(np.array([1000.0, 1000.0, -1000.0])),
                          segments([0, 0, 0], 1))
    np.testing.assert_allclose(out.data, [0.5, 0.5, 0.0], atol=1e-12)


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2).backward()


def test_backward_frees_interior_grads_and_keeps_leaves():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = a * 3.0
    out = (h * h).sum()
    out.backward()
    assert h.grad is None
    np.testing.assert_array_equal(a.grad, 18.0 * a.data)
    np.testing.assert_array_equal(out.grad, 1.0)


def test_second_backward_through_a_released_graph_raises():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = a * 3.0
    out = (h * h).sum()
    out.backward()
    with pytest.raises(RuntimeError, match="freed by an earlier backward"):
        out.backward()
    # a new root over the released part of the graph cannot reach a either
    with pytest.raises(RuntimeError, match="freed by an earlier backward"):
        (h * 2.0).sum().backward()
    np.testing.assert_array_equal(a.grad, [18.0, 36.0])


def test_backward_releases_each_node_of_the_graph():
    a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    h = a * 3.0
    interior = weakref.ref(h._node)
    out = (gated_blend(h, h * h, a)[0] * h).sum()
    del h
    assert interior() is not None  # the root's graph holds it
    out.backward()
    assert interior() is None
    assert out._node.parents == () and a._node.parents == ()


def linear(x, weight, bias):
    """``x @ weight + bias`` as ``mlp`` runs it for an MLP with no hidden
    layers (``nn.Linear``)."""
    return mlp([x], [], weight, bias)[0]


def _hidden(x, weight):
    gamma, beta, out_weight = (Tensor(v, requires_grad=True)
                               for v in (np.ones(3), np.zeros(3), np.eye(3)))
    return mlp([x], [(weight, gamma, beta)], out_weight, None)[0]


# op name -> (op on two 3 x 3 leaves, whether it keeps the first one's array)
SAVED_INPUTS = {
    "+": (lambda a, b: a + b, False),
    "-": (lambda a, b: a - b, False),
    "concat": (lambda a, b: concat([a, b]), False),
    "gather_rows": (lambda a, b: a.gather_rows(segments([2, 0, 2], 3)), False),
    # segment_sum over a plan of one entry per row of a, summing rows by id
    "segment_sum": (lambda a, b: segment_sum_by_ids(a, [1, 0, 1], 2), False),
    # segment_sum over a plan that gathers a row more than once: the sparse
    # matrix product A @ a
    "spmm": (lambda a, b: segment_sum(SparsePlan([1, 0, 1], [2, 0, 2], (2, 3)),
                                      a), False),
    "segment_sum_weighted": (lambda a, b: segment_sum(
        SparsePlan([1, 0, 1], [2, 0, 2], (2, 3)), a, b.sum(axis=1)), True),
    "reshape": (lambda a, b: a.reshape(-1), False),
    "sum": (lambda a, b: a.sum(axis=0), False),
    "*": (lambda a, b: a * b, True),
    "@": (lambda a, b: a @ b, True),
    "linear": (lambda a, b: linear(a, b, None), True),
    "hidden_layer": (_hidden, True),
}


@pytest.mark.parametrize("name", list(SAVED_INPUTS))
def test_op_keeps_an_input_array_only_for_its_backward(name):
    # the graph holds an input's value only when the op's backward reads it
    op, keeps = SAVED_INPUTS[name]
    rng = np.random.default_rng(7)
    a, b = (Tensor(rng.standard_normal((3, 3)) + 2.0, requires_grad=True)
            for _ in range(2))
    value, leaf = weakref.ref(a.data), a._node
    root = op(a, b).sum()
    del a
    assert (value() is not None) == keeps
    root.backward()
    assert value() is None
    assert leaf.grad.shape == (3, 3)


@pytest.mark.parametrize("n_hidden", [1, 2])
def test_mlp_keeps_no_n_row_array_per_hidden_layer(monkeypatch, n_hidden):
    # of the N-row arrays the forward makes, only the node's output outlives
    # it: not xhat, the Gaussian CDF, the block products, their sum or any
    # hidden output; neither pass concatenates the blocks
    rng = np.random.default_rng(11)
    n, h = 16000, 8  # 15 row blocks
    dropped, concatenated = [], []
    forward, concatenate = tensor._hidden_forward, np.concatenate

    def recording_forward(*args):
        out = forward(*args)
        dropped.append(weakref.ref(out[0]))  # xhat's array, then the output
        return out

    def recording_concatenate(arrays, *args, **kwargs):
        concatenated.append(len(arrays))
        return concatenate(arrays, *args, **kwargs)

    block = Tensor(rng.standard_normal((n, h)), requires_grad=True)
    pair_weights = [Tensor(rng.standard_normal((d, h)), requires_grad=True)
                    for d in (2, 1)]
    pairs = [(rng.standard_normal((n, w.data.shape[0])), w) for w in pair_weights]
    hidden = [tuple(Tensor(rng.standard_normal(shape), requires_grad=True)
                    for shape in ((d_in, h), (h,), (h,)))
              for d_in in (3 * h, h)[:n_hidden]]
    weight = Tensor(rng.standard_normal((h, 2)), requires_grad=True)
    mlp([block] + pairs, hidden, weight, None)  # imports scipy.special
    monkeypatch.setattr(tensor, "_hidden_forward", recording_forward)
    monkeypatch.setattr(np, "concatenate", recording_concatenate)
    layer_bytes = n * h * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out, _ = mlp([block] + pairs, hidden, weight, None)
        live = tracemalloc.get_traced_memory()[0] - start
        assert len(dropped) == n_hidden
        assert [ref() for ref in dropped] == [None] * n_hidden
        # the n x 2 output and less than a sixteenth of an N x h array of
        # small parts (statistics, the node)
        extra = live - out.data.nbytes
        assert 0 <= extra < layer_bytes // 16
        root = out.sum()
        tracemalloc.reset_peak()
        root.backward()
        backward_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # tape included, the backward holds at most the output and the copy of
    # its broadcast gradient that matmul makes, n_hidden + 2 N x h arrays at
    # once (each layer's rebuilt product, which becomes its xhat; the
    # gradient reaching a layer; that layer's output, rebuilt for the
    # weight's gradient, or on the way up a lower layer's output, the next
    # product's input) and less than a quarter of one in row-block
    # temporaries: no whole pre-activation, and every Gaussian CDF only a
    # block at a time
    assert backward_peak < (2 * out.data.nbytes + (n_hidden + 2) * layer_bytes
                            + layer_bytes // 4)
    monkeypatch.undo()
    assert concatenated == []
    assert block.grad.shape == (n, h)
    assert all(w.grad.shape == w.data.shape for w in pair_weights)


@pytest.mark.parametrize("n, n_hidden, eval_mode",
                         itertools.product((300, 3001), (1, 2), (False, True)))
def test_mlp_rebuilt_block_matches_the_tensor_block_bytes(n, n_hidden, eval_mode):
    # a (tensor, rebuild) block gives the output and every gradient of the
    # same block given as the tensor, byte for byte, and the node keeps no
    # array of it: the block's array dies with the forward. Running
    # statistics are for inference: under no_grad() the output bytes match
    # and no node keeps the array, and with grad mode on the forward raises
    # naming no_grad()
    rng = np.random.default_rng(16)
    h = 8
    base0, pair_weight0 = rng.standard_normal((n, h)), rng.standard_normal((2, h))
    pair = rng.standard_normal((n, 2))
    hidden0 = [tuple(rng.standard_normal(shape) for shape in ((d_in, h), (h,), (h,)))
               for d_in in (2 * h, h)[:n_hidden]]
    weight0, bias0 = rng.standard_normal((h, 3)), rng.standard_normal(3)
    upstream = rng.standard_normal((n, 3))
    stats = ([(rng.standard_normal(h), rng.uniform(0.5, 2.0, h)) for _ in hidden0]
             if eval_mode else None)
    results = []
    for rebuilt in (False, True):
        base, pair_weight, weight, bias = (
            Tensor(a.copy(), requires_grad=True)
            for a in (base0, pair_weight0, weight0, bias0))
        hidden = [tuple(Tensor(a.copy(), requires_grad=True) for a in triple)
                  for triple in hidden0]
        x = base * 2.0  # an interior tensor, whose array only x holds
        block = (x, lambda: base.data * 2.0) if rebuilt else x
        value = weakref.ref(x.data)
        with no_grad() if eval_mode else contextlib.nullcontext():
            out, _ = mlp([block, (pair, pair_weight)], hidden, weight, bias, stats)
        del x, block
        assert (value() is None) == (rebuilt or eval_mode)
        results.append([out.data.tobytes()])
        if eval_mode:
            with pytest.raises(ValueError, match=r"no_grad\(\)"):
                mlp([base, (pair, pair_weight)], hidden, weight, bias, stats)
            continue
        (out * upstream).sum().backward()
        tensors = [base, pair_weight, weight, bias] + [t for triple in hidden
                                                       for t in triple]
        results[-1] += [t.grad.tobytes() for t in tensors]
    assert results[0] == results[1]


def test_rebuild_runs_once_per_backward_and_never_without_grad():
    rng = np.random.default_rng(17)
    x0 = rng.standard_normal((50, 4))
    calls = []

    def rebuild():
        calls.append(len(calls))
        return x0.copy()

    x = Tensor(x0, requires_grad=True)
    hidden = [tuple(Tensor(a, requires_grad=True) for a in (
        rng.standard_normal((4, 6)), np.ones(6), np.zeros(6)))]
    weight = Tensor(rng.standard_normal((6, 2)), requires_grad=True)
    with no_grad():
        out, _ = mlp([(x, rebuild)], hidden, weight, None)
    assert out._node is None and calls == []
    for step in range(2):
        x.grad = None
        out, _ = mlp([(x, rebuild)], hidden, weight, None)
        assert len(calls) == step
        out.sum().backward()
        assert len(calls) == step + 1
        assert x.grad.shape == x0.shape


def _shared_gradient_graph():
    """Leaves ``(a, b, c, d, e)``, the ``a + b`` tensor and the root of a
    graph whose ``+``, ``-``, ``reshape``, ``sum`` and ``concat`` hand the
    upstream gradient, or views of it, on."""
    a, b, e, d = (Tensor(np.ones((2, 3)), requires_grad=True) for _ in range(4))
    c = Tensor(np.ones(6), requires_grad=True)
    total = a + b
    root = concat([total - e, c.reshape(2, 3), d.sum(axis=0, keepdims=True)],
                  axis=0).sum()
    return (a, b, c, d, e), total, root


def test_gradients_are_read_only_and_shared():
    # nothing is copied, so no gradient may be written: a write into one
    # would change every node that shares its array
    (a, b, c, d, e), _, root = _shared_gradient_graph()
    root.backward()
    for t, expect in ((a, 1.0), (b, 1.0), (c, 1.0), (d, 1.0), (e, -1.0)):
        np.testing.assert_array_equal(t.grad, np.full(t.data.shape, expect))
        with pytest.raises(ValueError, match="read-only"):
            t.grad[...] = 0.0
    assert np.shares_memory(a.grad, b.grad)
    # a closure that writes into the gradient it is handed raises
    _, total, root = _shared_gradient_graph()
    closure = total._backward

    def scaled(g):
        g *= 2.0
        closure(g)

    total._backward = scaled
    with pytest.raises(ValueError, match="read-only"):
        root.backward()


def _op_leaves_and_output(name, rng):
    """Leaves and output of op ``name`` on random inputs of 3,001 rows (two
    row blocks)."""
    n = 3001
    if name == "mlp":
        leaves = [Tensor(rng.standard_normal(shape), requires_grad=True)
                  for shape in ((n, 4), (4, 8), (8,), (8,), (8, 3), (3,))]
        x, w, gamma, beta, weight, bias = leaves
        return leaves, mlp([x], [(w, gamma, beta)], weight, bias)[0]
    if name.startswith("gated_blend"):
        leaves = [Tensor(rng.standard_normal((n, 5)), requires_grad=True)
                  for _ in range(3)]
        return leaves, gated_blend(_logits(leaves[0], name == "gated_blend_pair"),
                                   *leaves[1:])[0]
    plan = SparsePlan(rng.integers(0, 40, n), rng.integers(0, 50, n), (40, 50))
    if name == "segment_sum":
        leaves = [Tensor(rng.standard_normal(shape), requires_grad=True)
                  for shape in ((50, 4), (n,))]
        return leaves, segment_sum(plan, *leaves)
    x = Tensor(rng.standard_normal((40, 4)), requires_grad=True)
    return [x], x.gather_rows(plan)


@pytest.mark.parametrize("name", ["mlp", "gated_blend", "gated_blend_pair",
                                  "segment_sum", "gather_rows"])
def test_a_broadcast_upstream_gradient_gives_the_same_bytes(name):
    # out.sum() hands the op a broadcast view of its ones, read-only and
    # with a zero row stride; a product hands it a contiguous array
    grads = []
    for broadcast in (True, False):
        leaves, out = _op_leaves_and_output(name, np.random.default_rng(7))
        loss = out.sum() if broadcast else (out * np.ones_like(out.data)).sum()
        loss.backward()
        grads.append([t.grad.tobytes() for t in leaves])
    assert grads[0] == grads[1]


def test_sum_of_a_tensor_with_itself_gets_twice_the_gradient():
    rng = np.random.default_rng(18)
    upstream = rng.standard_normal((3, 2))
    x = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    ((x + x) * upstream).sum().backward()
    assert x.grad.tobytes() == (upstream + upstream).tobytes()
    # an interior x, which takes the + node's array, then adds it to itself
    leaf = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    y = leaf * 3.0
    ((y + y) * upstream).sum().backward()
    assert leaf.grad.tobytes() == ((upstream + upstream) * 3.0).tobytes()
    leaf.grad = None
    y = leaf * 3.0
    ((y - y) * upstream).sum().backward()
    np.testing.assert_array_equal(leaf.grad, np.zeros((3, 2)))


def test_scalar_root_of_a_sum_keeps_its_ones():
    # the root's gradient is never handed to a parent, which would add onto
    # it: s + s would leave the root's gradient at 2
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    s = (a * a).sum()
    root = s + s
    root.backward()
    np.testing.assert_array_equal(root.grad, 1.0)
    np.testing.assert_array_equal(a.grad, 4.0 * a.data)
    b = Tensor(np.array([3.0]), requires_grad=True)
    root = a.sum() + b.sum()
    a.grad = None
    root.backward()
    np.testing.assert_array_equal(root.grad, 1.0)
    np.testing.assert_array_equal(a.grad, [1.0, 1.0])
    np.testing.assert_array_equal(b.grad, [1.0])


def sigmoid(x):
    """The logistic sigmoid as one node, ``scipy.special.expit`` forward:
    the first op of the chain ``gated_blend`` replaces."""
    from scipy.special import expit

    node, out = x._node, expit(x.data)

    def bwd(g):
        node.accum(g * out * (1.0 - out))

    return _result(out, (node,), bwd)


def _logits(z, pair):
    """``gated_blend``'s logits for the leaf ``z``: ``z`` itself, or a
    ``(tensor, rebuild)`` block of ``z * 1.0``, whose array only the caller
    holds, and a rebuild of its bytes."""
    return (z * 1.0, lambda: z.data * 1.0) if pair else z


@pytest.mark.parametrize("n", [5, 3001])  # one row block, two uneven ones
def test_gated_blend_matches_the_chain_bytes(n):
    # the sigmoid, *, -, *, + chain's output and every gradient, byte for
    # byte, and the rebuild a new array of the output's bytes, with the
    # logits a tensor or a rebuilt block; the node keeps no lam, and a
    # rebuilt block's array dies with the forward
    rng = np.random.default_rng(14)
    arrays = [3.0 * rng.standard_normal((n, 8)) for _ in range(3)]
    upstream = rng.standard_normal((n, 8))
    results = []
    for form in ("tensor", "pair", "chain"):
        z, a, b = (Tensor(v.copy(), requires_grad=True) for v in arrays)
        if form == "chain":
            lam = sigmoid(z)
            out = lam * a + (Tensor(1.0) - lam) * b
        else:
            logits = _logits(z, form == "pair")
            value = weakref.ref((logits[0] if form == "pair" else logits).data)
            out, rebuild = gated_blend(logits, a, b)
            del logits
            assert (value() is None) == (form == "pair")
            rebuilt = rebuild()
            assert rebuilt.tobytes() == out.data.tobytes()
            assert not np.shares_memory(rebuilt, out.data)
        (out * upstream).sum().backward()
        results.append([out.data.tobytes()] + [t.grad.tobytes() for t in (z, a, b)])
    assert results[0] == results[1] == results[2]
    z, a, b = (Tensor(v.copy(), requires_grad=True) for v in arrays)
    value = weakref.ref(a.data)
    out, _ = gated_blend(z, a, b)
    del a
    assert value() is not None  # read, not copied, for the logits' gradient
    with pytest.raises(ValueError, match="three N x C tensors of one shape"):
        gated_blend(z, b, Tensor(np.ones((n, 7))))


def test_gated_blend_finite_difference():
    rng = np.random.default_rng(15)
    arrays = [rng.standard_normal((4, 3)) for _ in range(3)]
    upstream = rng.standard_normal((4, 3))
    for pair in (False, True):
        leaves = [Tensor(v.copy(), requires_grad=True) for v in arrays]
        (gated_blend(_logits(leaves[0], pair), *leaves[1:])[0] * upstream).sum().backward()
        for k, leaf in enumerate(leaves):
            def loss(arr, k=k):
                args = [Tensor(arr if i == k else v) for i, v in enumerate(arrays)]
                out = gated_blend(_logits(args[0], pair), *args[1:])[0]
                return float((out * upstream).sum().data)
            np.testing.assert_allclose(leaf.grad, finite_diff(loss, arrays[k].copy()),
                                       rtol=1e-6, atol=1e-8)


_LAYOUTS = ("contiguous", "row_stride", "column_stride", "reversed",
            "column_slice", "transpose", "broadcast_rows", "broadcast_columns")


def _laid_out(rng, n, c, layout):
    """An n x c array in ``layout`` (a view of a larger one, or not), of
    values spanning 16 decades, of either sign, one in 20 an exact zero."""
    size = 2 * max(n, 1) * (c + 3)
    values = (rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8, size)
              * (rng.uniform(size=size) > 0.05))
    if layout == "row_stride":
        return values[:2 * n * c].reshape(2 * n, c)[::2]
    if layout == "column_stride":
        return values[:2 * n * c].reshape(n, 2 * c)[:, ::2]
    if layout == "reversed":
        return values[:n * c].reshape(n, c)[::-1, ::-1]
    if layout == "column_slice":
        return values[:n * (c + 3)].reshape(n, c + 3)[:, 1:c + 1]
    if layout == "transpose":
        return values[:n * c].reshape(c, n).T
    if layout == "broadcast_rows":
        return np.broadcast_to(values[:c], (n, c))
    if layout == "broadcast_columns":
        return np.broadcast_to(values[:n, None], (n, c))
    return values[:n * c].reshape(n, c)


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([1, 2, 7, 100, 1024, 3001]) | st.integers(0, 2500),
       c=st.sampled_from([1, 2, 3, 8, 32]), seed=st.integers(0, 2**32 - 1),
       layouts=st.tuples(st.sampled_from(_LAYOUTS), st.sampled_from(_LAYOUTS)))
@example(n=12800, c=32, seed=0, layouts=("contiguous", "contiguous"))
@example(n=12800, c=32, seed=1, layouts=("row_stride", "column_slice"))
@example(n=12800, c=1, seed=2, layouts=("contiguous", "contiguous"))
def test_column_sum_is_numpy_sum_bytes(n, c, seed, layouts):
    # rows in order, as numpy's column sums add them, whatever the layout:
    # the same bytes as a.sum(axis=0) and (a * b).sum(axis=0), and with a
    # length-C scale as (a * scale).sum(axis=0) and (a * scale * b).sum(axis=0)
    rng = np.random.default_rng(seed)
    a, b = (_laid_out(rng, n, c, layout) for layout in layouts)
    scale = _laid_out(rng, 1, c, "contiguous")[0]
    assert tensor._column_sum(a).tobytes() == a.sum(axis=0).tobytes()
    assert tensor._column_sum(a, b).tobytes() == (a * b).sum(axis=0).tobytes()
    assert (tensor._column_sum(a, scale=scale).tobytes()
            == (a * scale).sum(axis=0).tobytes())
    assert (tensor._column_sum(a, b, scale).tobytes()
            == (a * scale * b).sum(axis=0).tobytes())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 200_000))
@example(0)
@example(1)
@example(1056)
@example(2047)
@example(2048)
@example(12800)
def test_row_blocks_cover_rows_in_order(n):
    # in order, without gaps, the last block the longest (the scratch
    # arrays' length)
    blocks = tensor._row_blocks(n)
    assert [b.step for b in blocks] == [None] * len(blocks)
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(b.stop == after.start for b, after in zip(blocks, blocks[1:]))
    sizes = [b.stop - b.start for b in blocks]
    assert max(sizes) == sizes[-1]
    if n < 2 * tensor._ROW_BLOCK:
        assert len(blocks) == 1
    else:
        assert tensor._ROW_BLOCK <= min(sizes) <= max(sizes) < 2 * tensor._ROW_BLOCK


def _smallest_double_whose_erf_is_one():
    # erf does not fall over the positive doubles, whose bit patterns are
    # ordered as the values are: bisect the patterns between 1.0 and 10.0
    from scipy.special import erf

    lo, hi = (int(bits) for bits in np.array([1.0, 10.0]).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if erf(np.int64(mid).view(np.float64)) == 1.0:
            hi = mid
        else:
            lo = mid
    return np.int64(hi).view(np.float64)


def _gaussian_cdf_edges():
    """Inputs where the branch-free Gaussian CDF could part from the signed
    one: zeros, subnormals, where erf's ``|x| > 1`` branch starts once the
    input is divided by sqrt(2), where erf reaches 1.0, and the extremes."""
    sqrt2, one = tensor.SQRT2, _smallest_double_whose_erf_is_one()
    edges = [0.0, 5e-324, 1e-300, 1e308, np.inf]
    for x in (sqrt2, one, one * sqrt2):
        edges += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    edges = np.array(edges)
    return np.concatenate([edges, -edges])


def test_branch_free_gaussian_cdf_is_the_signed_erf_bytes():
    # erf(|x|) with x's sign copied back is erf(x), bit for bit, zeros'
    # signs included, so the helper writes 0.5 * (1.0 + erf(x / SQRT2))'s
    # bytes; this fails on a scipy whose erf is not odd
    from scipy.special import erf

    rng = np.random.default_rng(23)
    edges = _gaussian_cdf_edges()
    scaled = [scale * rng.standard_normal(1_000_000)
              for scale in (1e-8, 1e-4, 1e-2, 0.3, 1.0, 3.0, 10.0, 40.0)]
    for x in [edges] + scaled:
        want = 0.5 * (1.0 + erf(x / tensor.SQRT2))
        got = tensor._gaussian_cdf(x, np.empty_like(x))
        assert got.tobytes() == want.tobytes()
        odd = np.copysign(erf(np.abs(x)), x)
        assert odd.tobytes() == erf(x).tobytes()
    zeros = erf(np.array([0.0, -0.0]))
    assert zeros.tolist() == [0.0, 0.0]
    assert np.signbit(zeros).tolist() == [False, True]
    assert np.signbit(np.copysign(erf(np.abs(zeros)), zeros)).tolist() == [
        False, True]


def test_backward_of_a_tensor_without_grad_raises():
    with pytest.raises(RuntimeError, match="requires no grad"):
        (Tensor(np.ones(2)) * 2.0).sum().backward()


def test_backward_calls_no_allocator_function(monkeypatch):
    # the allocator policy belongs to engine.train's loop, not to backward
    looked_up = []
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs:
                        looked_up.append(args))
    monkeypatch.setattr(tensor, "_trim", None)
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    (a * a).sum().backward()
    np.testing.assert_array_equal(a.grad, [2.0, 4.0])
    assert looked_up == [] and tensor._trim is None


def test_linear_equals_matmul_add_bytes():
    rng = np.random.default_rng(4)
    x0, w0, b0 = (rng.standard_normal((7, 5)), rng.standard_normal((5, 3)),
                  rng.standard_normal(3))
    upstream = rng.standard_normal((7, 3))
    results = []
    for fused in (True, False):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
        out = linear(x, w, b) if fused else x @ w + b
        (out * upstream).sum().backward()
        results.append((out.data, x.grad, w.grad, b.grad))
    for fused, composed in zip(*results):
        np.testing.assert_array_equal(fused, composed)


def test_linear_without_bias_equals_matmul_bytes():
    rng = np.random.default_rng(5)
    x0, w0 = rng.standard_normal((7, 5)), rng.standard_normal((5, 3))
    upstream = rng.standard_normal((7, 3))
    results = []
    for fused in (True, False):
        x, w = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0))
        out = linear(x, w, None) if fused else x @ w
        (out * upstream).sum().backward()
        results.append((out.data, x.grad, w.grad))
    for fused, composed in zip(*results):
        np.testing.assert_array_equal(fused, composed)


def test_no_grad_records_no_graph_and_restores_after_raise():
    leaf = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(RuntimeError):
        with no_grad():
            out = leaf * 2.0
            assert not out.requires_grad and out._node is None
            assert out._backward is None
            assert Tensor(np.ones(2), requires_grad=True).requires_grad
            raise RuntimeError("body failed")
    out = leaf * 2.0
    assert out.requires_grad and out._node.parents == (leaf._node,)


def test_diamond_graph_accumulates_once():
    t = Tensor(np.array([3.0]), requires_grad=True)
    y = t * t + t * t  # two paths through the same node
    y.sum().backward()
    np.testing.assert_allclose(t.grad, [12.0])


@settings(max_examples=50, deadline=None)
@given(
    rows=st.integers(1, 4), cols=st.integers(1, 4),
    r_one=st.booleans(), c_one=st.booleans(),
)
def test_unbroadcast_matches_shape(rows, cols, r_one, c_one):
    shape = (1 if r_one else rows, 1 if c_one else cols)
    g = np.ones((rows, cols))
    out = _unbroadcast(g, shape)
    assert out.shape == shape
    assert out.sum() == rows * cols


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=12))
def test_segment_sum_matches_bincount(ids):
    seg = np.asarray(ids)
    vals = np.arange(float(len(ids)))[:, None]
    out = segment_sum_by_ids(Tensor(vals), seg, 4)
    expect = np.zeros(4)
    np.add.at(expect, seg, vals.ravel())
    np.testing.assert_allclose(out.data.ravel(), expect)


@settings(max_examples=60, deadline=None)
@given(
    n_ids=st.integers(0, 40), n_seg=st.integers(1, 8), width=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_scatters_match_add_at_bytes(n_ids, n_seg, width, seed):
    # random floats over many magnitudes make every change of summation
    # order visible; unsorted ids leave some segments empty; width 0 is 1-D.
    # Bytes, not values, are compared, so -0.0 does not pass for 0.0.
    def assert_same_bytes(actual, expect):
        assert actual.shape == expect.shape
        assert actual.tobytes() == expect.tobytes()

    rng = np.random.default_rng(seed)
    ids = rng.integers(0, n_seg, n_ids)
    shape = (n_ids,) if width == 0 else (n_ids, width)
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    expect = np.zeros((n_seg,) + shape[1:])
    np.add.at(expect, ids, vals)
    assert_same_bytes(segment_sum_by_ids(Tensor(vals), ids, n_seg).data, expect)

    src = Tensor(rng.standard_normal((n_seg,) + shape[1:]), requires_grad=True)
    out = src.gather_rows(segments(ids, n_seg))
    (out * vals).sum().backward()
    assert_same_bytes(src.grad, expect)

    # segment_softmax forward and backward, with its sums done by add.at
    x = rng.standard_normal(n_ids) * 10.0 ** rng.integers(-3, 3, n_ids)
    upstream = rng.standard_normal(n_ids) * 10.0 ** rng.integers(-8, 8, n_ids)
    seg_max = np.full(n_seg, -np.inf)
    np.maximum.at(seg_max, ids, x)
    shifted = np.exp(x - seg_max[ids])
    denom = np.zeros(n_seg)
    np.add.at(denom, ids, shifted)
    weights = shifted / denom[ids]
    dot = np.zeros(n_seg)
    np.add.at(dot, ids, upstream * weights)
    logits = Tensor(x.copy(), requires_grad=True)
    out = segment_softmax(logits, segments(ids, n_seg))
    (out * upstream).sum().backward()
    assert_same_bytes(out.data, weights)
    assert_same_bytes(logits.grad, weights * (upstream - dot[ids]))

    # gathers over plans whose columns are not arange: a GAT plan (edges
    # with repeats, each row ending with its self entry) and its transpose,
    # whose source rows may be empty; the forward keeps -0.0
    plan = one_to_one(rng.integers(0, n_seg, (n_ids, 2)), n_seg).gat_plan
    for gather in (plan, plan.T):
        rows = gather.rows
        src0 = rng.standard_normal((gather.shape[0],) + shape[1:])
        src0[::2] = -0.0
        upstream = rng.standard_normal((rows.size,) + shape[1:]) \
            * 10.0 ** rng.integers(-8, 8, (rows.size,) + shape[1:])
        expect = np.zeros(src0.shape)
        np.add.at(expect, rows, upstream)
        src = Tensor(src0, requires_grad=True)
        out = src.gather_rows(gather)
        (out * upstream).sum().backward()
        assert_same_bytes(out.data, src0[rows])
        assert_same_bytes(src.grad, expect)


@pytest.mark.parametrize("bad", [-1, 3])
def test_out_of_range_ids_rejected(bad):
    # gathers, segment sums and softmaxes take plans, which check their ids
    # when built; a gather over a plan of other rows than the tensor's
    # names both counts
    ids = np.array([0, 2, bad, -2])
    with pytest.raises(ValueError, match=rf"id {bad} outside \[0, 3\)"):
        segments(ids, 3)
    with pytest.raises(ValueError, match=r"plan of 4 rows needs 4 rows, got shape \(3, 2\)"):
        Tensor(np.ones((3, 2))).gather_rows(segments([0, 2, 3], 4))


def test_segment_softmax_needs_one_logit_per_plan_entry():
    plan = segments([0, 1, 1, 0], 2)
    with pytest.raises(ValueError, match=r"one logit per plan entry \(4\), got 3"):
        segment_softmax(Tensor(np.ones(3)), plan)
    with pytest.raises(ValueError, match="1-D"):
        segment_softmax(Tensor(np.ones((4, 1))), plan)


def test_segment_softmax_leaves_an_empty_row_alone():
    # row 1 has no entry: every other row still sums to 1, and nothing is NaN
    rng = np.random.default_rng(5)
    ids = np.array([2, 0, 2, 3, 0, 2])
    logits = Tensor(rng.standard_normal(ids.size), requires_grad=True)
    out = segment_softmax(logits, segments(ids, 4))
    (out * rng.standard_normal(ids.size)).sum().backward()
    sums = np.zeros(4)
    np.add.at(sums, ids, out.data)
    np.testing.assert_allclose(sums, [1.0, 0.0, 1.0, 1.0], atol=1e-12)
    assert out.data[3] == 1.0
    assert np.isfinite(out.data).all() and np.isfinite(logits.grad).all()


def composed_segment_sum(plan, x, weights=None):
    """A weighted ``segment_sum`` as the chain it replaces: gather each
    entry's row, scale it by its weight, sum the entries into their rows
    with unit weights."""
    rows = x.gather_rows(segments(plan.cols, plan.shape[1]))
    if weights is not None:
        rows = rows * weights.reshape(-1, 1)
    return segment_sum_by_ids(rows, plan.rows, plan.shape[0])


@settings(max_examples=60, deadline=None)
@given(
    n_entries=st.integers(0, 40), n_rows=st.integers(1, 8),
    n_cols=st.integers(1, 8), width=st.integers(1, 40),
    weighted=st.booleans(), chunk=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_segment_sum_matches_the_composed_chain_bytes(n_entries, n_rows, n_cols,
                                                      width, weighted, chunk, seed):
    # unsorted rows and columns with repeats, values over many magnitudes,
    # widths past numpy's 8-way unrolled sums and weight gradients formed a
    # few entries at a time: every change of summation order shows in the
    # bytes
    rng = np.random.default_rng(seed)
    plan = SparsePlan(rng.integers(0, n_rows, n_entries),
                      rng.integers(0, n_cols, n_entries), (n_rows, n_cols))
    x0 = rng.standard_normal((n_cols, width)) * 10.0 ** rng.integers(-8, 8, (n_cols, width))
    w0 = rng.standard_normal(n_entries) * 10.0 ** rng.integers(-3, 3, n_entries)
    upstream = rng.standard_normal((n_rows, width)) * 10.0 ** rng.integers(-8, 8, (n_rows, width))
    results = []
    default_chunk = tensor._ENTRY_CHUNK
    tensor._ENTRY_CHUNK = chunk
    try:
        for op in (segment_sum, composed_segment_sum):
            x = Tensor(x0.copy(), requires_grad=True)
            w = Tensor(w0.copy(), requires_grad=True) if weighted else None
            out = op(plan, x, w)
            (out * upstream).sum().backward()
            results.append([out.data, x.grad] + ([w.grad] if weighted else []))
    finally:
        tensor._ENTRY_CHUNK = default_chunk
    for actual, expect in zip(*results):
        assert actual.shape == expect.shape
        assert actual.tobytes() == expect.tobytes()


def test_segment_sum_finite_differences():
    rng = np.random.default_rng(11)
    plan = SparsePlan([2, 0, 2, 1, 0, 2], [0, 3, 1, 1, 0, 3], (3, 4))
    x0 = rng.standard_normal((4, 3))
    w0 = rng.standard_normal(6)
    upstream = rng.standard_normal((3, 3))

    def loss(x, w):
        return (segment_sum(plan, x, w) * upstream).sum()

    x = Tensor(x0.copy(), requires_grad=True)
    w = Tensor(w0.copy(), requires_grad=True)
    loss(x, w).backward()
    fd_x = finite_diff(lambda arr: float(loss(Tensor(arr), Tensor(w0)).data), x0.copy())
    fd_w = finite_diff(lambda arr: float(loss(Tensor(x0), Tensor(arr)).data), w0.copy())
    np.testing.assert_allclose(x.grad, fd_x, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(w.grad, fd_w, rtol=1e-6, atol=1e-8)
    # unit weights: the gradient of x alone
    x = Tensor(x0.copy(), requires_grad=True)
    (segment_sum(plan, x) * upstream).sum().backward()
    fd_x = finite_diff(lambda arr: float((segment_sum(plan, Tensor(arr)) * upstream).sum().data),
                       x0.copy())
    np.testing.assert_allclose(x.grad, fd_x, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("weighted", [False, True])
def test_segment_sum_backward_keeps_only_the_transposed_plan(weighted):
    # the forward's CSR layout goes with the plan when the forward drops
    # it; the graph holds the transpose, which the backward builds
    rng = np.random.default_rng(12)
    plan = SparsePlan([2, 0, 2, 1], [0, 3, 1, 1], (3, 4))
    x = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    w = Tensor(rng.standard_normal(4), requires_grad=True) if weighted else None
    out = segment_sum(plan, x, w)
    layout = weakref.ref(plan.indptr)
    del plan
    assert layout() is None
    out.sum().backward()
    assert x.grad.shape == (4, 2)


def test_segment_sum_checks_its_operands():
    plan = SparsePlan([0, 1], [2, 0], (2, 3))
    with pytest.raises(ValueError, match=r"needs 3 rows of x, got shape \(2, 4\)"):
        segment_sum(plan, Tensor(np.ones((2, 4))))
    with pytest.raises(ValueError, match=r"needs 3 rows of x, got shape \(\)"):
        segment_sum(plan, Tensor(1.0))
    with pytest.raises(ValueError, match=r"one weight per plan entry \(2\), got shape \(3,\)"):
        segment_sum(plan, Tensor(np.ones((3, 4))), Tensor(np.ones(3)))


@pytest.mark.parametrize("bad", [-1, 3])
def test_sparse_plan_rejects_ids_outside_its_shape(bad):
    with pytest.raises(ValueError, match=rf"id {bad} outside \[0, 3\)"):
        SparsePlan([0, bad], [0, 1], (3, 2))
    with pytest.raises(ValueError, match=rf"id {bad} outside \[0, 3\)"):
        SparsePlan([0, 1], [bad, 1], (2, 3))
    with pytest.raises(ValueError, match=r"got shapes \(2,\) and \(3,\)"):
        SparsePlan([0, 1], [0, 1, 1], (2, 2))


@pytest.mark.parametrize("as_target", [False, True])
@pytest.mark.parametrize("bad", [-1, 4, 5])
def test_edge_plan_names_an_id_outside_the_nodes(as_target, bad):
    # a Structure checks its edges once, when built: the GAT plan's columns
    # span 2 s', yet a source id must still lie in [0, s')
    edges = np.array([[0, 1], [bad, 2], [3, 0]])
    with pytest.raises(ValueError, match=rf"id {bad} outside \[0, 4\)"):
        one_to_one(edges[:, ::-1] if as_target else edges, 4)


@pytest.mark.parametrize("shape", [(3,), (3, 3), (2, 2, 2), (0,)])
def test_edge_plan_names_edges_that_are_not_e_by_2(shape):
    edges = np.zeros(shape, dtype=np.intp)
    with pytest.raises(ValueError, match=rf"E x 2 .* got shape {re.escape(str(shape))}"):
        one_to_one(edges, 4)


def test_edge_plan_rows_are_targets_in_edge_order_then_self():
    edges = np.array([[2, 1], [0, 1], [1, 0], [2, 0], [0, 2]])
    structure = one_to_one(edges, 3)
    np.testing.assert_array_equal(structure.gcn_plan.indptr, [0, 2, 4, 5])
    plan = structure.gat_plan
    dense = plan.matrix(np.arange(1.0, 9.0)).toarray()
    np.testing.assert_array_equal(plan.indptr, [0, 3, 6, 8])
    expect = np.zeros((3, 6))
    for j, (src, tgt) in enumerate(edges):
        expect[tgt, src] = j + 1.0
    expect[[0, 1, 2], [3, 4, 5]] = [6.0, 7.0, 8.0]
    np.testing.assert_array_equal(dense, expect)
    # each row's entries in entry order, its self entry last; each column's
    # (a source's) entries in entry order in the transpose
    unit = plan.matrix()
    np.testing.assert_array_equal(unit.indices, [1, 2, 3, 2, 0, 4, 0, 5])
    np.testing.assert_array_equal(plan.T.matrix().indices, [1, 2, 0, 1, 0, 0, 1, 2])
