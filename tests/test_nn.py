import contextlib
import itertools
import os
import struct

import numpy as np
import pytest

from ncgn import nn
from ncgn.tensor import Tensor, _result, _unbroadcast, concat, mlp, no_grad
from structure_helpers import finite_difference_misses, segments


def assert_close_to_max(actual, reference, rtol=1e-12):
    """Every entry within ``rtol`` of the reference's largest magnitude;
    entries that cancel to near zero have no meaningful relative error."""
    np.testing.assert_allclose(actual, reference, rtol=rtol,
                               atol=rtol * np.abs(reference).max())


def test_gelu_grad_at_zero_exact():
    x = Tensor(np.array([0.0]), requires_grad=True)
    x.gelu().sum().backward()
    assert x.grad[0] == 0.5


def test_mlp_finite_difference():
    rng = np.random.default_rng(0)
    mlp = nn.MLP([4, 8, 1], rng)
    x = rng.standard_normal((5, 4))
    params = mlp.parameters()

    def loss():
        out = mlp(Tensor(x))
        return (out * out).mean()

    loss().backward()
    assert finite_difference_misses(loss, params, 1e-4, 1e-4) == []


def normalizing_mlp():
    """An ``nn.MLP([1, 2, 1])`` whose output is its hidden batch norm's
    output: the hidden Linear makes the channels ``x`` and ``-x``, whose
    normalized values are ``a`` and ``-a``, and the output Linear takes
    ``gelu(a) - gelu(-a)``, which is ``a``."""
    net = nn.MLP([1, 2, 1], np.random.default_rng(0))
    net.layers[0].weight.data[:] = [[1.0, -1.0]]
    net.layers[1].weight.data[:] = [[1.0], [-1.0]]
    return net


def test_batch_norm_constant_channel():
    out = normalizing_mlp()(Tensor(np.array([[2.0], [2.0], [2.0]])))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-9)


def test_batch_norm_two_values():
    out = normalizing_mlp()(Tensor(np.array([[0.0], [2.0]])))
    np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-5)


def test_batch_norm_eval_after_one_step():
    net = normalizing_mlp()
    net(Tensor(np.array([[0.0], [2.0]])))  # seeds running stats
    with nn.inference():
        out = net(Tensor(np.array([[1.0]])))
    np.testing.assert_allclose(out.data, [[0.0]], atol=1e-5)


def test_batch_norm_running_stats_momentum():
    net = normalizing_mlp()
    bn = net.norms[0]
    net(Tensor(np.array([[0.0], [2.0]])))  # first batch: stats seeded directly
    assert bn.running_mean.data[0] == 1.0
    net(Tensor(np.array([[4.0], [4.0]])))
    np.testing.assert_allclose(bn.running_mean.data, [0.9 * 1.0 + 0.1 * 4.0,
                                                      0.9 * -1.0 + 0.1 * -4.0])


def normalize(h, eps, stats):
    """``(xhat, std, mean, var)`` of the N x C array ``h`` as whole-array
    numpy ops: normalized over its rows with their mean and biased
    variance, or with ``stats``, a ``(mean, var)`` pair of length-C arrays.
    The float operations ``tensor.mlp``'s hidden layers run, in one pass
    per step and with numpy's column sums: the byte reference for its
    row-blocked passes and ``np.einsum`` sums."""
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


def normalize_backward(g, xhat, std, gamma):
    """``(dx, dgamma, dbeta)`` for the gradient ``g`` of ``xhat * gamma +
    beta`` over batch statistics, as whole-array numpy ops: the closed form
    ``(gg - mean(gg) - xhat * mean(gg * xhat)) / std`` with ``gg = g *
    gamma``."""
    dgamma, dbeta = (g * xhat).sum(axis=0), g.sum(axis=0)
    gg = g * gamma
    inv_n = 1.0 / g.shape[0]
    mean_gg = gg.sum(axis=0) * inv_n
    prod = xhat * ((gg * xhat).sum(axis=0) * inv_n)
    gg -= mean_gg
    gg -= prod
    gg /= std
    return gg, dgamma, dbeta


def batch_norm(x, gamma, beta, eps, stats=None):
    """Batch normalization ``(x - mean) / (var + eps) ** 0.5 * gamma + beta``
    of the N x C ``x`` as one node, with the float operations of
    ``tensor.mlp``'s hidden layers: the reference ``chain`` uses. The
    statistics are those of ``x``'s rows, or ``stats``, a ``(mean, var)``
    pair of length-C arrays; with ``stats`` it is forward-only, as
    ``nn.inference()`` is, and its backward raises. Returns (output, mean,
    var)."""
    xhat, std, mean, var = normalize(x.data, eps, stats)
    nodes = (x._node, gamma._node, beta._node)

    def bwd(g):
        if stats is not None:
            raise RuntimeError("the reference batch norm over fixed "
                               "statistics is forward-only")
        for node, grad in zip(nodes, normalize_backward(g, xhat, std, gamma.data)):
            if node is not None:
                node.accum(grad)

    return _result(xhat * gamma.data + beta.data, nodes, bwd), mean, var


def sqrt(x):
    """``x ** 0.5`` as one node, ``numpy.sqrt`` forward: the elementary op
    the composed batch norm needs and ``Tensor`` does not have."""
    node, out = x._node, np.sqrt(x.data)

    def bwd(g):
        node.accum(g * 0.5 * x.data ** -0.5)

    return _result(out, (node,), bwd)


def divide(a, b):
    """``a / b`` as one node, backward ``g / b`` and ``-g * a / b**2``: the
    other elementary op the composed batch norms need and ``Tensor`` does
    not have."""
    b = b if isinstance(b, Tensor) else Tensor(b)
    na, nb, x, y = a._node, b._node, a.data, b.data

    def bwd(g):
        if na is not None:
            na.accum(_unbroadcast(g / y, x.shape))
        if nb is not None:
            nb.accum(_unbroadcast(-g * x / y**2, y.shape))

    return _result(x / y, (na, nb), bwd)


def composed_batch_norm(x, gamma, beta, eps):
    """Train-mode batch norm built from elementary ops: the reference the
    fused op is checked against."""
    mu = x.mean(axis=0, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=0, keepdims=True)
    return divide(centered, sqrt(var + eps)) * gamma + beta


def test_fused_batch_norm_matches_composed():
    rng = np.random.default_rng(5)
    x0 = 3.0 * rng.standard_normal((12800, 32)) + 1.0
    gamma0, beta0 = rng.standard_normal(32), rng.standard_normal(32)
    upstream = rng.standard_normal(x0.shape)
    results = []
    for fused in (True, False):
        bn = nn.BatchNorm(32)
        bn.gamma.data[:], bn.beta.data[:] = gamma0, beta0
        x = Tensor(x0.copy(), requires_grad=True)
        out = (batch_norm(x, bn.gamma, bn.beta, nn.BN_EPS)[0] if fused
               else composed_batch_norm(x, bn.gamma, bn.beta, nn.BN_EPS))
        (out * upstream).sum().backward()
        results.append((out.data, x.grad, bn.gamma.grad, bn.beta.grad))
    (out, dx, dgamma, dbeta), (ref, ref_dx, ref_dgamma, ref_dbeta) = results
    np.testing.assert_array_equal(out, ref)
    assert_close_to_max(dx, ref_dx)
    assert_close_to_max(dgamma, ref_dgamma)
    assert_close_to_max(dbeta, ref_dbeta)


def test_fused_batch_norm_finite_difference_with_constant_channel():
    rng = np.random.default_rng(6)
    x0 = rng.standard_normal((6, 3))
    x0[:, 1] = 0.7  # zero batch variance: normalized by sqrt(eps) alone
    upstream = rng.standard_normal(x0.shape)
    bn = nn.BatchNorm(3)
    bn.gamma.data[:] = [1.5, -0.5, 2.0]
    bn.beta.data[:] = [0.1, 0.2, -0.3]
    x = Tensor(x0.copy(), requires_grad=True)

    def loss():
        return (batch_norm(x, bn.gamma, bn.beta, nn.BN_EPS)[0] * upstream).sum()

    loss().backward()
    assert finite_difference_misses(loss, (x, bn.gamma, bn.beta), 1e-6, 1e-5) == []


def _mlp_inputs(rng, n, widths):
    """Input, hidden ``(weight, gamma, beta)`` triples, output weight and
    bias of an MLP over ``widths``, and an upstream gradient."""
    hidden = [(rng.standard_normal((a, b)), rng.standard_normal(b),
               rng.standard_normal(b)) for a, b in zip(widths[:-2], widths[1:-1])]
    return (rng.standard_normal((n, widths[0])) + 0.5, hidden,
            rng.standard_normal(widths[-2:]), rng.standard_normal(widths[-1]),
            rng.standard_normal((n, widths[-1])))


def _mlp_leaves(x0, hidden0, weight0, bias0):
    """``(x, hidden, weight, bias)`` as leaves that require grad, copied from
    the arrays."""
    x, weight, bias = (Tensor(a.copy(), requires_grad=True)
                       for a in (x0, weight0, bias0))
    hidden = [tuple(Tensor(a.copy(), requires_grad=True) for a in triple)
              for triple in hidden0]
    return x, hidden, weight, bias


def _mlp_results(build, x0, hidden0, weight0, bias0, upstream):
    """Output and the gradients of ``x`` and every parameter of ``build(x,
    hidden, weight, bias)`` as bytes."""
    x, hidden, weight, bias = _mlp_leaves(x0, hidden0, weight0, bias0)
    out = build(x, hidden, weight, bias)
    (out * upstream).sum().backward()
    tensors = [x] + [t for triple in hidden for t in triple] + [weight, bias]
    return [out.data.tobytes()] + [t.grad.tobytes() for t in tensors]


def chain(x, hidden, weight, bias, stats=None):
    """The ops an MLP ran per layer before it was one node: per hidden layer
    a bias-free matmul, batch norm and gelu, then a matmul and bias add."""
    for k, (w, gamma, beta) in enumerate(hidden):
        layer_stats = None if stats is None else stats[k]
        x = batch_norm(x @ w, gamma, beta, nn.BN_EPS, layer_stats)[0].gelu()
    return x @ weight + bias


def _fused(stats=None):
    return lambda x, hidden, w, b: mlp([x], hidden, w, b, stats)[0]


def test_hidden_layer_train_mode_matches_chain_bytes():
    # one and two hidden layers; no hidden layer is test_tensor's linear
    rng = np.random.default_rng(7)
    for widths in ([16, 32, 24, 8], [16, 32, 8]):
        *arrays, upstream = _mlp_inputs(rng, 12800, widths)
        fused = _mlp_results(_fused(), *arrays, upstream)
        assert fused == _mlp_results(chain, *arrays, upstream)
    # one hidden layer against elementary ops: the same output, gamma, beta
    # and output-layer bytes; the closed-form x and weight gradients agree
    # to rounding
    composed = _mlp_results(
        lambda x, hidden, w, b: composed_batch_norm(
            x @ hidden[0][0], *hidden[0][1:], nn.BN_EPS).gelu() @ w + b,
        *arrays, upstream)
    assert [fused[i] == composed[i] for i in (0, 3, 4, 5, 6)] == [True] * 5
    for i in (1, 2):
        assert_close_to_max(np.frombuffer(fused[i]), np.frombuffer(composed[i]))


def test_hidden_layer_eval_mode_matches_composed_bytes():
    # running statistics are for inference: the output's bytes under
    # no_grad(), and a forward with grad mode on that raises naming no_grad()
    rng = np.random.default_rng(8)
    # one row block, two uneven ones
    for n, widths in itertools.product((500, 3001), ([16, 32, 8], [16, 32, 24, 8])):
        *arrays, _ = _mlp_inputs(rng, n, widths)
        stats = [(rng.standard_normal(c), rng.uniform(0.5, 2.0, c))
                 for c in widths[1:-1]]

        def composed(x, hidden, weight, bias):
            for (w, gamma, beta), (mean, var) in zip(hidden, stats):
                x = (divide(x @ w - mean[None, :],
                            np.sqrt(var[None, :] + nn.BN_EPS)) * gamma
                     + beta).gelu()
            return x @ weight + bias

        with no_grad():
            fused, *references = (
                build(*_mlp_leaves(*arrays))
                for build in (_fused(stats), composed,
                              lambda *args: chain(*args, stats=stats)))
        assert all(ref.data.tobytes() == fused.data.tobytes()
                   for ref in references)
        with pytest.raises(ValueError, match=r"no_grad\(\)"):
            _fused(stats)(*_mlp_leaves(*arrays))


def blockwise(blocks, weight):
    """The product of ``blocks`` with ``weight`` as primitive ops, block by
    block: ``x @ W[rows]`` for a Tensor block, ``Tensor(a) @ (w @ W[rows])``
    for an ``(a, w)`` pair, each block's rows of W a gather, summed in
    block order: the reference for ``mlp``'s first product."""
    total, start, out = weight.data.shape[0], 0, None
    for block in blocks:
        width = (block if isinstance(block, Tensor) else block[1]).data.shape[1]
        rows = weight.gather_rows(segments(np.arange(start, start + width), total))
        prod = (block @ rows if isinstance(block, Tensor)
                else Tensor(block[0]) @ (block[1] @ rows))
        out = prod if out is None else out + prod
        start += width
    return out


@pytest.mark.parametrize("eval_mode", [False, True])
def test_mlp_pair_blocks_match_concat_bytes(eval_mode):
    # [pair, (rel, w_rel), (dist, w_dist)] runs as the blockwise chain byte
    # for byte, forward and every gradient, with two hidden layers and with
    # none (the output linear's product is then the blockwise one); the
    # concat([pair, rel @ w_rel, dist @ w_dist]) chain sums in another order
    # and agrees to rounding. Running statistics are for inference: with
    # hidden layers the output alone is compared, computed under no_grad(),
    # and the fused forward with grad mode on raises naming no_grad()
    rng = np.random.default_rng(12)
    h = 8
    # one row block, two uneven ones
    for n, widths in itertools.product((300, 3001), ([3 * h, h, h, h], [3 * h, h])):
        rel, dist = rng.standard_normal((n, 2)), rng.uniform(size=(n, 1))
        pair0, w_rel0, w_dist0 = (rng.standard_normal(shape)
                                  for shape in ((n, h), (2, h), (1, h)))
        _, hidden0, weight0, bias0, upstream = _mlp_inputs(rng, n, widths)
        stats = [(rng.standard_normal(h), rng.uniform(0.5, 2.0, h))
                 for _ in hidden0] if eval_mode and hidden0 else None
        results = []
        for build in ("fused", "blockwise", "concat"):
            pair, w_rel, w_dist, weight, bias = (
                Tensor(a.copy(), requires_grad=True)
                for a in (pair0, w_rel0, w_dist0, weight0, bias0))
            hidden = [tuple(Tensor(a.copy(), requires_grad=True) for a in triple)
                      for triple in hidden0]
            blocks = [pair, (rel, w_rel), (dist, w_dist)]
            with no_grad() if stats else contextlib.nullcontext():
                if build == "fused":
                    out = mlp(blocks, hidden, weight, bias, stats)[0]
                elif build == "concat":
                    out = chain(concat([pair, Tensor(rel) @ w_rel,
                                        Tensor(dist) @ w_dist]),
                                hidden, weight, bias, stats)
                elif hidden:
                    first = batch_norm(blockwise(blocks, hidden[0][0]),
                                       *hidden[0][1:], nn.BN_EPS,
                                       None if stats is None else stats[0])
                    out = chain(first[0].gelu(), hidden[1:], weight, bias,
                                None if stats is None else stats[1:])
                else:
                    out = blockwise(blocks, weight) + bias
            if stats:
                results.append([out.data])
                if build == "fused":
                    with pytest.raises(ValueError, match=r"no_grad\(\)"):
                        mlp(blocks, hidden, weight, bias, stats)
                continue
            (out * upstream).sum().backward()
            tensors = [pair, w_rel, w_dist, weight, bias] + [t for triple in hidden
                                                             for t in triple]
            results.append([out.data] + [t.grad for t in tensors])
        fused, reference, concatenated = results
        assert ([a.tobytes() for a in fused]
                == [a.tobytes() for a in reference])
        for actual, old in zip(fused, concatenated):
            assert_close_to_max(actual, old)


def test_hidden_layer_finite_difference_with_constant_channel():
    rng = np.random.default_rng(9)
    x0 = rng.standard_normal((6, 4))
    x0[:, 0] = 1.0  # a constant input column too
    pair = rng.standard_normal((6, 2))
    w0 = rng.standard_normal((6, 3))
    w0[:, 1] = 0.0  # zero batch variance: normalized by sqrt(eps) alone
    upstream = rng.standard_normal((6, 2))
    x, pair_weight, w, gamma, beta, w1, gamma1, beta1, weight, bias = tensors = [
        Tensor(a, requires_grad=True)
        for a in (x0, rng.standard_normal((2, 2)), w0, np.array([1.5, -0.5, 2.0]),
                  np.array([0.1, 0.2, -0.3]), rng.standard_normal((3, 3)),
                  rng.standard_normal(3), rng.standard_normal(3),
                  rng.standard_normal((3, 2)), rng.standard_normal(2))]

    def loss():
        out = mlp([x, (pair, pair_weight)], [(w, gamma, beta), (w1, gamma1, beta1)],
                  weight, bias)[0]
        return (out * upstream).sum()

    loss().backward()
    assert finite_difference_misses(loss, tensors, 1e-6, 1e-5) == []


def test_output_linear_blocks_finite_difference_with_constant_channel():
    # the gate's form, nn.Linear([h, spread]): no hidden layer, so the output
    # linear's product runs block by block; a pair block rides along
    rng = np.random.default_rng(13)
    x0 = rng.standard_normal((6, 3))
    x0[:, 0] = 1.0  # a constant input column
    pair = rng.standard_normal((6, 2))
    upstream = rng.standard_normal((6, 2))
    lin = nn.Linear(3 + 2 + 4, 2, rng)
    lin.bias.data[:] = rng.standard_normal(2)
    x, spread, pair_weight = (Tensor(a, requires_grad=True) for a in (
        x0, rng.standard_normal((6, 2)), rng.standard_normal((2, 4))))

    def loss():
        return (lin([x, spread, (pair, pair_weight)]) * upstream).sum()

    loss().backward()
    assert finite_difference_misses(
        loss, (x, spread, pair_weight, lin.weight, lin.bias), 1e-6, 1e-5) == []


def test_mlp_blocks_must_span_the_first_weight():
    rng = np.random.default_rng(14)
    lin = nn.Linear(5, 2, rng)
    x = Tensor(rng.standard_normal((4, 3)))
    with pytest.raises(ValueError, match="3 columns wide, the first weight has 5 rows"):
        lin(x)
    with pytest.raises(ValueError, match="6 columns wide"):
        lin([x, (rng.standard_normal((4, 1)), Tensor(rng.standard_normal((1, 3))))])


def test_mlp_runs_as_one_node():
    # the node's parents: the input blocks' nodes (a pair's weight), then
    # each hidden layer's weight, gamma and beta, then the output weight and
    # bias
    rng = np.random.default_rng(10)
    net = nn.MLP([6, 8, 8, 2], rng)
    x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    pair_weight = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    params = [t for lin, norm in zip(net.layers, net.norms)
              for t in (lin.weight, norm.gamma, norm.beta)]
    params += [net.layers[-1].weight, net.layers[-1].bias]
    out = net([x, (rng.standard_normal((5, 3)), pair_weight)])
    assert out._node.parents == tuple(t._node for t in [x, pair_weight] + params)


def test_eval_mode_mlp_is_forward_only():
    # running statistics are for inference: inside nn.inference() the MLP
    # runs tensor.mlp with them under no_grad(), builds no node and folds
    # nothing; given them with grad mode on, tensor.mlp raises naming
    # no_grad() before any leaf takes a gradient, and the same forward
    # outside the scope takes one
    rng = np.random.default_rng(15)
    net = nn.MLP([4, 8, 8, 2], rng)
    x = Tensor(rng.standard_normal((20, 4)), requires_grad=True)
    net(x)  # seeds the running statistics
    state = {k: t.data.copy() for k, t in net.state_arrays().items()}
    hidden = [(lin.weight, norm.gamma, norm.beta)
              for lin, norm in zip(net.layers, net.norms)]
    stats = [(norm.running_mean.data, norm.running_var.data)
             for norm in net.norms]
    last = net.layers[-1]
    with nn.inference():
        out = net(x)
    assert out.data.shape == (20, 2) and out._node is None
    with no_grad():
        fixed = mlp([x], hidden, last.weight, last.bias, stats)[0]
    assert out.data.tobytes() == fixed.data.tobytes()
    for k, t in net.state_arrays().items():
        np.testing.assert_array_equal(t.data, state[k])
    with pytest.raises(ValueError, match=r"no_grad\(\)"):
        mlp([x], hidden, last.weight, last.bias, stats)
    assert x.grad is None and all(p.grad is None for p in net.parameters())
    net(x).sum().backward()
    assert x.grad.shape == x.data.shape
    assert all(p.grad.shape == p.data.shape for p in net.parameters())


def test_inference_restores_the_previous_scope_on_exit():
    # on each exit, also when scopes nest, the body raises or the scope sits
    # inside no_grad(), an MLP normalizes as before the scope was entered
    net = normalizing_mlp()
    net(Tensor(np.array([[0.0], [2.0]])))  # seeds running stats
    leaf = Tensor(np.array([[0.0], [20.0]]), requires_grad=True)

    def scope():
        """"batch" when ``net`` normalizes over the batch (output about
        [-1, 1]), else "running"; and whether it recorded a node."""
        out = net(leaf)
        batch = np.allclose(out.data, [[-1.0], [1.0]], atol=1e-4)
        return "batch" if batch else "running", out._node is not None

    assert scope() == ("batch", True)
    with nn.inference():
        assert scope() == ("running", False)
        with nn.inference():
            assert scope() == ("running", False)
        assert scope() == ("running", False)
    assert scope() == ("batch", True)
    with pytest.raises(RuntimeError, match="body failed"):
        with nn.inference():
            raise RuntimeError("body failed")
    assert scope() == ("batch", True)
    with no_grad():
        with nn.inference():
            assert scope() == ("running", False)
        assert scope() == ("batch", False)
    assert scope() == ("batch", True)


def test_batch_norm_rejects_empty():
    with pytest.raises(ValueError, match="at least one row"):
        normalizing_mlp()(Tensor(np.zeros((0, 1))))


def test_adam_matches_reference_step():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = nn.Adam([p], lr=0.1)
    assert (nn.ADAM_BETAS, nn.ADAM_EPS) == ((0.9, 0.999), 1e-8)
    p.grad = np.array([0.5])
    opt.step()
    # bias-corrected first step moves by exactly lr * sign(grad)
    expected = 1.0 - 0.1 * 0.5 / (np.sqrt(0.25) + 1e-8)
    np.testing.assert_allclose(p.data, [expected])


def test_ema_update_formula():
    rng = np.random.default_rng(1)
    lin = nn.Linear(3, 2, rng)
    ema = nn.EMA(lin)
    assert nn.EMA_DECAY == 0.95
    before = {k: v.copy() for k, v in ema.shadow.items()}
    for t in lin.parameters():
        t.data += 1.0
    ema.update(lin)
    for k, t in lin.state_arrays().items():
        np.testing.assert_allclose(ema.shadow[k],
                                   0.95 * before[k] + 0.05 * t.data)


def test_checkpoint_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(2)
    mlp = nn.MLP([3, 4, 2], rng)
    mlp(Tensor(rng.standard_normal((6, 3))))  # touch batch norm stats
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, mlp.state_arrays(), {"seed": 3, "lr": 0.001})
    loaded, record = nn.load_checkpoint(path)
    assert record == {"seed": "3", "lr": "0.001"}
    assert list(loaded) == list(mlp.state_arrays())
    for name, t in mlp.state_arrays().items():
        np.testing.assert_array_equal(loaded[name], t.data)
    other = nn.MLP([3, 4, 2], np.random.default_rng(99))
    nn.load_into(other, loaded)
    x = rng.standard_normal((5, 3))
    with nn.inference():
        np.testing.assert_array_equal(other(Tensor(x)).data, mlp(Tensor(x)).data)


def test_checkpoint_is_one_self_describing_file(tmp_path):
    rng = np.random.default_rng(3)
    lin = nn.Linear(3, 2, rng)
    path = tmp_path / "lin.ckpt"
    arrays = {**lin.state_arrays(), "scalar": np.array(-0.0)}
    nn.save_checkpoint(path, arrays, {"epochs": 1})
    assert os.listdir(tmp_path) == ["lin.ckpt"]
    head, payload = path.read_bytes().split(b"\n\n", 1)
    assert head.decode().split("\n") == [nn.CHECKPOINT_FORMAT, "epochs = 1",
                                         "weight: 3x2", "bias: 2", "scalar: "]
    assert payload == b"".join(np.asarray(a.data if isinstance(a, Tensor) else a,
                                          dtype="<f8").tobytes()
                               for a in arrays.values())
    loaded, _ = nn.load_checkpoint(path)
    assert loaded["scalar"].shape == () and np.signbit(loaded["scalar"])


def test_damaged_or_foreign_checkpoint_names_path(tmp_path):
    path = tmp_path / "model.ckpt"
    nn.save_checkpoint(path, {"w": np.ones((2, 3))}, {"seed": 0})
    blob = path.read_bytes()
    # the layout written before checkpoints carried a header: uint32 ndim,
    # uint32 dims, then the float64 data (names in a separate file)
    old = struct.pack("<3I", 2, 2, 3) + np.ones((2, 3)).tobytes()
    cases = [(blob[:-8], "truncated at array 'w'"),
             (blob + b"\0", "1 trailing bytes"),
             (old, "another version of ncgn"),
             (b"", "another version of ncgn")]
    for data, match in cases:
        path.write_bytes(data)
        with pytest.raises(ValueError, match=match) as info:
            nn.load_checkpoint(path)
        assert str(path) in str(info.value)


def test_load_into_rejects_unknown_name():
    # every case must raise before any array is written
    lin = nn.Linear(2, 3, np.random.default_rng(0))
    before = {k: t.data.copy() for k, t in lin.state_arrays().items()}
    weight, bias = np.ones((2, 3)), np.ones(3)
    cases = [
        ({"nope": np.zeros((2, 2))}, KeyError,
         "layout differs from the model's.*'nope'.*must be retrained"),
        ({"weight": weight, "bias": bias, "nope": np.zeros(1)}, KeyError, "nope"),
        ({"bias": bias}, KeyError, "weight"),  # missing key
        ({"weight": weight.T, "bias": bias}, ValueError,
         r"'weight'.*\(3, 2\).*\(2, 3\)"),  # transposed, same size
        ({"weight": weight, "bias": np.ones(4)}, ValueError,
         r"'bias'.*\(4,\).*\(3,\)"),  # size mismatch after a good array
    ]
    for arrays, error, match in cases:
        with pytest.raises(error, match=match):
            nn.load_into(lin, arrays)
        for k, t in lin.state_arrays().items():
            np.testing.assert_array_equal(t.data, before[k])


def _mlp_keys(prefix, n_linear, bias=True):
    """Parameter and buffer names of an MLP with ``n_linear`` layers: only
    the last layer can carry a bias."""
    params = [f"{prefix}.layers.{i}.weight" for i in range(n_linear)]
    if bias:
        params.append(f"{prefix}.layers.{n_linear - 1}.bias")
    params += [f"{prefix}.norms.{i}.{w}" for i in range(n_linear - 1)
               for w in ("gamma", "beta")]
    buffers = [f"{prefix}.norms.{i}.{w}" for i in range(n_linear - 1)
               for w in ("running_mean", "running_var")]
    return params, buffers


def _gat_dmp_keys(layers):
    """State-array names of a GAT DmpModel in checkpoint order."""
    parts = [_mlp_keys("lift", 3), _mlp_keys("lift_coarse", 3, bias=False)]
    for b in range(layers):
        blk = f"blocks.{b}"
        for msg in ("coarsen_msg", "uncoarsen_msg"):
            linears = [f"{blk}.{msg}.{n}.weight"
                       for n in ("lin_pair", "lin_rel", "lin_dist")]
            mlp_params, mlp_buffers = _mlp_keys(f"{blk}.{msg}.mlp", 2)
            parts.append((linears + mlp_params, mlp_buffers))
            if msg == "coarsen_msg":
                parts.append(([f"{blk}.mp.lin_s.weight", f"{blk}.mp.lin_s.bias",
                               f"{blk}.mp.lin_t.weight", f"{blk}.mp.lin_t.bias",
                               f"{blk}.mp.att_s", f"{blk}.mp.att_t"], []))
        parts.append(([f"{blk}.gate.weight", f"{blk}.gate.bias"], []))
        parts.append(_mlp_keys(f"{blk}.combine", 2, bias=b < layers - 1))
    parts.append(_mlp_keys("project", 3))
    return [k for p, _ in parts for k in p] + [k for _, b in parts for k in b]


def _resolve(module, dotted):
    obj = module
    for part in dotted.split("."):
        obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
    return obj


def test_module_walk_order_modes_and_load():
    from ncgn.dmp import DmpModel

    model = DmpModel(d_in=5, d=2, odim=2, hdim=4, layers=2, mp_kind="gat",
                     seed=0)
    expected = _gat_dmp_keys(2)
    # checkpoint files are written in this order, so it must never change
    assert list(model.state_arrays()) == expected
    assert [k for k, _ in model.named_parameters()] == [
        k for k in expected if ".running_" not in k]
    norms = [_resolve(model, k[: -len(".running_mean")])
             for k in expected if k.endswith(".running_mean")]
    assert all(isinstance(bn, nn.BatchNorm) for bn in norms)
    assert "blocks.1.uncoarsen_msg.mlp.norms.0.running_mean" in expected
    fresh = DmpModel(d_in=5, d=2, odim=2, hdim=4, layers=2, mp_kind="gat",
                     seed=1)
    assert not any(bn._initialized for bn in fresh.modules()
                   if isinstance(bn, nn.BatchNorm))
    nn.load_into(fresh, {k: t.data for k, t in model.state_arrays().items()})
    fresh_norms = [_resolve(fresh, k[: -len(".running_mean")])
                   for k in expected if k.endswith(".running_mean")]
    assert all(bn._initialized for bn in fresh_norms)
