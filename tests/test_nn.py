import os
import struct

import numpy as np
import pytest

from ncgn import nn
from ncgn.tensor import Tensor, batch_norm, hidden_layer, linear


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
    (mlp(Tensor(x)) ** 2).mean().backward()
    h = 1e-4
    for p in params:
        flat = p.data.ravel()
        gflat = p.grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float((mlp(Tensor(x)) ** 2).mean().data)
            flat[i] = orig - h
            lo = float((mlp(Tensor(x)) ** 2).mean().data)
            flat[i] = orig
            fd = (hi - lo) / (2 * h)
            assert abs(gflat[i] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_batch_norm_constant_channel():
    bn = nn.BatchNorm(1)
    out = bn(Tensor(np.array([[2.0], [2.0], [2.0]])))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-9)


def test_batch_norm_two_values():
    bn = nn.BatchNorm(1)
    out = bn(Tensor(np.array([[0.0], [2.0]])))
    np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-5)


def test_batch_norm_eval_after_one_step():
    bn = nn.BatchNorm(1)
    bn(Tensor(np.array([[0.0], [2.0]])))  # seeds running stats
    bn.eval()
    out = bn(Tensor(np.array([[1.0]])))
    np.testing.assert_allclose(out.data, [[0.0]], atol=1e-5)


def test_batch_norm_running_stats_momentum():
    bn = nn.BatchNorm(1)
    bn(Tensor(np.array([[0.0], [2.0]])))  # first batch: stats seeded directly
    assert bn.running_mean.data[0] == 1.0
    bn(Tensor(np.array([[4.0], [4.0]])))
    np.testing.assert_allclose(bn.running_mean.data, [0.9 * 1.0 + 0.1 * 4.0])


def composed_batch_norm(x, gamma, beta, eps):
    """Train-mode batch norm built from elementary ops: the reference the
    fused op is checked against."""
    mu = x.mean(axis=0, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=0, keepdims=True)
    return (x - mu) / ((var + eps) ** 0.5) * gamma + beta


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
        out = bn(x) if fused else composed_batch_norm(x, bn.gamma, bn.beta, nn.BN_EPS)
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
    (bn(x) * upstream).sum().backward()
    h = 1e-6
    for t in (x, bn.gamma, bn.beta):
        flat = t.data.ravel()
        gflat = t.grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float((bn(Tensor(x.data)) * upstream).sum().data)
            flat[i] = orig - h
            lo = float((bn(Tensor(x.data)) * upstream).sum().data)
            flat[i] = orig
            fd = (hi - lo) / (2 * h)
            assert abs(gflat[i] - fd) <= 1e-5 * max(1.0, abs(fd))


def _hidden_layer_inputs(rng, n, d_in, channels):
    return (rng.standard_normal((n, d_in)) + 0.5, rng.standard_normal((d_in, channels)),
            rng.standard_normal(channels), rng.standard_normal(channels),
            rng.standard_normal((n, channels)))


def _hidden_layer_results(layer, arrays, upstream):
    """Output and x, weight, gamma, beta gradients of ``layer`` as bytes."""
    x, weight, gamma, beta = (Tensor(a.copy(), requires_grad=True) for a in arrays)
    out = layer(x, weight, gamma, beta)
    (out * upstream).sum().backward()
    return [t.tobytes() for t in (out.data, x.grad, weight.grad, gamma.grad, beta.grad)]


def test_hidden_layer_train_mode_matches_chain_bytes():
    # the chain MLP ran per hidden layer before the fused op: bias-free
    # linear, batch norm, gelu
    rng = np.random.default_rng(7)
    *arrays, upstream = _hidden_layer_inputs(rng, 12800, 16, 32)
    fused = _hidden_layer_results(
        lambda x, w, g, b: hidden_layer(x, w, g, b, nn.BN_EPS)[0], arrays, upstream)
    chain = _hidden_layer_results(
        lambda x, w, g, b: batch_norm(linear(x, w, None), g, b, nn.BN_EPS)[0].gelu(),
        arrays, upstream)
    assert fused == chain
    # against elementary ops: the same output, gamma and beta bytes; the
    # closed-form x and weight gradients agree to rounding
    composed = _hidden_layer_results(
        lambda x, w, g, b: composed_batch_norm(x @ w, g, b, nn.BN_EPS).gelu(),
        arrays, upstream)
    assert [fused[i] == composed[i] for i in (0, 3, 4)] == [True] * 3
    for i in (1, 2):
        assert_close_to_max(np.frombuffer(fused[i]), np.frombuffer(composed[i]))


def test_hidden_layer_eval_mode_matches_composed_bytes():
    rng = np.random.default_rng(8)
    *arrays, upstream = _hidden_layer_inputs(rng, 500, 16, 32)
    stats = (rng.standard_normal(32), rng.uniform(0.5, 2.0, 32))

    def composed(x, weight, gamma, beta):
        mean, var = stats
        return ((x @ weight - mean[None, :]) / np.sqrt(var[None, :] + nn.BN_EPS)
                * gamma + beta).gelu()

    fused = _hidden_layer_results(
        lambda x, w, g, b: hidden_layer(x, w, g, b, nn.BN_EPS, stats)[0],
        arrays, upstream)
    assert fused == _hidden_layer_results(composed, arrays, upstream)


def test_hidden_layer_finite_difference_with_constant_channel():
    rng = np.random.default_rng(9)
    x0 = rng.standard_normal((6, 4))
    w0 = rng.standard_normal((4, 3))
    w0[:, 1] = 0.0  # zero batch variance: normalized by sqrt(eps) alone
    x0[:, 0] = 1.0  # a constant input column too
    upstream = rng.standard_normal((6, 3))
    tensors = [Tensor(a, requires_grad=True)
               for a in (x0, w0, np.array([1.5, -0.5, 2.0]), np.array([0.1, 0.2, -0.3]))]

    def loss():
        return (hidden_layer(*tensors, nn.BN_EPS)[0] * upstream).sum()

    loss().backward()
    h = 1e-6
    for t in tensors:
        flat, gflat = t.data.ravel(), t.grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float(loss().data)
            flat[i] = orig - h
            lo = float(loss().data)
            flat[i] = orig
            fd = (hi - lo) / (2 * h)
            assert abs(gflat[i] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_mlp_runs_each_hidden_layer_as_one_node():
    rng = np.random.default_rng(10)
    mlp = nn.MLP([4, 8, 8, 2], rng)
    x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    for mode in (mlp.train, mlp.eval):
        mode()
        out = mlp(x)
        second = out._node.parents[0]  # the last linear's input
        first = second.parents[0]
        for k, node, inp in ((1, second, first), (0, first, x._node)):
            norm = mlp.norms[k]
            assert node.parents == (inp, mlp.layers[k].weight._node,
                                    norm.gamma._node, norm.beta._node)


def test_batch_norm_rejects_empty():
    bn = nn.BatchNorm(2)
    with pytest.raises(ValueError):
        bn(Tensor(np.zeros((0, 2))))


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
    other.eval(), mlp.eval()
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
    model.eval()
    assert not any(bn.training for bn in norms)
    model.train()
    assert all(bn.training for bn in norms)
    fresh = DmpModel(d_in=5, d=2, odim=2, hdim=4, layers=2, mp_kind="gat",
                     seed=1)
    assert not any(bn._initialized for bn in fresh.modules()
                   if isinstance(bn, nn.BatchNorm))
    nn.load_into(fresh, {k: t.data for k, t in model.state_arrays().items()})
    fresh_norms = [_resolve(fresh, k[: -len(".running_mean")])
                   for k in expected if k.endswith(".running_mean")]
    assert all(bn._initialized for bn in fresh_norms)
