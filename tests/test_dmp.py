import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from ncgn import dmp, tensor
from ncgn.dmp import (DmpModel, FlatGat, GatConv, GcnConv, Structure,
                      _PointMessage, node_input)
from ncgn.engine import (StructureCache, TrainConfig, merged_forward,
                         random_generations)
from ncgn.graphs import (GeometricGraph, build_fully_connected_edges,
                         build_knn_edges, build_long_short_edges)
from ncgn.tensor import Tensor, concat, no_grad, segment_softmax, segment_sum
from structure_helpers import (RecordingCache, SingletonCache, forward,
                               one_to_one, random_graph, segment_sum_by_ids,
                               segments)


def test_node_input_width_and_t_column():
    g = random_graph(6, d=2, f=3)
    x = node_input(g.features, g.positions, 0.25)
    assert x.shape == (6, 6)
    np.testing.assert_array_equal(x[:, -1], 0.25)
    np.testing.assert_array_equal(x[:, :3], g.features)
    np.testing.assert_array_equal(x[:, 3:5], g.positions)
    g2 = random_graph(4, d=3, f=2)
    assert node_input(g2.features, g2.positions, 0.0).shape == (4, 6)
    with pytest.raises(ValueError):
        node_input(g.features, g.positions, 1.5)


def test_gcn_hand_example():
    # two nodes, one edge 0 -> 1: node 1 gets node 0's vector through the
    # bias-free linear map, node 0 (no in-neighbors) gets zeros
    rng = np.random.default_rng(0)
    conv = GcnConv(2, rng)
    assert conv.lin.bias is None
    h = Tensor(np.array([[1.0, 2.0], [5.0, 5.0]]))
    out = conv(h, one_to_one(np.array([[0, 1]]), 2))
    np.testing.assert_array_equal(out.data[0], 0.0)
    np.testing.assert_allclose(out.data[1], h.data[0] @ conv.lin.weight.data,
                               atol=1e-12)


def test_gcn_mean_aggregation():
    rng = np.random.default_rng(1)
    conv = GcnConv(2, rng)
    h = Tensor(np.array([[2.0, 0.0], [0.0, 4.0], [0.0, 0.0]]))
    out = conv(h, one_to_one(np.array([[0, 2], [1, 2]]), 3))
    np.testing.assert_array_equal(out.data[:2], 0.0)
    np.testing.assert_allclose(out.data[2],
                               np.array([1.0, 2.0]) @ conv.lin.weight.data,
                               atol=1e-12)


def test_gat_weights_sum_to_one():
    rng = np.random.default_rng(2)
    conv = GatConv(4, rng)
    h = Tensor(rng.standard_normal((5, 4)))
    edges = build_fully_connected_edges(5)
    alpha = conv.attention(h, one_to_one(edges, 5))
    assert alpha.shape == (20,)
    # each target's weights plus its self weight sum to 1
    for tgt in range(5):
        mask = edges[:, 1] == tgt
        assert alpha[mask].sum() < 1.0 + 1e-9


def test_gat_single_node_self_attention():
    rng = np.random.default_rng(3)
    conv = GatConv(3, rng)
    h = Tensor(rng.standard_normal((1, 3)))
    out = conv(h, one_to_one(np.zeros((0, 2), dtype=np.intp), 1))
    # softmax over only the self term: output is lin_s(h)
    np.testing.assert_allclose(out.data, conv.lin_s(h).data, atol=1e-12)


def test_gcn_no_edges_forward_and_backward():
    # no in-neighbors: every node aggregates a zero mean and the linear map
    # has no bias, so the output and every gradient are exactly zero
    rng = np.random.default_rng(3)
    conv = GcnConv(3, rng)
    assert [k for k, _ in conv.named_parameters()] == ["lin.weight"]
    h = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    out = conv(h, one_to_one(np.zeros((0, 2), dtype=np.intp), 4))
    np.testing.assert_array_equal(out.data, np.zeros((4, 3)))
    out.sum().backward()
    np.testing.assert_array_equal(h.grad, np.zeros((4, 3)))
    np.testing.assert_array_equal(conv.lin.weight.grad, np.zeros((3, 3)))


@pytest.mark.parametrize("mp_kind", ["gcn", "gat"])
@pytest.mark.parametrize("kind", ["knn_fixed", "fully_connected", "long_short"])
def test_identity_reduction_matches_baselines(mp_kind, kind):
    # singleton clusters + the baseline's own edges reproduce it exactly
    # (acceptance criterion 4)
    from ncgn.graphs import build_knn_edges, build_long_short_edges

    for n, seed in itertools.product((8, 9), range(10)):
        g = random_graph(n, seed=seed)
        model = DmpModel(d_in=6, d=2, odim=2, hdim=8, layers=2,
                         mp_kind=mp_kind, seed=seed)
        model.eval()
        base = forward(model, g, 0.3, kind, k=3, seed=seed).data
        if kind == "knn_fixed":
            edges = build_knn_edges(g.positions, 3)
        elif kind == "fully_connected":
            edges = build_fully_connected_edges(n)
        else:
            edges = build_long_short_edges(g.positions, 3, seed)
        ours = forward(model, g, 0.3, cache=SingletonCache(edges)).data
        np.testing.assert_allclose(ours, base, atol=1e-9)


@pytest.mark.parametrize("mp_kind", ["gcn", "gat"])
@pytest.mark.parametrize("method", ["dmp", "knn_fixed", "long_short"])
def test_merged_forward_equals_batches_of_one(mp_kind, method):
    # offset cluster ids and edges keep the merged graphs apart, so one
    # merged pass gives each graph's batch-of-one rows, bit for bit
    graphs = [random_graph(n, seed=20 + n) for n in (9, 14, 23)]
    ts = (0.2, 0.55, 0.9)
    config = TrainConfig(method=method, mp_kind=mp_kind, knn_k=3, seed=4)
    model = DmpModel(d_in=6, d=2, odim=3, hdim=8, layers=2,
                     mp_kind=mp_kind, seed=5)
    model.eval()
    parts = [(g.positions, node_input(g.features, g.positions, t), t)
             for g, t in zip(graphs, ts)]
    merged = merged_forward(model, parts, StructureCache(config)).data
    single = np.concatenate([
        merged_forward(model, [part], StructureCache(config)).data
        for part in parts])
    np.testing.assert_array_equal(merged, single)


def test_knn_saturated_equals_fully_connected():
    g = random_graph(7, seed=11)
    model = DmpModel(d_in=6, d=2, odim=2, hdim=8, layers=2, seed=1)
    model.eval()
    a = forward(model, g, 0.5, "knn_fixed", k=6).data
    b = forward(model, g, 0.5, "fully_connected").data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_random_pred_reproducible_and_model_free():
    # random_pred samples come from random_generations alone: same seed,
    # same draw; new seed, new draw; no model pass accepts the method
    g = random_graph(5, seed=12)
    a = random_generations([g], "features", seed=9)[0]
    b = random_generations([g], "features", seed=9)[0]
    np.testing.assert_array_equal(a.features, b.features)
    assert a.features.shape == (5, 3)
    np.testing.assert_array_equal(a.positions, g.positions)
    c = random_generations([g], "features", seed=10)[0]
    assert not np.array_equal(a.features, c.features)
    model = DmpModel(d_in=6, d=2, odim=3, hdim=8, layers=1, seed=0)
    with pytest.raises(ValueError):
        forward(model, g, 0.1, "random_pred")


def test_unknown_baseline_rejected():
    g = random_graph(4)
    with pytest.raises(ValueError):
        TrainConfig(method="mlp")
    for method in ("dmp", "random_pred"):
        with pytest.raises(ValueError, match=method):
            StructureCache(TrainConfig(method=method)).baseline(g.positions)


@pytest.mark.parametrize("mp_kind", ["gcn", "gat"])
def test_permutation_equivariance(mp_kind):
    g = random_graph(10, seed=13)
    perm = np.random.default_rng(14).permutation(10)
    gp = GeometricGraph(g.features[perm], g.positions[perm])
    model = DmpModel(d_in=6, d=2, odim=2, hdim=8, layers=2,
                     mp_kind=mp_kind, seed=2)
    model.eval()
    out = forward(model, g, 0.4).data
    out_p = forward(model, gp, 0.4).data
    np.testing.assert_allclose(out_p, out[perm], atol=1e-9)


def test_message_count_stays_linear():
    spec_counts = {}
    for n in (64, 256):
        g = random_graph(n, seed=n)
        model = DmpModel(d_in=6, d=2, odim=1, hdim=8, layers=1, seed=0)
        model.eval()
        per_t = []
        for t in (0.0, 0.5, 1.0):
            cache = RecordingCache()
            forward(model, g, t, cache=cache)
            stats, = cache.stats
            per_t.append(stats["edges"])
        spec_counts[n] = max(per_t)
    # quadrupling N should grow the max per-layer message count about 4x
    # (cube-root neighbor growth adds a bit more), never quadratically
    assert spec_counts[256] <= 8 * spec_counts[64]


def test_dmp_stats_follow_schedule():
    g = random_graph(64, seed=15)
    model = DmpModel(d_in=6, d=2, odim=1, hdim=8, layers=1, seed=0)
    model.eval()
    lo_cache, hi_cache = RecordingCache(), RecordingCache()
    forward(model, g, 0.0, cache=lo_cache)
    forward(model, g, 1.0, cache=hi_cache)
    (lo,), (hi,) = lo_cache.stats, hi_cache.stats
    assert lo["s_t"] < hi["s_t"] and lo["r_t"] >= hi["r_t"]
    assert hi["s_t"] == 64


def concat_message(msg, h, h_coarse, members, coarse_first, rel, dist):
    """The point message with ``lin_pair`` applied to the gathered,
    concatenated pair: the reference for the coarse-row split."""
    gathered = h_coarse.gather_rows(members)
    pair = msg.lin_pair(concat([gathered, h] if coarse_first else [h, gathered],
                               axis=1))
    enc = concat([pair, msg.lin_rel(Tensor(rel)), msg.lin_dist(Tensor(dist))],
                 axis=1)
    return msg.mlp(enc)


@pytest.mark.parametrize("coarse_first", [True, False])  # coarsen, uncoarsen
def test_split_lin_pair_matches_concat(coarse_first):
    rng = np.random.default_rng(17)
    n, nclusters, hdim = 300, 40, 8
    msg = _PointMessage(hdim, 2, rng)
    h0 = rng.standard_normal((n, hdim))
    coarse0 = rng.standard_normal((nclusters, hdim))
    members = segments(rng.integers(0, nclusters, n), nclusters)
    rel = rng.standard_normal((n, 2))
    dist = np.sqrt((rel**2).sum(axis=1, keepdims=True))
    upstream = rng.standard_normal((n, hdim))
    results = []
    for build in (msg, lambda *args: concat_message(msg, *args)):
        h = Tensor(h0.copy(), requires_grad=True)
        h_coarse = Tensor(coarse0.copy(), requires_grad=True)
        out = build(h, h_coarse, members, coarse_first, rel, dist)
        params = [h, h_coarse] + msg.parameters()
        for p in params:
            p.grad = None
        (out * upstream).sum().backward()
        results.append((out.data, [p.grad for p in params]))
    (out, grads), (ref_out, ref_grads) = results
    np.testing.assert_allclose(out, ref_out, rtol=1e-12,
                               atol=1e-12 * np.abs(ref_out).max())
    for g, ref in zip(grads, ref_grads):
        np.testing.assert_allclose(g, ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("coarse_first", [True, False])  # coarsen, uncoarsen
def test_point_message_frees_its_intermediates(monkeypatch, coarse_first):
    # no backward reads the two matmul products, the MLP rebuilds the pair
    # sum (its first block) in its backward, and it forms neither a position
    # encoding nor a concatenated input, forward or backward: of the call's
    # N-row arrays only the output lives on, not the hidden layer's Gaussian
    # CDF
    rng = np.random.default_rng(19)
    n, nclusters, hdim = 3000, 60, 8
    msg = _PointMessage(hdim, 2, rng)
    values, pairs, concatenated = [], [], []
    matmul, concatenate, message_mlp = Tensor.__matmul__, np.concatenate, msg.mlp

    def recording_matmul(a, b):
        out = matmul(a, b)
        values.append(weakref.ref(out.data))
        return out

    def recording_concatenate(arrays, *args, **kwargs):
        concatenated.append(len(arrays))
        return concatenate(arrays, *args, **kwargs)

    def recording_mlp(blocks):
        pair, rebuild = blocks[0]
        pairs.append(weakref.ref(pair.data))
        assert rebuild().tobytes() == pair.data.tobytes()
        return message_mlp(blocks)

    h = Tensor(rng.standard_normal((n, hdim)), requires_grad=True)
    h_coarse = Tensor(rng.standard_normal((nclusters, hdim)), requires_grad=True)
    rel = rng.standard_normal((n, 2))
    dist = np.sqrt((rel**2).sum(axis=1, keepdims=True))
    members = segments(rng.integers(0, nclusters, n), nclusters)
    msg(h, h_coarse, members, coarse_first, rel, dist)  # imports scipy.special
    monkeypatch.setattr(Tensor, "__matmul__", recording_matmul)
    monkeypatch.setattr(np, "concatenate", recording_concatenate)
    monkeypatch.setattr(msg, "mlp", recording_mlp)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = msg(h, h_coarse, members, coarse_first, rel, dist)
        live = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(values) == 2 and len(pairs) == 1
    assert [value() for value in values] == [None] * 2
    assert pairs[0]() is None
    extra = live - n * hdim * 8
    assert 0 <= extra < n * hdim * 4
    out.sum().backward()
    monkeypatch.undo()
    assert concatenated == []
    assert h.grad.shape == (n, hdim) and h_coarse.grad.shape == (nclusters, hdim)


def test_uncoarsen_keeps_no_blend_output(monkeypatch):
    # combine rebuilds the gate's blend in its backward: the blend's output
    # dies with the forward, and the output and every gradient are those of
    # combine keeping the blend as a plain tensor block, byte for byte
    rng = np.random.default_rng(20)
    n, nclusters, hdim = 3000, 60, 8
    layer = dmp.DmpLayer(hdim, 2, "gcn", rng, out_bias=True)
    h0 = rng.standard_normal((n, hdim))
    coarse0 = rng.standard_normal((nclusters, hdim))
    rel = rng.standard_normal((n, 2))
    dist = np.sqrt((rel**2).sum(axis=1, keepdims=True))
    members = segments(rng.integers(0, nclusters, n), nclusters)
    upstream = rng.standard_normal((n, hdim))
    blend = tensor.gated_blend
    results = []
    for kept in (False, True):
        blends = []

        def recording_blend(*args):
            out, rebuild = blend(*args)
            blends.append(weakref.ref(out.data))
            return out if kept else (out, rebuild)

        h = Tensor(h0.copy(), requires_grad=True)
        h_coarse = Tensor(coarse0.copy(), requires_grad=True)
        params = [h, h_coarse] + [p for m in (layer.uncoarsen_msg, layer.gate,
                                               layer.combine)
                                  for p in m.parameters()]
        for p in params:
            p.grad = None
        monkeypatch.setattr(dmp, "gated_blend", recording_blend)
        out = layer.uncoarsen(h, h_coarse, rel, dist, members)
        assert len(blends) == 1 and (blends[0]() is None) == (not kept)
        (out * upstream).sum().backward()
        results.append([out.data.tobytes()] + [p.grad.tobytes() for p in params])
    assert results[0] == results[1]


@pytest.mark.parametrize("name", ["gcn", "gat", "flat_gat"])
def test_every_parameter_gets_a_gradient(name):
    # a parameter whose output reaches a train-mode batch norm only through
    # linear maps (a bias there) is cancelled by the norm's mean: its
    # gradient is roundoff, near 1e-16 of the largest entry
    rng = np.random.default_rng(18)
    graphs = [random_graph(n, seed=n) for n in (40, 57, 73)]
    ts = (0.05, 0.5, 0.95)
    if name == "flat_gat":
        model, method = FlatGat(d_in=6, odim=3, hdim=32, seed=0), "fully_connected"
    else:
        model, method = DmpModel(d_in=6, d=2, odim=3, hdim=32, layers=3,
                                 mp_kind=name, seed=0), "dmp"
    config = TrainConfig(method=method, seed=0)
    parts = [(g.positions, node_input(g.features, g.positions, t), t)
             for g, t in zip(graphs, ts)]
    out = merged_forward(model, parts, StructureCache(config))
    target = rng.standard_normal(out.data.shape)
    named = model.named_parameters()
    diff = out - target
    (diff * diff).mean().backward()
    peak = {k: np.abs(p.grad).max() for k, p in named}
    largest = max(peak.values())
    assert [k for k, v in peak.items() if v <= 1e-8 * largest] == []


def test_flat_gat_shapes_and_attention():
    rng = np.random.default_rng(16)
    inputs = rng.standard_normal((6, 5))
    positions = rng.standard_normal((6, 2))
    edges = build_fully_connected_edges(6)
    net = FlatGat(d_in=5, odim=2, hdim=8, seed=0)
    structure = Structure(np.arange(6), positions, edges)
    out = net.forward_core(inputs, positions, structure)
    assert out.data.shape == (6, 2)
    alpha = net.attention(inputs, structure)
    assert alpha.shape == (edges.shape[0],)
    assert (alpha > 0).all() and (alpha < 1).all()


def test_model_validation():
    with pytest.raises(ValueError):
        DmpModel(d_in=4, d=2, odim=1, layers=0)
    with pytest.raises(ValueError):
        DmpModel(d_in=4, d=2, odim=1, mp_kind="sage")


def composed_gcn(conv, h, edges):
    """``GcnConv`` as the gather/scatter chain its sparse product replaced."""
    n = h.data.shape[0]
    src, tgt = edges[:, 0], edges[:, 1]
    summed = segment_sum_by_ids(h.gather_rows(segments(src, n)), tgt, n)
    deg = np.bincount(tgt, minlength=n).astype(np.float64)
    return conv.lin(summed * (1.0 / np.maximum(deg, 1.0))[:, None])


def composed_gat_product(vals_t, vals_s, alpha, edges):
    """``GatConv``'s aggregation as the chain its sparse product replaced:
    the (E + N) x h values, scaled by alpha, summed onto the targets."""
    n = vals_s.data.shape[0]
    seg = np.concatenate([edges[:, 1], np.arange(n)])
    values = concat([vals_t.gather_rows(segments(edges[:, 0], n)), vals_s], axis=0)
    return segment_sum_by_ids(values * alpha.reshape(-1, 1), seg, n)


def composed_gat(conv, h, edges):
    """``(out, alpha)`` of ``GatConv`` as the composed chain."""
    n = h.data.shape[0]
    vals_s, vals_t = conv.lin_s(h), conv.lin_t(h)
    score_s = (vals_s * conv.att_s.reshape(1, -1)).sum(axis=1)
    score_t = (vals_t * conv.att_t.reshape(1, -1)).sum(axis=1)
    src, tgt = edges[:, 0], edges[:, 1]
    logits = concat([score_s.gather_rows(segments(tgt, n))
                     + score_t.gather_rows(segments(src, n)),
                     score_s + score_t], axis=0).leaky_relu()
    alpha = segment_softmax(logits, segments(np.concatenate([tgt, np.arange(n)]), n))
    return composed_gat_product(vals_t, vals_s, alpha, edges), alpha


def conv_structure(name):
    """``(n, edges)`` of a message-passing test structure."""
    rng = np.random.default_rng(5)
    if name == "knn_duplicates":
        positions = rng.standard_normal((14, 2))
        positions[7:11] = positions[0]
        positions[12] = positions[3]
        return 14, build_knn_edges(positions, 4)
    if name == "shuffled":  # neither source- nor target-major
        edges = build_knn_edges(rng.standard_normal((12, 2)), 3)
        return 12, edges[rng.permutation(edges.shape[0])]
    if name == "fully_connected":  # source-major edge order
        return 9, build_fully_connected_edges(9)
    if name == "no_edges":
        return 5, np.zeros((0, 2), dtype=np.intp)
    if name == "one_node":
        return 1, build_knn_edges(rng.standard_normal((1, 2)), 4)
    # two graphs merged with offset ids, as merged_forward builds them
    first = build_knn_edges(rng.standard_normal((10, 2)), 3)
    second = build_long_short_edges(rng.standard_normal((7, 2)), 3, seed=1)
    return 17, np.concatenate([first, second + 10])


STRUCTURES = ["knn_duplicates", "shuffled", "fully_connected", "no_edges",
              "one_node", "merged"]


def assert_same_bytes(actual, expect):
    assert actual.shape == expect.shape
    assert actual.tobytes() == expect.tobytes()


def scaled_normal(rng, shape):
    """Normal draws over many magnitudes, so that any change of summation
    order shows in the bytes."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 4, shape)


@pytest.mark.parametrize("structure", STRUCTURES)
@pytest.mark.parametrize("mp_kind", ["gcn", "gat"])
def test_conv_matches_the_composed_chain_bytes(mp_kind, structure):
    # output, input gradient and every parameter gradient (the shared
    # lin_s / lin_t ones included) are the composed chain's bytes
    n, edges = conv_structure(structure)
    rng = np.random.default_rng(8)
    conv = (GcnConv if mp_kind == "gcn" else GatConv)(16, rng)
    h0 = scaled_normal(rng, (n, 16))
    upstream = scaled_normal(rng, (n, 16))
    composed = composed_gcn if mp_kind == "gcn" else \
        (lambda c, h, e: composed_gat(c, h, e)[0])
    results = []
    for run in (lambda h: conv(h, one_to_one(edges, n)),
                lambda h: composed(conv, h, edges)):
        h = Tensor(h0.copy(), requires_grad=True)
        for p in conv.parameters():
            p.grad = None
        out = run(h)
        (out * upstream).sum().backward()
        results.append([out.data, h.grad] + [p.grad for p in conv.parameters()])
    for actual, expect in zip(*results):
        assert_same_bytes(actual, expect)


@pytest.mark.parametrize("structure", STRUCTURES)
def test_gat_product_matches_the_composed_chain_bytes(structure):
    # the attention-weighted sum alone, with alpha a leaf: its gradient
    # (formed per entry in chunks) is the composed chain's bytes too
    n, edges = conv_structure(structure)
    rng = np.random.default_rng(9)
    leaves = [scaled_normal(rng, (n, 16)), scaled_normal(rng, (n, 16)),
              rng.uniform(0.0, 1.0, edges.shape[0] + n)]
    upstream = scaled_normal(rng, (n, 16))
    plan = one_to_one(edges, n).gat_plan
    results = []
    for run in (lambda vt, vs, a: segment_sum(plan, concat([vt, vs], axis=0), a),
                lambda vt, vs, a: composed_gat_product(vt, vs, a, edges)):
        vals_t, vals_s, alpha = (Tensor(v.copy(), requires_grad=True) for v in leaves)
        out = run(vals_t, vals_s, alpha)
        (out * upstream).sum().backward()
        results.append([out.data, vals_t.grad, vals_s.grad, alpha.grad])
    for actual, expect in zip(*results):
        assert_same_bytes(actual, expect)


@pytest.mark.parametrize("structure", STRUCTURES)
def test_attention_weights_are_the_composed_bytes(structure):
    n, edges = conv_structure(structure)
    rng = np.random.default_rng(10)
    conv = GatConv(8, rng)
    h = Tensor(rng.standard_normal((n, 8)))
    _, alpha = composed_gat(conv, h, edges)
    assert_same_bytes(conv.attention(h, one_to_one(edges, n)),
                      alpha.data[:edges.shape[0]])


def test_flat_gat_attention_is_the_composed_bytes():
    # the attention study reads FlatGat.attention on fully connected edges
    rng = np.random.default_rng(12)
    inputs = rng.standard_normal((11, 5))
    edges = build_fully_connected_edges(11)
    net = FlatGat(d_in=5, odim=2, hdim=8, seed=3)
    with no_grad():
        _, alpha = composed_gat(net.conv, net.lift(Tensor(inputs)), edges)
    assert_same_bytes(net.attention(inputs, one_to_one(edges, 11)),
                      alpha.data[:edges.shape[0]])


@pytest.mark.parametrize("mp_kind", ["gcn", "gat"])
def test_conv_forward_allocates_no_per_entry_rows(mp_kind):
    # one row per plan entry (E + N of them) at width h would be the largest
    # array of the old gather/scatter chain: the sparse product allocates
    # none in the forward, and the tape it leaves holds N x h arrays and
    # per-entry scalars only
    n, hdim = 48, 32
    edges = build_fully_connected_edges(n)
    entry_rows = (edges.shape[0] + n) * hdim * 8
    rng = np.random.default_rng(13)
    conv = (GcnConv if mp_kind == "gcn" else GatConv)(hdim, rng)
    h = Tensor(rng.standard_normal((n, hdim)), requires_grad=True)
    structure = one_to_one(edges, n)
    getattr(structure, f"{mp_kind}_plan")  # the owner's, built before
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = conv(h, structure)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < entry_rows / 2
    assert live - start < entry_rows / 2
    out.sum().backward()
    assert h.grad.shape == (n, hdim)


@pytest.mark.parametrize("mp_kind", ["gcn", "gat", "flat_gat"])
def test_forward_builds_one_plan(monkeypatch, mp_kind):
    # a forward over a fresh structure builds its cluster incidence and its
    # edge plan, each transposed once; every layer and the backward share
    # them, and a second pass over the same structure builds none
    built = []
    init = tensor.SparsePlan.__init__

    def counting(plan, rows, cols, shape):
        built.append((phase, tuple(shape)))
        init(plan, rows, cols, shape)

    graph = random_graph(30, seed=4)
    if mp_kind == "flat_gat":
        model, method = FlatGat(d_in=6, odim=2, hdim=8, seed=0), "fully_connected"
    else:
        model, method = DmpModel(d_in=6, d=2, odim=2, hdim=8, layers=3,
                                 mp_kind=mp_kind, seed=0), "dmp"
    structure = StructureCache(TrainConfig(method=method))(graph.positions, 0.4)
    inputs = node_input(graph.features, graph.positions, 0.4)
    n, nclusters = 30, structure.coarse_positions.shape[0]
    edge_shape = (nclusters, nclusters if mp_kind == "gcn" else 2 * nclusters)
    monkeypatch.setattr(tensor.SparsePlan, "__init__", counting)
    for phase in ("forward", "again"):
        out = model.forward_core(inputs, graph.positions, structure)
        phase += " backward"
        out.sum().backward()
    expect = [edge_shape, edge_shape[::-1]]
    if mp_kind != "flat_gat":
        assert nclusters < n
        expect += [(nclusters, n), (n, nclusters)]
    assert sorted(shape for p, shape in built if p == "forward") == sorted(expect)
    assert [p for p, _ in built if p != "forward"] == []


@pytest.mark.parametrize("mp_kind", ["gcn", "gat"])
def test_forward_names_bad_structure_edges(mp_kind):
    graph = random_graph(6, seed=2)
    model = DmpModel(d_in=6, d=2, odim=2, hdim=4, layers=1, mp_kind=mp_kind)
    inputs = node_input(graph.features, graph.positions, 0.5)
    clusters = np.array([0, 0, 1, 1, 2, 2])
    coarse = graph.positions[::2]
    for edges, match in ((np.array([[0, 1], [3, 2]]), r"id 3 outside \[0, 3\)"),
                         (np.array([[0, 1, 2]]), r"got shape \(1, 3\)"),
                         (np.array([0, 1]), r"got shape \(2,\)")):
        with pytest.raises(ValueError, match=match):
            model.forward_core(inputs, graph.positions,
                               Structure(clusters, coarse, edges))
