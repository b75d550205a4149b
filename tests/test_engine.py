import contextlib
import ctypes
import dataclasses
import re
import types
import weakref

import numpy as np
import pytest

from ncgn import engine, nn, tensor
from ncgn.config import ConfigError, parse_config
from ncgn.dataset import generate_shape_dataset
from ncgn.dmp import FlatGat, node_input
from ncgn.engine import (
    StructureCache,
    TrainConfig,
    attention_study,
    build_model,
    evaluate_w2,
    random_generations,
    sample,
    task_mask,
    gw_study,
    merged_forward,
    model_dims,
    train,
)
from ncgn.graphs import (
    GeometricGraph,
    build_fully_connected_edges,
    build_knn_edges,
    build_long_short_edges,
)
from ncgn.interpolant import interpolate
from ncgn.reaction_diffusion import RdParams, build_spatiotemporal_graph, simulate_rd
from ncgn.schedule import SCHEDULE_KINDS, eval_schedule
from ncgn.transport import w2_exact
from structure_helpers import RecordingCache


def rd_graphs(count, n_space=6, n_time=6, seed=0):
    params = RdParams(l=40, t_end=10.0, snapshots=21, sign_convention="damped")
    trajectories = simulate_rd(params, seed=range(seed, seed + count))
    graphs = []
    for traj in trajectories:
        # min-max scaled to [-0.5, 0.5] by each trajectory's own bounds
        g = build_spatiotemporal_graph(traj, n_space, n_time)
        lo, hi = traj.min(axis=(0, 1)), traj.max(axis=(0, 1))
        g.features = (g.features - lo) / (hi - lo) - 0.5
        graphs.append(g)
    return graphs


def overfit_config(**kw):
    base = dict(epochs=200, batch=2, lr=3e-3, warmup_epochs=10,
                hdim=32, layers=3, seed=1)
    base.update(kw)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="^key 'task': expected one of "
                                         "'features', 'positions', got 'edges'$"):
        TrainConfig(task="edges")
    with pytest.raises(ValueError, match="^key 'method': expected one of .*, "
                                         "got 'transformer'$"):
        TrainConfig(method="transformer")
    with pytest.raises(ValueError, match="warmup_epochs=5 and epochs=2"):
        TrainConfig(epochs=2, warmup_epochs=5)
    for lr in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"^key 'lr': expected a positive "
                                             f"finite number, got {lr}$"):
            TrainConfig(lr=lr)
    # every setting the structure cache reads is checked up front, so a
    # bad one can neither train on zero edges nor reach a checkpoint
    for method in ("dmp", "knn_fixed"):
        with pytest.raises(ValueError, match="^key 'schedule.kind': expected one "
                                             "of .*, got 'quadratic'$"):
            TrainConfig(method=method, schedule_kind="quadratic")
    with pytest.raises(ValueError, match="^key 'mp_kind': expected one of "
                                         "'gcn', 'gat', got 'mlp'$"):
        TrainConfig(mp_kind="mlp")
    for k in (0, -3):
        with pytest.raises(ValueError, match=f"^key 'knn_k': expected an integer "
                                             f"of at least 1, got {k}$"):
            TrainConfig(method="knn_fixed", knn_k=k)


@pytest.mark.parametrize("key, value", [
    *((key, value) for key in ("epochs", "batch", "hdim", "layers", "nfes")
      for value in (0, -2)),
    ("seed", -1),
])
def test_config_names_a_bad_count_or_seed(key, value):
    # a negative seed is caught here, not by numpy's generator in train
    minimum = 0 if key == "seed" else 1
    with pytest.raises(ValueError, match=f"^key '{key}': expected an integer of "
                                         f"at least {minimum}, got {value}$"):
        TrainConfig(**{key: value})


def test_training_loss_decreases_on_tiny_dataset():
    graphs = rd_graphs(8)
    config = overfit_config()
    model, ema, rows = train(graphs, config)
    losses = [r[2] for r in rows]
    n = max(1, len(losses) // 20)
    initial = float(np.mean(losses[:n]))
    final = float(np.mean(losses[-n:]))
    # the flow-matching loss has an irreducible floor (the prior draw cannot
    # be inverted near t=1), so assert a clear drop rather than a vanishing loss
    assert final < 0.3 * initial


def test_training_reproducible():
    graphs = rd_graphs(4)
    config = TrainConfig(epochs=3, batch=2, warmup_epochs=1, hdim=8,
                         layers=1, seed=7)
    _, _, rows_a = train(graphs, config)
    _, _, rows_b = train(graphs, config)
    assert [r[2] for r in rows_a] == [r[2] for r in rows_b]


def test_ema_tracks_training():
    graphs = rd_graphs(2)
    config = TrainConfig(epochs=1, batch=2, warmup_epochs=0, hdim=8,
                         layers=1)
    init = {k: t.data.copy()
            for k, t in build_model(graphs[0], config).state_arrays().items()}
    model, ema, rows = train(graphs, config)
    assert len(rows) == 1
    # one update blends the initial weights into the trained ones at EMA_DECAY
    for name, t in model.state_arrays().items():
        expected = init[name] * nn.EMA_DECAY
        expected += (1.0 - nn.EMA_DECAY) * t.data
        np.testing.assert_array_equal(ema.shadow[name], expected)


def test_no_tape_outlives_a_train_step(monkeypatch):
    # every node of step k's graph but the parameters' is gone by the time
    # step k + 1's forward starts: backward released the graph as it ran
    forward = engine.merged_forward
    live_at_start, tapes = [], []

    def recording(*args):
        live_at_start.append(sum(ref() is not None for ref in tapes))
        tapes.clear()
        pred = forward(*args)
        stack, seen = list(pred._node.parents), set()
        while stack:
            node = stack.pop()
            if id(node) in seen or node.backward is None:
                continue
            seen.add(id(node))
            tapes.append(weakref.ref(node))
            stack.extend(node.parents)
        return pred

    monkeypatch.setattr(engine, "merged_forward", recording)
    train(rd_graphs(4), TrainConfig(epochs=2, batch=2, warmup_epochs=1, hdim=8,
                                    layers=2))
    # 46 nodes a step: the gate is one node per layer (five before)
    assert len(live_at_start) == 4 and len(tapes) > 40
    assert live_at_start == [0, 0, 0, 0]


def fake_libc(monkeypatch, libc):
    """Make ``ctypes.CDLL(None)`` return ``libc`` (or raise it, for an
    exception class) and mark this process as having trained no model yet."""
    real = ctypes.CDLL

    def cdll(name, *args, **kwargs):
        if name is not None:
            return real(name, *args, **kwargs)
        if isinstance(libc, type):
            raise libc("no libc")
        return libc

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(tensor, "_trim", None)


def recording_libc(calls, trim=True):
    """A libc whose ``mallopt`` (and ``malloc_trim``, with ``trim``)
    append their calls to ``calls``."""
    libc = types.SimpleNamespace(
        mallopt=lambda param, value: calls.append(("mallopt", param, value)) or 1)
    if trim:
        libc.malloc_trim = lambda pad: calls.append(("malloc_trim", pad)) or 1
    return libc


def test_freed_pages_kept_only_while_train_runs(monkeypatch):
    calls = []
    fake_libc(monkeypatch, recording_libc(calls))
    backward = tensor.Tensor.backward

    def recording_backward(root):
        calls.append("backward")
        backward(root)

    monkeypatch.setattr(tensor.Tensor, "backward", recording_backward)
    graphs = rd_graphs(2)
    config = TrainConfig(epochs=2, batch=2, warmup_epochs=1, hdim=8, layers=1,
                         nfes=3)
    generated = sample(build_model(graphs[0], config), graphs, config)
    evaluate_w2(generated, graphs, "features", replicates=2, subsample=16)
    shapes = generate_shape_dataset(n_train=1, n_test=1, n_points=16, seed=0).train
    gw_study(shapes, noise_grid=(0.5,), cluster_grid=(4,), n_shapes=1, n_seeds=1,
             iters=5)
    a = tensor.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    (a * a).sum().backward()
    # sampling, evaluation, the GW study and a bare backward touch no
    # allocator function
    assert calls == ["backward"] and tensor._trim is None
    calls.clear()
    for _ in range(2):
        _, _, rows = train(graphs, config)
        assert len(rows) == 2
    # M_MMAP_THRESHOLD to 32 MiB, M_TRIM_THRESHOLD off, M_ARENA_MAX 1 once
    # per process, before the first step; the free heap trimmed once per
    # train, after its last step
    assert calls == [("mallopt", -3, 32 << 20), ("mallopt", -1, -1),
                     ("mallopt", -8, 1), "backward", "backward",
                     ("malloc_trim", 0), "backward", "backward",
                     ("malloc_trim", 0)]
    calls.clear()
    sample(build_model(graphs[0], config), graphs, config)
    assert calls == []
    # a train that raises trims its heap too
    monkeypatch.setattr(engine, "merged_forward", lambda model, parts, cache:
                        tensor.Tensor(np.full((1, 1), np.nan), requires_grad=True))
    with pytest.raises(RuntimeError, match="non-finite loss at step 0"):
        train(graphs, config)
    assert calls == [("malloc_trim", 0)]


@pytest.mark.parametrize("libc", ["without_malloc_trim", OSError])
def test_train_without_malloc_trim_keeps_the_default_allocator(monkeypatch, libc):
    # a libc with mallopt but not malloc_trim, or none at all: train sets
    # nothing and computes the same losses
    graphs = rd_graphs(2)
    config = TrainConfig(epochs=2, batch=2, warmup_epochs=1, hdim=8, layers=1)
    _, _, want = train(graphs, config)
    calls = []
    fake_libc(monkeypatch, recording_libc(calls, trim=False)
              if libc == "without_malloc_trim" else libc)
    _, _, rows = train(graphs, config)
    assert calls == [] and tensor._trim is False
    assert [float(loss).hex() for _, _, loss, _ in rows] == [
        float(loss).hex() for _, _, loss, _ in want]


def test_sample_shapes_and_determinism():
    graphs = rd_graphs(3)
    config = TrainConfig(epochs=1, batch=4, warmup_epochs=0, hdim=8, layers=1,
                         nfes=5)
    model, _, _ = train(graphs, config)
    out_a = sample(model, graphs, config, seed=11)
    out_b = sample(model, graphs, config, seed=11)
    assert len(out_a) == 3
    for a, b, g in zip(out_a, out_b, graphs):
        assert a.features.shape == g.features.shape
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.positions, g.positions)


def test_sample_without_graph_matches_recorded_graph(monkeypatch):
    graphs = rd_graphs(2)
    config = TrainConfig(epochs=1, batch=2, warmup_epochs=0, hdim=8, layers=1,
                         nfes=3)
    model, _, _ = train(graphs, config)
    fast = sample(model, graphs, config, seed=5)
    monkeypatch.setattr(engine, "no_grad", contextlib.nullcontext)
    recorded = sample(model, graphs, config, seed=5)
    for a, b in zip(fast, recorded):
        np.testing.assert_array_equal(a.features, b.features)


def test_sample_restores_train_mode_when_it_raises():
    graphs = rd_graphs(1)
    config = TrainConfig(epochs=1, batch=1, warmup_epochs=0, hdim=8, layers=1,
                         nfes=2)
    model, _, _ = train(graphs, config)
    for p in model.parameters():
        p.data[...] = np.nan
    with pytest.raises(RuntimeError, match="non-finite state"):
        sample(model, graphs, config)
    norms = [m for m in model.modules() if isinstance(m, nn.BatchNorm)]
    assert norms and all(m.training for m in norms)


def test_positions_task_train_and_sample(monkeypatch):
    made = []

    def make(config):
        made.append(RecordingCache(config))
        return made[-1]

    monkeypatch.setattr(engine, "StructureCache", make)
    shapes = generate_shape_dataset(n_train=8, n_test=2, n_points=24, seed=0)
    config = TrainConfig(task="positions", mp_kind="gat", epochs=3, batch=4,
                         warmup_epochs=1, hdim=8, layers=1, nfes=4, seed=2)
    runs = []
    for _ in range(2):
        model, _, rows = train(shapes.train, config)
        runs.append(([r[2] for r in rows],
                     sample(model, shapes.test, config, seed=5)))
    (loss_a, out_a), (loss_b, out_b) = runs
    assert loss_a == loss_b
    assert len(out_a) == len(shapes.test)
    for a, b, g in zip(out_a, out_b, shapes.test):
        np.testing.assert_array_equal(a.positions, b.positions)
        assert a.positions.shape == g.positions.shape
        assert a.features.shape == (g.n_nodes, 0)
        assert np.isfinite(a.positions).all()
        assert np.abs(a.positions - g.positions).max() > 0.1
    # noised positions never recur, so no structure is stored
    assert len(made) == 4
    assert all(c.config is config and c.stats and len(c._store) == 0 for c in made)


def test_positions_task_ignores_template_features():
    # position models never see features (they would leak the target), and
    # generated positions, sampled or random, come back without them
    graphs = rd_graphs(2)
    bare = [GeometricGraph(None, g.positions) for g in graphs]
    assert graphs[0].n_features > 0
    assert model_dims(graphs[0], "positions") == (3, 2)
    config = TrainConfig(task="positions", epochs=2, batch=2, warmup_epochs=0,
                         hdim=8, layers=1, nfes=2, seed=3)
    model, _, rows = train(graphs, config)
    assert rows == train(bare, config)[2]
    out = sample(model, graphs, config, seed=1)
    for a, b in zip(out, sample(model, bare, config, seed=1)):
        np.testing.assert_array_equal(a.positions, b.positions)
    for got, g in zip(out + random_generations(graphs, "positions", seed=0),
                      graphs + graphs):
        assert got.features.shape == (g.n_nodes, 0)
        assert got.positions.shape == g.positions.shape


def test_temporal_trajectory_mask_clamps_first_timepoint():
    graphs = rd_graphs(1)
    g = graphs[0]
    config = TrainConfig(epochs=1, batch=1, warmup_epochs=0, hdim=8, layers=1,
                         nfes=4)
    model, _, _ = train(graphs, config)
    out = sample(model, [g], config, mask_task="temporal_trajectory", seed=1)[0]
    first = g.positions[:, 0] == g.positions[:, 0].min()
    np.testing.assert_array_equal(out.features[first], g.features[first])
    assert not np.allclose(out.features[~first], g.features[~first])


def test_mask_task_with_positions_raises_naming_both():
    # on 16-point shapes, gene_knockout once returned positions whose second
    # column was the knockout value -0.5 on every node
    shapes = generate_shape_dataset(n_train=2, n_test=1, n_points=16, seed=0).train
    with pytest.raises(ValueError, match=r"mask_task='gene_knockout' conditions "
                       r"features; it cannot be used with task=positions"):
        random_generations(shapes, "positions", mask_task="gene_knockout")
    config = TrainConfig(task="positions", hdim=8, layers=1, nfes=2)
    model = build_model(shapes[0], config)
    with pytest.raises(ValueError, match="mask_task='temporal_trajectory'.*"
                       "task=positions"):
        sample(model, shapes, config, mask_task="temporal_trajectory")
    assert model.lift.norms[0].training  # raised before eval mode
    out = random_generations(shapes, "positions", mask_task="")
    assert all(g.positions.shape == (16, 3) for g in out)


def test_train_config_rejects_any_other_interpolant():
    # a constructor keyword, not a field: no config key, config.resolved or
    # checkpoint record carries it
    assert "interpolant" not in {f.name for f in dataclasses.fields(TrainConfig)}
    TrainConfig(interpolant="cfm")
    for kind in ("ddpm", "ve"):
        with pytest.raises(ValueError, match=f"unknown interpolant '{kind}'"):
            TrainConfig(interpolant=kind)


def test_masked_sampling_requires_cfm():
    # the clamp follows the cfm path, the one noising process, and no
    # config key names another
    with pytest.raises(ConfigError,
                       match="unknown config key 'interpolant.kind'"):
        parse_config(overrides=["interpolant.kind=ddpm"])
    graphs = rd_graphs(1)
    config = TrainConfig(epochs=1, batch=1, warmup_epochs=0, hdim=8, layers=1,
                         nfes=2)
    model, _, _ = train(graphs, config)
    # an empty mask task conditions nothing, so it samples as no mask does
    for a, b in zip(sample(model, graphs, config, mask_task="", seed=2),
                    sample(model, graphs, config, seed=2)):
        np.testing.assert_array_equal(a.features, b.features)


def test_task_mask_patterns():
    g = rd_graphs(1)[0]
    times = g.positions[:, 0]
    known, _ = task_mask(g, "temporal_interpolation")
    expect = (times == times.min()) | (times == times.max())
    np.testing.assert_array_equal(known.any(axis=1), expect)

    gene = engine.MASK_GENE
    others = np.arange(g.n_features) != gene
    known, _ = task_mask(g, "gene_imputation")
    assert known[:, others].all() and not known[:, gene].any()

    known, _ = task_mask(g, "spatial_imputation")
    frac_unknown = 1.0 - known.any(axis=1).mean()
    assert 0.2 < frac_unknown < 0.5  # middle third of space withheld

    known, values = task_mask(g, "gene_knockout")
    assert known[:, gene].all() and not known[:, others].any()
    np.testing.assert_array_equal(values[:, gene], engine.KNOCKOUT_VALUE)

    with pytest.raises(ValueError, match="unknown task name 'extrapolation'"):
        task_mask(g, "extrapolation")
    for name in engine.MASK_TASKS:  # the names task_mask dispatches on
        task_mask(g, name)


def test_random_generations_contract():
    graphs = rd_graphs(2)
    out = random_generations(graphs, "features", seed=0)
    assert len(out) == 2
    for got, g in zip(out, graphs):
        assert got.features.shape == g.features.shape
        np.testing.assert_array_equal(got.positions, g.positions)
        assert not np.array_equal(got.features, g.features)
    again = random_generations(graphs, "features", seed=0)
    other = random_generations(graphs, "features", seed=1)
    for got, same, different in zip(out, again, other):
        np.testing.assert_array_equal(got.features, same.features)
        assert not np.array_equal(got.features, different.features)


def test_random_pred_is_model_free():
    graphs = rd_graphs(2)
    config = TrainConfig(method="random_pred", epochs=1, batch=2,
                         warmup_epochs=0)
    with pytest.raises(ValueError, match="random_generations"):
        train(graphs, config)
    positions = np.random.default_rng(0).standard_normal((10, 2))
    with pytest.raises(ValueError, match="random_pred"):
        StructureCache(config).baseline(positions)


def test_evaluate_w2_same_files_zero():
    graphs = rd_graphs(3)
    res = evaluate_w2(graphs, graphs, "features", replicates=3, subsample=50,
                      seed=0)
    # identical pools still subsample independently per side, so compare
    # against the explicit identical-subsample distance instead
    full = evaluate_w2(graphs, graphs, "features", replicates=1,
                       subsample=10**6, seed=0)
    assert full["warned"]
    assert full["mean"] == 0.0
    assert res["mean"] >= 0.0


def test_evaluate_w2_matches_independent_protocol():
    gen = rd_graphs(3, seed=0)
    ref = rd_graphs(3, seed=10)
    res = evaluate_w2(gen, ref, "features", replicates=5, subsample=64, seed=3)

    def pool(graphs):
        return np.concatenate(
            [np.concatenate([g.positions, g.features], axis=1) for g in graphs])

    gp, rp = pool(gen), pool(ref)
    vals = []
    for i in range(5):
        rng = np.random.default_rng(3 + i)
        a = gp[rng.choice(len(gp), size=64, replace=False)]
        b = rp[rng.choice(len(rp), size=64, replace=False)]
        vals.append(w2_exact(a, b))
    assert res["mean"] == pytest.approx(float(np.mean(vals)), rel=1e-12)
    assert res["std"] == pytest.approx(float(np.std(vals)), rel=1e-12)


def test_evaluate_w2_threaded_matches_serial(monkeypatch):
    gen = rd_graphs(2, seed=0)
    ref = rd_graphs(2, seed=5)
    monkeypatch.setenv("NCGN_THREADS", "1")
    serial = evaluate_w2(gen, ref, "features", replicates=4, subsample=32)
    monkeypatch.setenv("NCGN_THREADS", "4")
    threaded = evaluate_w2(gen, ref, "features", replicates=4, subsample=32)
    assert serial["values"] == threaded["values"]


@pytest.mark.parametrize("key", ["replicates", "subsample"])
@pytest.mark.parametrize("value", [0, -1])
def test_evaluate_w2_names_a_non_positive_count(monkeypatch, key, value):
    pooled = []
    monkeypatch.setattr(engine, "_pool", lambda *args: pooled.append(args))
    graphs = rd_graphs(1)
    with pytest.raises(ValueError, match=f"^{key} must be at least 1, got {value}$"):
        evaluate_w2(graphs, graphs, "features", **{key: value})
    assert pooled == []  # rejected before any pooling or subsampling


@pytest.mark.parametrize("side", ["generated", "reference"])
def test_evaluate_w2_names_an_empty_side(monkeypatch, side):
    pooled = []
    monkeypatch.setattr(engine, "_pool", lambda *args: pooled.append(args))
    sides = {"generated": rd_graphs(1), "reference": rd_graphs(1), side: []}
    with pytest.raises(ValueError, match=f"^{side} holds no graphs$"):
        evaluate_w2(sides["generated"], sides["reference"], "features")
    assert pooled == []


def features_graphs(*widths):
    rng = np.random.default_rng(0)
    return [GeometricGraph(rng.standard_normal((4, f)),
                           rng.standard_normal((4, 2))) for f in widths]


def test_evaluate_w2_names_pools_of_other_widths():
    # scipy's cdist would say only "XA and XB must have the same number of
    # columns"
    with pytest.raises(ValueError, match="^generated rows have width 2, "
                                         "reference rows width 5$"):
        evaluate_w2(features_graphs(0, 0), features_graphs(3), "features")


@pytest.mark.parametrize("side", ["generated", "reference"])
def test_evaluate_w2_names_a_side_of_mixed_widths(side):
    # numpy's concatenate would name neither the side nor the graphs
    sides = {"generated": features_graphs(3), "reference": features_graphs(3),
             side: features_graphs(3, 0, 3)}
    with pytest.raises(ValueError, match=f"^{side} graphs have rows of widths "
                                         f"2 and 5; "):
        evaluate_w2(sides["generated"], sides["reference"], "features")


@pytest.mark.parametrize("value", ["abc", "-4", "0", ""])
def test_bad_thread_count_rejected(monkeypatch, value):
    monkeypatch.setenv("NCGN_THREADS", value)
    with pytest.raises(ValueError, match=f"NCGN_THREADS.*{value!r}"):
        engine.n_workers()
    monkeypatch.delenv("NCGN_THREADS")
    assert engine.n_workers() == 1


def test_attention_rows_normalized():
    shapes = generate_shape_dataset(n_train=6, n_test=2, n_points=24,
                                    seed=0).train
    config = TrainConfig(task="positions", method="fully_connected",
                         epochs=2, batch=4, lr=1e-4, warmup_epochs=0,
                         hdim=32, seed=0)
    d_in, odim = model_dims(shapes[0], "positions")
    model, _, _ = train(shapes, config, model=FlatGat(d_in, odim, seed=0))
    rows = attention_study(model, shapes, bins=5)
    assert len(rows) == 5 * len(engine.ATTENTION_BUCKETS)
    for t in engine.ATTENTION_BUCKETS:
        weights = [w for tb, lo, hi, w in rows if tb == t]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        assert all(w >= 0 for w in weights)


@pytest.mark.parametrize("n_shapes, n_seeds, shapes", [
    (0, 1, 0), (-1, 1, 0), (2, 0, 2),
])
def test_gw_study_needs_a_shape_seed_pair(n_shapes, n_seeds, shapes):
    # no (shape, seed) pair: there is no GW mean to write or minimize, and a
    # negative n_shapes must not drop shapes from the end of the split
    graphs = generate_shape_dataset(n_train=4, n_test=0, n_points=16).train
    with pytest.raises(ValueError, match=re.escape(
            f"got {shapes} shapes (n_shapes={n_shapes}) and n_seeds={n_seeds}")):
        gw_study(graphs, n_shapes=n_shapes, n_seeds=n_seeds)


def test_gw_study_zero_noise_anchor():
    shapes = generate_shape_dataset(n_train=4, n_test=1, n_points=48,
                                    seed=1).train
    rows, argmin_rows = gw_study(
        shapes, noise_grid=(1.0,), cluster_grid=(8, 48**3), n_shapes=2,
        n_seeds=1, iters=200, seed=0)
    assert argmin_rows == [(1.0, 48**3)]
    # coarsening to singletons reproduces the clean cloud up to entropic blur
    full_res = [gw for t, c, gw in rows if c == 48**3]
    assert full_res[0] <= 1e-4


def test_flat_gat_merged_loss_equals_per_graph_mean():
    """The first train step's loss over a merged FlatGat batch equals the
    mean of the per-graph losses on train's own draws; it differs when the
    merged edges are not offset per graph."""
    shapes = generate_shape_dataset(n_train=5, n_test=1, n_points=12,
                                    seed=2).train
    config = TrainConfig(task="positions", method="fully_connected",
                         epochs=1, batch=4, lr=1e-4, warmup_epochs=0,
                         hdim=8, seed=7)
    d_in, odim = model_dims(shapes[0], "positions")
    _, _, rows = train(shapes, config,
                       model=FlatGat(d_in, odim, hdim=8, seed=7))
    reference = FlatGat(d_in, odim, hdim=8, seed=7)
    rng = np.random.default_rng(config.seed)
    losses = []
    for i in rng.permutation(len(shapes))[:config.batch]:
        z1 = shapes[i].positions
        t = float(rng.uniform())
        noise_seed = int(rng.integers(2**32))
        z0 = rng.standard_normal(z1.shape)
        z_t = interpolate(z0, z1, t, noise_seed)
        part = (z_t, node_input(np.zeros((len(z1), 0)), z_t, t), t)
        pred = merged_forward(reference, [part], StructureCache(config)).data
        losses.append(np.mean((pred - (z1 - z0)) ** 2))
    assert rows[0][2] == pytest.approx(np.mean(losses), rel=1e-12, abs=0)


def test_structure_cache_reuses_entries():
    # the features task's positions are fixed grids, so each lookup is
    # built once; the positions task's never recur, so nothing is stored
    g = rd_graphs(1)[0]
    for method in ("dmp", "knn_fixed"):
        cache = StructureCache(TrainConfig(method=method, knn_k=4))
        a = cache(g.positions, 0.3)
        assert cache(g.positions, 0.3) is a and len(cache._store) == 1
        fresh = StructureCache(TrainConfig(task="positions", method=method))
        b = fresh(g.positions, 0.3)
        assert fresh(g.positions, 0.3) is not b and len(fresh._store) == 0
        np.testing.assert_array_equal(b.edges, fresh(g.positions, 0.3).edges)


def test_structure_cache_follows_config():
    # the config alone decides a graph's structure: DMP asks for the
    # schedule point of (kind, t, N), baselines read knn_k and seed
    positions = np.random.default_rng(2).standard_normal((40, 2))
    for kind in SCHEDULE_KINDS:
        cache = RecordingCache(TrainConfig(schedule_kind=kind))
        for t in (0.0, 0.35, 1.0):
            cache(positions, t)
        assert [(st["r_t"], st["s_t"]) for st in cache.stats] == [
            eval_schedule(kind, t, 40) for t in (0.0, 0.35, 1.0)]
    for method, edges in (
        ("knn_fixed", build_knn_edges(positions, 5)),
        ("fully_connected", build_fully_connected_edges(40)),
        ("long_short", build_long_short_edges(positions, 5, 9)),
    ):
        config = TrainConfig(method=method, knn_k=5, seed=9)
        structure = StructureCache(config)(positions, 0.35)
        np.testing.assert_array_equal(structure.edges, edges)
        np.testing.assert_array_equal(structure.cluster_of, np.arange(40))
