import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgn import dataset, shapes
from ncgn.dataset import (
    TEST_SHAPE,
    TRAIN_SHAPE,
    generate_rd_dataset,
    generate_shape_dataset,
    load_dataset,
    save_dataset,
)
from ncgn.reaction_diffusion import (
    GENES,
    RdParams,
    build_spatiotemporal_graph,
    laplacian_1d,
    simulate_rd,
)
from ncgn.shapes import SHAPE_KINDS, TORUS_MAJOR, TORUS_MINOR, make_shape


# ---------------------------------------------------------------- shapes

@pytest.mark.parametrize("kind", SHAPE_KINDS)
def test_shape_fits_unit_box_and_centered_features(kind):
    g = make_shape(kind, 256, seed=1)
    assert g.positions.shape == (256, 3)
    assert np.abs(g.positions).max() <= 0.5 + 1e-12
    np.testing.assert_allclose(g.features.sum(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(g.features,
                               g.positions - g.positions.mean(axis=0))


def test_sphere_radius_exact():
    g = make_shape("sphere", 128, seed=2)
    radii = np.linalg.norm(g.positions, axis=1)
    np.testing.assert_allclose(radii, 0.5, atol=1e-12)


def test_cube_points_on_faces():
    g = make_shape("cube", 200, seed=3)
    on_face = np.isclose(np.abs(g.positions), 0.5).any(axis=1)
    assert on_face.all()


def test_torus_on_surface():
    g = make_shape("torus", 100, seed=4)
    ring = np.hypot(g.positions[:, 0], g.positions[:, 1])
    tube = np.hypot(ring - TORUS_MAJOR, g.positions[:, 2])
    np.testing.assert_allclose(tube, TORUS_MINOR, atol=1e-10)


def test_prism_points_on_caps_or_sides():
    pts = make_shape("prism", 300, seed=8).positions
    verts = shapes._triangle_vertices()
    # barycentric coordinates of xy in the triangle
    edges = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
    lam = np.linalg.solve(edges, (pts[:, :2] - verts[0]).T).T
    bary = np.column_stack([1.0 - lam.sum(axis=1), lam])
    on_cap = (np.abs(pts[:, 2]) == 0.5) & (bary >= -1e-12).all(axis=1)
    # distance of xy from each edge's segment
    a, b = verts, np.roll(verts, -1, axis=0)
    t = np.clip(np.einsum("eij,ej->ei", pts[None, :, :2] - a[:, None], b - a)
                / ((b - a) ** 2).sum(axis=1)[:, None], 0.0, 1.0)
    foot = a[:, None] + t[..., None] * (b - a)[:, None]
    gap = np.linalg.norm(pts[None, :, :2] - foot, axis=2).min(axis=0)
    on_side = (gap < 1e-12) & (np.abs(pts[:, 2]) <= 0.5)
    assert (on_cap | on_side).all()
    assert on_cap.any() and (on_side & ~on_cap).any()


def test_cylinder_points_on_side_or_caps():
    pts = make_shape("cylinder", 300, seed=9).positions
    radius = np.hypot(pts[:, 0], pts[:, 1])
    on_side = np.isclose(radius, 0.5, rtol=0.0, atol=1e-12) & (np.abs(pts[:, 2]) <= 0.5)
    on_cap = (np.abs(pts[:, 2]) == 0.5) & (radius <= 0.5)
    assert (on_side | on_cap).all()
    assert on_cap.any() and (on_side & ~on_cap).any()


# The per-point loops the whole-array samplers replaced, as the references
# they must match byte for byte from the same generator.

def loop_cube(n, rng):
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-0.5, 0.5, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, -0.5, 0.5)
    for i in range(n):
        others = [a for a in range(3) if a != axis[i]]
        pts[i, axis[i]] = sign[i]
        pts[i, others] = uv[i]
    return pts


def loop_prism(n, rng):
    verts = shapes._triangle_vertices()
    side = np.linalg.norm(verts[0] - verts[1])
    tri_area = np.sqrt(3.0) / 4.0 * side**2
    areas = np.array([tri_area, tri_area, side, side, side])
    which = rng.choice(5, size=n, p=areas / areas.sum())
    pts = np.empty((n, 3))
    for i, w in enumerate(which):
        if w < 2:
            u, v = rng.uniform(size=2)
            if u + v > 1.0:
                u, v = 1.0 - u, 1.0 - v
            xy = verts[0] + u * (verts[1] - verts[0]) + v * (verts[2] - verts[0])
            pts[i] = [xy[0], xy[1], -0.5 if w == 0 else 0.5]
        else:
            a, b = verts[w - 2], verts[(w - 1) % 3]
            u = rng.uniform()
            xy = a + u * (b - a)
            pts[i] = [xy[0], xy[1], rng.uniform(-0.5, 0.5)]
    return pts


def loop_cylinder(n, rng):
    r = 0.5
    lateral, cap = 2.0 * np.pi * r, np.pi * r**2
    which = rng.choice(3, size=n, p=np.array([lateral, cap, cap]) / (lateral + 2 * cap))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = np.empty((n, 3))
    for i, w in enumerate(which):
        if w == 0:
            pts[i] = [r * np.cos(theta[i]), r * np.sin(theta[i]),
                      rng.uniform(-0.5, 0.5)]
        else:
            rad = r * np.sqrt(rng.uniform())
            pts[i] = [rad * np.cos(theta[i]), rad * np.sin(theta[i]),
                      -0.5 if w == 1 else 0.5]
    return pts


def loop_torus(n, rng):
    big, small = TORUS_MAJOR, TORUS_MINOR
    pts = np.empty((n, 3))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    for i in range(n):
        while True:
            phi = rng.uniform(0.0, 2.0 * np.pi)
            if rng.uniform() <= (big + small * np.cos(phi)) / (big + small):
                break
        rad = big + small * np.cos(phi)
        pts[i] = [rad * np.cos(theta[i]), rad * np.sin(theta[i]),
                  small * np.sin(phi)]
    return pts


LOOPS = {"cube": loop_cube, "prism": loop_prism, "cylinder": loop_cylinder,
         "torus": loop_torus}


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(sorted(LOOPS)), n=st.integers(4, 1000),
       seed=st.integers(0, 2**32 - 1))
def test_samplers_match_the_per_point_loops(kind, n, seed):
    got = make_shape(kind, n, seed=seed).positions
    assert got.tobytes() == LOOPS[kind](n, np.random.default_rng(seed)).tobytes()


class CountingGenerator:
    """A generator that counts its ``uniform`` calls."""

    def __init__(self, seed):
        self.rng, self.uniform_calls = np.random.default_rng(seed), 0

    def uniform(self, *args, **kwargs):
        self.uniform_calls += 1
        return self.rng.uniform(*args, **kwargs)


def test_torus_refill_matches_the_loop():
    # n = 4 draws 8 pairs first, which accept fewer than 4 for a few
    # percent of seeds; those draw a second batch
    refilled = 0
    for seed in range(200):
        rng = CountingGenerator(seed)
        got = shapes._torus(4, rng)
        refilled += rng.uniform_calls > 2  # ring angles, then one batch
        assert got.tobytes() == loop_torus(4, np.random.default_rng(seed)).tobytes()
    assert refilled > 0


def positions_digest(ds):
    return hashlib.sha256(b"".join(g.positions.tobytes()
                                   for g in ds.train + ds.test)).hexdigest()


def test_workload_shape_dataset_matches_the_loops(monkeypatch):
    # the shapes_positions benchmark's corpus for a 25 s run at seed 7:
    # 384 training and 4 sampling shapes of 256 points
    digest = positions_digest(generate_shape_dataset(384, 4, 256, seed=70000))
    for kind, loop in LOOPS.items():
        monkeypatch.setitem(shapes._SAMPLERS, kind, loop)
    assert digest == positions_digest(
        generate_shape_dataset(384, 4, 256, seed=70000))


def test_shape_determinism_and_seed_variation():
    a = make_shape("prism", 50, seed=5)
    b = make_shape("prism", 50, seed=5)
    c = make_shape("prism", 50, seed=6)
    np.testing.assert_array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_shape_spec_validation():
    with pytest.raises(ValueError, match="'cone'"):
        make_shape("cone", 10)
    with pytest.raises(ValueError, match="at least 4"):
        make_shape("cube", 3)


# ------------------------------------------------------ reaction-diffusion

def small_params(**kw):
    base = dict(l=40, t_end=10.0, snapshots=21, sign_convention="damped")
    base.update(kw)
    return RdParams(**base)


def test_laplacian_conserves_mass():
    u = np.random.default_rng(0).standard_normal((2, 50))
    lap = laplacian_1d(np.pad(u, [(0, 0), (1, 1)], mode="edge"))
    assert lap.shape == (2, 50)
    np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-9)


def test_zero_state_is_fixed_point():
    params = small_params()
    zeros = np.zeros((params.l, 3))
    traj = simulate_rd(params, init=zeros, alpha=zeros)
    np.testing.assert_array_equal(traj, 0.0)


def test_diffusion_only_conserves_mean():
    params = small_params(k2=0.0, k3=0.0, k4=0.0, k5=0.0, k7=0.0, k9=0.0)
    rng = np.random.default_rng(1)
    init = rng.uniform(0.0, 1.0, size=(params.l, 3))
    traj = simulate_rd(params, init=init, alpha=np.zeros((params.l, 3)))
    # bmp and wnt become pure diffusion; sox keeps its cubic self-decay
    for gene in (0, 2):
        np.testing.assert_allclose(traj[-1, :, gene].mean(),
                                   init[:, gene].mean(), atol=1e-9)
    assert traj[-1, :, 1].mean() < init[:, 1].mean()


def test_damped_convention_bounded_with_stripes():
    params = RdParams(sign_convention="damped")
    traj = simulate_rd(params, seed=0)
    assert np.abs(traj).max() < 10.0
    sox_final = traj[-1, :, GENES.index("sox")]
    sign_changes = int(np.sum(np.sign(sox_final[:-1]) != np.sign(sox_final[1:])))
    assert sign_changes >= 2  # spatial pattern, not a flat state


def test_printed_convention_runs_and_differs():
    params = RdParams(sign_convention="printed", t_end=20.0, snapshots=11)
    damped = RdParams(sign_convention="damped", t_end=20.0, snapshots=11)
    a = simulate_rd(params, seed=0)
    b = simulate_rd(damped, seed=0)
    assert not np.allclose(a, b)


def test_divergence_reports_convention():
    params = small_params(k5=-50.0, sign_convention="printed", t_end=100.0,
                          snapshots=2)
    init = np.full((params.l, 3), 1.0)
    with pytest.raises(RuntimeError, match="'printed'"):
        simulate_rd(params, init=init, alpha=np.zeros((params.l, 3)))


def test_simulation_deterministic_per_seed():
    params = small_params()
    np.testing.assert_array_equal(simulate_rd(params, seed=3),
                                  simulate_rd(params, seed=3))
    assert not np.array_equal(simulate_rd(params, seed=3),
                              simulate_rd(params, seed=4))


def serial_rd(params, init, alpha):
    """The one-trajectory Euler loop the batched simulator replaced, as the
    reference it must match byte for byte."""
    def lap(u):
        padded = np.pad(u, 1, mode="edge")
        return padded[:-2] - 2.0 * u + padded[2:]

    n_steps = int(round(params.t_end / params.dt))
    record_at = np.round(np.linspace(0, n_steps, params.snapshots)).astype(int)
    k5 = abs(params.k5) if params.sign_convention == "damped" else params.k5
    k9 = abs(params.k9) if params.sign_convention == "damped" else params.k9
    bmp, sox, wnt = np.array(init.T)
    a_bmp, a_sox, a_wnt = alpha.T
    traj = []
    for step in range(n_steps + 1):
        traj += [np.column_stack([bmp, sox, wnt])] * int(np.sum(record_at == step))
        d_sox = a_sox + params.k2 * bmp - params.k3 * wnt - sox * sox * sox
        d_bmp = a_bmp - params.k4 * sox - k5 * bmp + params.d_b * lap(bmp)
        d_wnt = a_wnt - params.k7 * sox - k9 * wnt + params.d_w * lap(wnt)
        bmp, sox, wnt = (bmp + params.dt * d_bmp, sox + params.dt * d_sox,
                         wnt + params.dt * d_wnt)
    return np.array(traj)


def seed_draws(params, seed):
    """(init, alpha) as the seed's generator draws them."""
    rng = np.random.default_rng(seed)
    init = rng.uniform(*params.alpha_range, size=(params.l, 3))
    alpha = rng.uniform(*params.alpha_range, size=(params.l, 3))
    return init, alpha


@pytest.mark.parametrize("params", [
    small_params(),
    small_params(sign_convention="printed", t_end=5.0, snapshots=11),
], ids=["damped", "printed"])
def test_batch_of_seeds_matches_serial(params):
    seeds = [3, 0, 7, 11]
    batch = simulate_rd(params, seed=seeds)
    assert batch.shape == (4, params.snapshots, params.l, 3)
    for row, seed in zip(batch, seeds):
        single = simulate_rd(params, seed=seed)
        assert single.shape == (params.snapshots, params.l, 3)
        assert row.tobytes() == single.tobytes()
        assert row.tobytes() == serial_rd(params, *seed_draws(params, seed)).tobytes()
    assert simulate_rd(params, seed=[5]).shape == (1, params.snapshots, params.l, 3)
    for bad in ([], [[1, 2]]):
        with pytest.raises(ValueError, match="non-empty 1-D sequence"):
            simulate_rd(params, seed=bad)


def test_batch_of_explicit_inputs_matches_serial():
    params = small_params()
    rng = np.random.default_rng(2)
    inits = rng.uniform(-0.5, 0.5, size=(3, params.l, 3))
    alphas = rng.uniform(-0.05, 0.05, size=(3, params.l, 3))
    batch = simulate_rd(params, init=inits, alpha=alphas)
    shared = simulate_rd(params, init=inits, alpha=alphas[1])
    assert batch.shape == shared.shape == (3, params.snapshots, params.l, 3)
    for b in range(3):
        ref = serial_rd(params, inits[b], alphas[b]).tobytes()
        assert batch[b].tobytes() == ref
        assert simulate_rd(params, init=inits[b], alpha=alphas[b]).tobytes() == ref
        assert shared[b].tobytes() == serial_rd(params, inits[b], alphas[1]).tobytes()
    with pytest.raises(ValueError, match="B x l x 3"):
        simulate_rd(params, init=inits[:, :-1], alpha=alphas)


def test_divergence_names_the_diverging_seed_and_its_step():
    params = small_params()
    seeds = [4, 9, 6]
    alphas = np.zeros((3, params.l, 3))
    alphas[1, params.l // 2, 1] = 3000.0  # sox overshoots, then explodes
    with pytest.raises(RuntimeError) as serial:
        simulate_rd(params, seed=9, alpha=alphas[1])
    step = re.search(r"step (\d+)", str(serial.value)).group(1)
    assert int(step) > 1
    with pytest.raises(RuntimeError,
                       match=f"seed 9 diverged at step {step} .*'damped'"):
        simulate_rd(params, seed=seeds, alpha=alphas)
    # with both inputs given there is no seed: the row index is named
    inits = np.zeros((3, params.l, 3))
    with pytest.raises(RuntimeError, match=f"row 1 diverged at step {step} "):
        simulate_rd(params, init=inits, alpha=alphas)


def test_dataset_chunks_match_per_seed_serial(monkeypatch):
    params = small_params()

    def per_seed(params, seed):
        return np.stack([simulate_rd(params, seed=int(s)) for s in seed])

    monkeypatch.setattr(dataset, "simulate_rd", per_seed)
    ref = generate_rd_dataset(n_train=3, n_test=2, seed=5, params=params)

    calls = []

    def counted(params, seed):
        calls.append(list(seed))
        return simulate_rd(params, seed=seed)

    monkeypatch.setattr(dataset, "simulate_rd", counted)
    monkeypatch.setattr(dataset, "RD_CHUNK", 2)
    ds = generate_rd_dataset(n_train=3, n_test=2, seed=5, params=params)
    assert calls == [[5, 6], [7, 8], [9]]
    assert ds.manifest == ref.manifest
    assert [g.features.shape for g in ds.train + ds.test] == [(100, 3)] * 3 + [(96, 3)] * 2
    for g, r in zip(ds.train + ds.test, ref.train + ref.test, strict=True):
        assert g.features.tobytes() == r.features.tobytes()
        assert g.positions.tobytes() == r.positions.tobytes()


def test_params_validation():
    with pytest.raises(ValueError):
        RdParams(sign_convention="absolute")
    with pytest.raises(ValueError):
        RdParams(dt=0.5, d_w=2.5)  # violates explicit stability bound
    with pytest.raises(ValueError):
        RdParams(l=2)
    # 4 Euler steps record at most 5 distinct snapshots
    assert RdParams(l=10, t_end=0.2, snapshots=5).n_steps == 4
    with pytest.raises(ValueError, match="10 snapshots need at least 9"):
        RdParams(l=10, t_end=0.2, snapshots=10)


# ---------------------------------------------------- graph construction

def subsampled(traj, n_space, n_time):
    """The raw gene values at the even (time, space) subsample, row-major."""
    t_idx = np.round(np.linspace(0, traj.shape[0] - 1, n_time)).astype(int)
    s_idx = np.round(np.linspace(0, traj.shape[1] - 1, n_space)).astype(int)
    return traj[np.ix_(t_idx, s_idx)].reshape(-1, 3)


def test_spatiotemporal_graph_shapes():
    traj = simulate_rd(small_params(), seed=5)
    g10 = build_spatiotemporal_graph(traj, 10, 10)
    assert g10.n_nodes == 100 and g10.positions.shape == (100, 2)
    g812 = build_spatiotemporal_graph(traj, 8, 12)
    assert g812.n_nodes == 96
    assert g10.positions.min() >= -0.5 and g10.positions.max() <= 0.5
    # features are the subsampled trajectory values themselves, unscaled
    assert g10.features.tobytes() == subsampled(traj, 10, 10).tobytes()
    assert g812.features.tobytes() == subsampled(traj, 8, 12).tobytes()


def test_rd_dataset_scales_raw_values_once():
    params = small_params()
    ds = generate_rd_dataset(n_train=3, n_test=2, seed=4, params=params)
    trajectories = simulate_rd(params, seed=range(4, 9))
    raw = [subsampled(traj, *(TRAIN_SHAPE if i < 3 else TEST_SHAPE))
           for i, traj in enumerate(trajectories)]
    stacked = np.concatenate(raw)
    lo, hi = stacked.min(axis=0), stacked.max(axis=0)
    for key, bound in (("feature_min", lo), ("feature_max", hi)):
        recorded = np.array(ds.manifest[key].split(), dtype=np.float64)
        assert recorded.tobytes() == bound.tobytes()
    for g, x in zip(ds.train + ds.test, raw, strict=True):
        assert g.features.tobytes() == ((x - lo) / (hi - lo) - 0.5).tobytes()


def test_subsample_count_validation():
    traj = simulate_rd(small_params(), seed=7)
    with pytest.raises(ValueError):
        build_spatiotemporal_graph(traj, 10, 1000)


# ---------------------------------------------------------------- dataset

def test_rd_dataset_and_roundtrip(tmp_path):
    ds = generate_rd_dataset(n_train=3, n_test=2, seed=0,
                             params=small_params())
    assert len(ds.train) == 3 and len(ds.test) == 2
    assert all(g.n_nodes == 100 for g in ds.train)
    assert all(g.n_nodes == 96 for g in ds.test)
    feats = np.concatenate([g.features for g in ds.train + ds.test])
    np.testing.assert_allclose(feats.min(axis=0), -0.5, atol=1e-12)
    np.testing.assert_allclose(feats.max(axis=0), 0.5, atol=1e-12)
    assert ds.manifest["convention"] == "damped"

    save_dataset(tmp_path / "ds", ds)
    back = load_dataset(tmp_path / "ds")
    assert back.manifest == {k: str(v) for k, v in ds.manifest.items()}
    for a, b in zip(ds.train + ds.test, back.train + back.test):
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.positions, b.positions)


def test_shape_dataset_cycles_kinds(tmp_path):
    ds = generate_shape_dataset(n_train=7, n_test=2, n_points=32, seed=0)
    assert len(ds.train) == 7 and len(ds.test) == 2
    assert all(g.n_nodes == 32 for g in ds.train + ds.test)
    # consecutive graphs come from different kinds, so differ structurally
    assert not np.array_equal(ds.train[0].positions, ds.train[5].positions)
    save_dataset(tmp_path / "shapes", ds)
    back = load_dataset(tmp_path / "shapes")
    np.testing.assert_array_equal(back.train[3].positions,
                                  ds.train[3].positions)
    # shape features are unscaled centroid offsets: no bounds are recorded
    assert [k for k in back.manifest if k.startswith("feature_")] == []


def test_manifest_bad_line_reports_location(tmp_path):
    d = tmp_path / "ds"
    (d / "train").mkdir(parents=True)
    (d / "test").mkdir()
    (d / "manifest").write_text("kind: shapes\nbroken-line\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(d)
