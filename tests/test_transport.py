import itertools
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from ncgn import dataset, transport
from ncgn.transport import GwResult, gw_entropic, w2_exact


def cloud(arr):
    return np.asarray(arr, dtype=np.float64)


def rotate(points, theta):
    c, s = np.cos(theta), np.sin(theta)
    return points @ np.array([[c, -s], [s, c]]).T


def brute_force_w2(a, b):
    m = a.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(m)):
        best = min(best, np.sum((a - b[list(perm)]) ** 2))
    return np.sqrt(best / m)


def test_w2_identical_clouds_zero():
    pts = np.random.default_rng(0).standard_normal((10, 3))
    assert w2_exact(cloud(pts), cloud(pts)) == 0.0


def test_w2_point_examples():
    assert w2_exact(cloud([[0.0]]), cloud([[1.0]])) == pytest.approx(1.0)
    a = cloud([[0.0], [1.0]])
    b = cloud([[0.5], [1.5]])
    assert w2_exact(a, b) == pytest.approx(0.5)


def test_w2_matches_bruteforce():
    rng = np.random.default_rng(1)
    for trial in range(100):
        m = int(rng.integers(2, 8))
        a = rng.standard_normal((m, 2))
        b = rng.standard_normal((m, 2))
        assert w2_exact(cloud(a), cloud(b)) == pytest.approx(
            brute_force_w2(a, b), abs=1e-12)


def test_w2_metric_axioms():
    rng = np.random.default_rng(2)
    a, b, c = (cloud(rng.standard_normal((12, 3))) for _ in range(3))
    dab, dba = w2_exact(a, b), w2_exact(b, a)
    assert abs(dab - dba) < 1e-9
    assert w2_exact(a, c) <= dab + w2_exact(b, c) + 1e-9


def test_w2_size_mismatch():
    with pytest.raises(ValueError):
        w2_exact(cloud(np.zeros((3, 2))), cloud(np.zeros((4, 2))))


def test_points_must_be_m_by_q():
    flat, ok = np.zeros(4), np.zeros((4, 1))
    for a, b in ((flat, ok), (ok, flat)):
        with pytest.raises(ValueError, match="2-dimensional"):
            w2_exact(a, b)
        with pytest.raises(ValueError, match="2-dimensional"):
            gw_entropic(a, b)


def test_empty_clouds_named_before_any_work():
    empty, ok = np.zeros((0, 2)), np.zeros((3, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^a is an empty cloud"):
            w2_exact(empty, empty)
        for a, b, name in ((empty, ok, "a"), (ok, empty, "b")):
            with pytest.raises(ValueError, match=f"^{name} is an empty cloud"):
                gw_entropic(a, b)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), m=st.integers(1, 20),
       kind=st.sampled_from(["normal", "grid", "duplicates"]),
       scale_exp=st.integers(-3, 3), seed=st.integers(0, 2**16))
def test_distance_matrix_is_cdist_bytes(d, m, kind, scale_exp, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        x = rng.standard_normal((m, d))
    elif kind == "grid":
        x = rng.integers(-4, 5, size=(m, d)) * 0.25
    else:  # every point drawn from three distinct ones
        x = rng.standard_normal((3, d))[rng.integers(0, 3, size=m)]
    x = x * 10.0**scale_exp
    assert transport._euclidean_distances(x).tobytes() == cdist(x, x).tobytes()


def test_gw_study_and_theory_load_no_scipy_submodule():
    # a fresh process: theory, both datasets and the GW study run on numpy
    # alone; scipy.optimize arrives with the first evaluate_w2
    code = """
import sys
import ncgn, ncgn.dataset, ncgn.cli
from ncgn import engine, theory
ncgn.dataset.generate_rd_dataset(n_train=1, n_test=1)
shapes = ncgn.dataset.generate_shape_dataset(n_train=1, n_test=1, n_points=16)
engine.gw_study(shapes.train, noise_grid=(0.5,), cluster_grid=(4, 16),
                n_shapes=1, n_seeds=1, iters=3)
theory.radius_sweep((1.0,))
theory.mc_sq_distance(0.5, 1.0, 0.0, n_draws=10**4)
heavy = ("scipy.optimize", "scipy.spatial", "scipy.sparse", "scipy.special")
print(*[name for name in heavy if name in sys.modules])
engine.evaluate_w2(shapes.train, shapes.test, "positions", replicates=1,
                   subsample=8)
print("scipy.optimize" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(transport.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["", "True"]


def test_gw_self_distance_near_zero():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((20, 3))
    assert gw_entropic(cloud(pts), cloud(pts), eps=0.02, iters=200) <= 1e-6


def test_gw_rotation_invariance():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((64, 2))
    rotated = rotate(pts, 0.7) + np.array([3.0, -1.0])
    val = gw_entropic(cloud(pts), cloud(rotated), eps=0.002, iters=1000)
    assert val <= 1e-6


def test_gw_two_point_example():
    # distance matrices [[0,1],[0,1]] vs [[0,2],[2,0]]: optimal coupling is
    # diagonal, objective sum pi_ij pi_kl (d_ik - d_jl)^2 = 2 * (1/4) * 1 = 0.5
    a = cloud([[0.0], [1.0]])
    b = cloud([[0.0], [2.0]])
    val = gw_entropic(a, b, eps=0.005, iters=500)
    assert val == pytest.approx(0.5, abs=0.01)


def test_gw_symmetry():
    rng = np.random.default_rng(5)
    a = cloud(rng.standard_normal((15, 2)))
    b = cloud(rng.standard_normal((15, 2)) * 1.5)
    dab = gw_entropic(a, b, eps=0.02, iters=500)
    dba = gw_entropic(b, a, eps=0.02, iters=500)
    assert abs(dab - dba) <= 1e-6


def test_gw_objective_decreases_with_eps():
    rng = np.random.default_rng(6)
    a = cloud(rng.standard_normal((25, 3)))
    b = cloud(rng.standard_normal((25, 3)) @ np.diag([1.0, 0.5, 2.0]))
    vals = [gw_entropic(a, b, eps=e) for e in (0.5, 0.1, 0.02)]
    assert vals[0] >= vals[1] >= vals[2] >= 0.0


def test_gw_details_and_convergence_flag():
    rng = np.random.default_rng(7)
    a = cloud(rng.standard_normal((10, 2)))
    b = cloud(rng.standard_normal((10, 2)))
    res = gw_entropic(a, b, eps=0.05, iters=1, return_details=True)
    assert isinstance(res, GwResult)
    assert not res.converged
    np.testing.assert_allclose(res.coupling.sum(), 1.0, atol=1e-6)
    np.testing.assert_allclose(res.coupling.sum(axis=1), 0.1, atol=1e-6)


def test_gw_converged_needs_every_inner_solve(monkeypatch):
    # the outer loop meets its tolerance after a few steps either way; with
    # one Sinkhorn iteration per solve the early row marginals stay off
    a, b = cloud([[0.0], [1.0]]), cloud([[0.0], [2.0]])
    assert gw_entropic(a, b, eps=0.005, iters=500, return_details=True).converged
    solve = transport._sinkhorn_log
    calls = []

    def capped(*args, **kwargs):
        out = solve(*args, **dict(kwargs, max_iter=1))
        calls.append(np.abs(np.exp(out[0]).sum(axis=1) - args[1]).max())
        return out

    monkeypatch.setattr(transport, "_sinkhorn_log", capped)
    res = gw_entropic(a, b, eps=0.005, iters=500, return_details=True)
    assert len(calls) < 500 and max(calls) > transport.SINKHORN_TOL
    assert not res.converged


def test_gw_size_guard():
    big = cloud(np.zeros((513, 2)))
    with pytest.raises(ValueError):
        gw_entropic(big, big)
    small = cloud(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        gw_entropic(small, small, eps=0.0)
    with pytest.raises(ValueError, match="eps"):
        gw_entropic(small, small, eps=float("nan"))
    for iters in (0, -3):
        with pytest.raises(ValueError, match="iters"):
            gw_entropic(small, small, iters=iters)


def test_gw_deterministic():
    rng = np.random.default_rng(8)
    a = cloud(rng.standard_normal((12, 3)))
    b = cloud(rng.standard_normal((12, 3)))
    assert gw_entropic(a, b) == gw_entropic(a, b)


# ---------------------------------------------------------------- Sinkhorn


def study_sinkhorn_calls():
    """The (args, kwargs) of the first three Sinkhorn solves of a 64-point
    study cell: a shape noised at t = 0.5 against its clean cloud, eps 0.05
    (one cold start, then two warm starts)."""
    g = dataset.generate_shape_dataset(n_train=1, n_test=0, n_points=64,
                                       seed=0).train[0]
    noised = g.positions + 0.5 * np.random.default_rng(0).standard_normal(
        g.positions.shape)
    calls = []
    solve = transport._sinkhorn_log

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return solve(*args, **kwargs)

    transport._sinkhorn_log = record
    try:
        gw_entropic(cloud(noised), cloud(g.positions), eps=0.05, iters=3)
    finally:
        transport._sinkhorn_log = solve
    return calls


def normal_cost(eps, offset=0.0):
    # seed 1 converges to tol within 5000 iterations at eps 0.01; most
    # standard-normal costs need far more at that eps
    cost = np.random.default_rng(1).standard_normal((30, 40)) + offset
    return (cost, np.full(30, 1 / 30), np.full(40, 1 / 40), eps), {
        "max_iter": 5000}


reference_sinkhorn = transport._sinkhorn_log_domain


def count_fallbacks(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return reference_sinkhorn(*args, **kwargs)

    monkeypatch.setattr(transport, "_sinkhorn_log_domain", counted)
    return calls


@pytest.mark.parametrize("case", ["study", "normal", "offset"])
def test_sinkhorn_matches_log_domain(case, monkeypatch):
    # measured coupling deviation from the log-domain loop: at most 3.1e-12
    # on the study calls, 1.9e-11 on the normal cost; both loops stop once
    # the row marginal is within tol, at different iterations. "offset"
    # lowers the normal cost by 10: exp(-cost / eps) reaches e^1200, so only
    # the row shift keeps the kernel finite
    calls = {"study": study_sinkhorn_calls,
             "normal": lambda: [normal_cost(0.01)],
             "offset": lambda: [normal_cost(0.01, offset=-10.0)]}[case]()
    atol = {"study": 1e-10, "normal": 1e-9, "offset": 1e-9}[case]
    fallbacks = count_fallbacks(monkeypatch)
    for args, kwargs in calls:
        cost, p, q, eps = args
        log_t, f, g = transport._sinkhorn_log(*args, **kwargs)
        assert fallbacks == []
        ref, _, _ = reference_sinkhorn(*args, **kwargs)
        coupling = np.exp(log_t)
        assert np.abs(coupling.sum(axis=1) - p).max() < 1e-9
        assert np.abs(coupling.sum(axis=0) - q).max() < 1e-9
        np.testing.assert_allclose(coupling, np.exp(ref), rtol=0, atol=atol)
        np.testing.assert_allclose(log_t, (f[:, None] + g[None, :] - cost) / eps,
                                   rtol=0, atol=1e-12)


def test_sinkhorn_falls_back_where_kernel_underflows(monkeypatch):
    # at eps 1e-3 whole columns of the row-stabilised kernel underflow to 0;
    # at eps 0.01 the same cost stays on the scaling path
    fallbacks = count_fallbacks(monkeypatch)
    args, kwargs = normal_cost(0.01)
    log_t, _, _ = transport._sinkhorn_log(*args, **kwargs)
    assert fallbacks == []
    ref, _, _ = reference_sinkhorn(*args, **kwargs)
    np.testing.assert_allclose(np.exp(log_t), np.exp(ref), rtol=0, atol=1e-9)

    args, kwargs = normal_cost(1e-3)
    out = transport._sinkhorn_log(*args, **kwargs)
    assert len(fallbacks) == 1
    ref = reference_sinkhorn(*args, **kwargs)
    for got, want in zip(out, ref):
        np.testing.assert_array_equal(got, want)


def subnormal_column_cost():
    # every entry of column 2 of the kernel is e^-709.5, about 7.4e-309:
    # subnormal, yet K'u there is large enough for a finite v
    rng = np.random.default_rng(0)
    cost = rng.uniform(0.0, 5.0, (6, 5))
    cost[:, 2] = cost.min(axis=1) + 709.5
    return (cost, np.full(6, 1 / 6), np.full(5, 1 / 5), 1.0), {}


def test_sinkhorn_falls_back_where_a_kernel_column_is_subnormal(monkeypatch):
    # the flushed column is zero, so its v turns infinite and the solve
    # reruns in the log domain; the scaling loop on the subnormal column
    # was 2e-10 off the log-domain coupling
    fallbacks = count_fallbacks(monkeypatch)
    args, kwargs = subnormal_column_cost()
    cost, p, q, eps = args
    k = np.exp(-cost / eps + (cost / eps).min(axis=1)[:, None])
    assert (k[:, 2] < np.finfo(np.float64).tiny).all() and (k[:, 2] > 0).all()
    log_t, _, _ = transport._sinkhorn_log(*args, **kwargs)
    assert len(fallbacks) == 1
    ref, _, _ = reference_sinkhorn(*args, **kwargs)
    np.testing.assert_allclose(np.exp(log_t), np.exp(ref), rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.exp(log_t).sum(axis=0), q, rtol=0, atol=1e-9)


# ------------------------------------------- equivalence with the old loop


def positive_finite_reference(x):
    return bool(np.all((x > 0) & (x < np.inf)))


def sinkhorn_reference(cost, p, q, eps, max_iter=2000,
                       tol=transport.SINKHORN_TOL, f=None, g=None):
    """``_sinkhorn_log`` before its loop ran in preallocated buffers: fresh
    arrays each iteration, and a check that computes its own K v."""
    f0 = np.zeros(len(p)) if f is None else f
    g0 = np.zeros(len(q)) if g is None else g
    log_k = (f0[:, None] + g0[None, :] - cost) / eps
    shift = log_k.max(axis=1)
    k = np.exp(log_k - shift[:, None])
    k_t = np.ascontiguousarray(k.T)
    v = np.ones(len(q))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            u = p / (k @ v)
            v = q / (k_t @ u)
            if it % 10 == 0 or it == max_iter:
                if not (positive_finite_reference(u)
                        and positive_finite_reference(v)):
                    return transport._sinkhorn_log_domain(
                        cost, p, q, eps, max_iter, tol, f=f, g=g)
                if np.abs(u * (k @ v) - p).max() < tol:
                    break
    f_new = f0 + eps * (np.log(u) - shift)
    g_new = g0 + eps * np.log(v)
    log_t = (f_new[:, None] + g_new[None, :] - cost) / eps
    return log_t, f_new, g_new


def gw_cost_gradient_reference(c1, c2, coupling, p, q):
    """The GW gradient before its constant term was computed once per
    solve."""
    const = (c1**2 @ p)[:, None] + (c2**2 @ q)[None, :]
    return const - 2.0 * c1 @ coupling @ c2


def gw_entropic_reference(*args, **kwargs):
    """``gw_entropic`` on the reference loop and gradient."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "_sinkhorn_log", sinkhorn_reference)
        patch.setattr(transport, "_gw_gradient", lambda c1, c2, p, q: (
            lambda coupling: gw_cost_gradient_reference(c1, c2, coupling, p, q)))
        return gw_entropic(*args, **kwargs)


def warm_cost():
    # a normal cost with random warm-start potentials
    (cost, p, q, eps), kwargs = normal_cost(0.01)
    rng = np.random.default_rng(2)
    return (cost, p, q, eps), dict(kwargs, f=0.01 * rng.standard_normal(30),
                                   g=0.01 * rng.standard_normal(40))


def capped(calls, max_iter):
    return [(args, dict(kwargs, max_iter=max_iter)) for args, kwargs in calls]


SINKHORN_CASES = {
    "study": study_sinkhorn_calls,
    "normal": lambda: [normal_cost(0.01)],
    "offset": lambda: [normal_cost(0.01, offset=-10.0)],
    "warm": lambda: [warm_cost()],
    "underflow": lambda: [normal_cost(1e-3)],
    # both edges of the first two 10-iteration blocks; the underflow cost
    # falls back at its first check at every cap, which at 1 and 9 is the
    # check at it == max_iter
    **{f"max_iter={n}": (lambda n=n: capped(
        study_sinkhorn_calls() + [normal_cost(0.01), warm_cost(),
                                  normal_cost(1e-3)], n))
       for n in (1, 9, 10, 11, 19, 20, 21)},
}


@pytest.mark.parametrize("case", sorted(SINKHORN_CASES))
def test_sinkhorn_loop_matches_the_reference_bytes(case, monkeypatch):
    fallbacks = count_fallbacks(monkeypatch)
    for args, kwargs in SINKHORN_CASES[case]():
        got = transport._sinkhorn_log(*args, **kwargs)
        want = sinkhorn_reference(*args, **kwargs)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    # the underflow solve falls back once in each loop; no other solve does
    underflows = case == "underflow" or case.startswith("max_iter")
    assert len(fallbacks) == (2 if underflows else 0)


def scattered_subnormal_cost(seed):
    """A cost whose kernel holds subnormal entries in about a third of each
    row's places, every row and column keeping normal ones."""
    rng = np.random.default_rng(seed)
    m, n = rng.integers(5, 40, 2)
    cost = rng.uniform(0.0, 50.0, (m, n))
    scattered = rng.random((m, n)) < 0.3
    scattered[np.arange(n) % m, np.arange(n)] = False
    scattered[np.arange(m), np.arange(m) % n] = False
    row_min = np.broadcast_to(cost.min(axis=1, keepdims=True), cost.shape)
    cost[scattered] = row_min[scattered] + rng.uniform(709.0, 744.0,
                                                       scattered.sum())
    return (cost, np.full(m, 1 / m), np.full(n, 1 / n), 1.0), {}


@pytest.mark.parametrize("seed", range(8))
def test_flushing_scattered_subnormals_keeps_the_bytes(seed, monkeypatch):
    # the loop without the flush (sinkhorn_reference) reads the subnormal
    # entries; every output keeps its bytes
    fallbacks = count_fallbacks(monkeypatch)
    args, kwargs = scattered_subnormal_cost(seed)
    cost, _, _, eps = args
    k = np.exp(-cost / eps + (cost / eps).min(axis=1)[:, None])
    assert ((k > 0) & (k < np.finfo(np.float64).tiny)).sum() > k.size // 5
    got = transport._sinkhorn_log(*args, **kwargs)
    want = sinkhorn_reference(*args, **kwargs)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    assert fallbacks == []


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 40), n=st.integers(1, 40), d=st.integers(1, 3),
       eps=st.sampled_from([0.005, 0.05, 0.5]), iters=st.integers(1, 60),
       seed=st.integers(0, 2**16))
def test_gw_entropic_matches_the_reference(m, n, d, eps, iters, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((m, d)), rng.standard_normal((n, d))
    want = gw_entropic_reference(a, b, eps=eps, iters=iters,
                                 return_details=True)
    got = gw_entropic(a, b, eps=eps, iters=iters, return_details=True)
    assert got.value == want.value
    assert got.coupling.tobytes() == want.coupling.tobytes()
    assert got.converged == want.converged


SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2e-308, 1.0, -1.0]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
                       min_size=1, max_size=12))
def test_positive_finite_matches_the_reference(values):
    x = np.array(values, dtype=np.float64)
    assert transport._positive_finite(x) == positive_finite_reference(x)


@pytest.mark.parametrize("value", SPECIAL_FLOATS)
def test_positive_finite_on_one_special_value(value):
    x = np.array([value])
    assert transport._positive_finite(x) == positive_finite_reference(x)
    assert transport._positive_finite(x) == (value in (5e-324, 2.2e-308, 1.0))
