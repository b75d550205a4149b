"""End-to-end acceptance gate.

Fast criteria run inline. The three long studies (GW coarsening, attention
vs distance, transcriptomics benchmark) assert on the CSV artifacts checked
in under artifacts/, which scripts/run_studies.sh and
scripts/run_transcriptomics.sh regenerate from scratch with fixed seeds.
"""

import csv
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from ncgn import theory
from ncgn.dmp import DmpModel, Structure, node_input
from ncgn.engine import StructureCache, TrainConfig, merged_forward
from ncgn.graphs import (
    GeometricGraph,
    build_knn_edges,
    build_long_short_edges,
    build_fully_connected_edges,
    voxel_coarsen,
)
from ncgn.reaction_diffusion import RdParams, simulate_rd
from ncgn.schedule import SCHEDULE_KINDS, default_bounds, eval_schedule
from ncgn.tensor import grad
from ncgn.transport import PointCloud, gw_entropic, w2_exact

ARTIFACTS = os.path.join(os.path.dirname(__file__), "..", "artifacts")


def read_rows(relpath):
    path = os.path.join(ARTIFACTS, relpath)
    if not os.path.exists(path):
        pytest.fail(
            f"missing artifact {relpath}; regenerate with "
            "scripts/run_studies.sh / scripts/run_transcriptomics.sh"
        )
    with open(path) as fh:
        return list(csv.DictReader(fh))


def random_graph(n, d=2, f=3, seed=0):
    rng = np.random.default_rng(seed)
    return GeometricGraph(rng.standard_normal((n, f)),
                          rng.standard_normal((n, d)))


def forward(model, g, t, method="dmp", k=8, seed=0, cache=None):
    """Batch-of-one merged_forward, the pass training and sampling run."""
    config = TrainConfig(method=method, knn_k=k, seed=seed)
    part = (g.positions, node_input(g.features, g.positions, t), t)
    return merged_forward(model, [part], config,
                          StructureCache() if cache is None else cache)


class SingletonCache(StructureCache):
    """Hands the DMP path one-to-one clusters and a fixed edge list."""

    def __init__(self, edges):
        super().__init__()
        self.edges = edges

    def dmp(self, positions, s_t, r_t):
        return Structure(np.arange(positions.shape[0], dtype=np.intp),
                         positions, self.edges)


# criterion 1: optimal aggregation radius reproduction
def test_radius_curve():
    snrs = np.logspace(np.log10(0.25), np.log10(16.0), 12)
    rows = theory.radius_sweep(snrs)
    r_stars = [r for _, r, _ in rows]
    assert all(0.0 < r < 1.0 for r in r_stars)
    assert all(b <= a + 1e-10 for a, b in zip(r_stars, r_stars[1:]))
    assert theory.optimal_radius(1.0) == pytest.approx(0.652, abs=0.005)
    for r in np.linspace(0.05, 1.0, 20):
        for c in np.logspace(-1, 1, 20):
            mi = theory.mutual_information_numeric(float(r), float(c))
            kc = theory.kappa_closed(float(r), float(c))
            assert abs(np.exp(2.0 * mi) - kc) <= 1e-6


# criterion 2: squared-distance formula arbitration by Monte Carlo
def test_sq_distance_arbitration():
    n = 10**6
    gamma = 1.0
    flags = []
    for t in (0.0, 0.25, 0.5, 0.75, 0.99):
        for rho in (-0.9, -0.45, 0.0, 0.45, 0.9):
            printed, consistent = theory.expected_sq_distance(t, gamma, rho)
            mc = theory.mc_sq_distance(t, gamma, rho, n_draws=n, seed=0)
            var = 8.0 * (1.0 - t) ** 2 * (1.0 - rho) ** 2 \
                + 4.0 * gamma**2 * (1.0 - t) * (1.0 - rho)
            se = np.sqrt(max(var, 1e-30) / n)
            assert abs(mc - consistent) <= 3.0 * se + 1e-9
            flags.append(abs(mc - printed) < abs(mc - consistent))
    # the as-printed form does not win everywhere it differs
    assert not all(flags)


# criterion 3: gradient suite over every parameter, both message passings
@pytest.mark.parametrize("mp_kind", ["gcn", "gat"])
def test_full_gradient_suite(mp_kind):
    g = random_graph(12, seed=0)
    model = DmpModel(d_in=6, d=2, odim=3, hdim=8, layers=2,
                     mp_kind=mp_kind, seed=0)
    target = np.random.default_rng(1).standard_normal((12, 3))

    def loss_value():
        out = forward(model, g, 0.5)
        return ((out - target) ** 2).mean()

    params = model.parameters()
    grads = grad(loss_value(), params)
    h = 1e-5
    bad = 0
    for p in params:
        flat = p.data.ravel()
        gflat = grads[id(p)].data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float(loss_value().data)
            flat[i] = orig - h
            lo = float(loss_value().data)
            flat[i] = orig
            fd = (hi - lo) / (2 * h)
            if abs(gflat[i] - fd) > 1e-3 * max(1.0, abs(fd)):
                bad += 1
    assert bad == 0


# criterion 4: identity reduction to the fixed baselines
@pytest.mark.parametrize("mp_kind", ["gcn", "gat"])
def test_identity_reduction(mp_kind):
    for seed in range(10):
        g = random_graph(8, seed=seed)
        model = DmpModel(d_in=6, d=2, odim=2, hdim=8, layers=2,
                         mp_kind=mp_kind, seed=seed)
        model.eval()
        for kind, edges in (
            ("knn_fixed", build_knn_edges(g.positions, 3)),
            ("fully_connected", build_fully_connected_edges(8)),
            ("long_short", build_long_short_edges(g.positions, 3, seed)),
        ):
            base = forward(model, g, 0.3, kind, k=3, seed=seed).data
            ours = forward(model, g, 0.3, cache=SingletonCache(edges)).data
            np.testing.assert_allclose(ours, base, atol=1e-9)


# criterion 5: linear message complexity in budget mode
def test_linear_complexity_invariant():
    for n in (64, 400, 1000):
        g = random_graph(n, seed=n)
        spec = default_bounds(n)
        worst = 0
        for t in np.linspace(0.0, 1.0, 101):
            r_t, s_t = eval_schedule(spec, float(t), n)
            _, coarse = voxel_coarsen(g.positions, s_t)
            edges = build_knn_edges(coarse, r_t)
            worst = max(worst, edges.shape[0])
        assert worst <= 1.25 * spec.r1 * n


# criterion 6: scheduler boundary and monotonicity over all four kinds
def test_scheduler_suite():
    n = 400
    for kind in SCHEDULE_KINDS:
        spec = default_bounds(n, kind)
        grid = np.linspace(0.0, 1.0, 1001)
        rs, ss = zip(*(eval_schedule(spec, float(t), n) for t in grid))
        assert ss[0] == spec.s0 and ss[-1] == spec.s1
        assert rs[-1] == spec.r1
        assert rs[0] >= rs[-1] and rs[0] >= spec.s0 - 1
        assert all(b <= a for a, b in zip(rs, rs[1:]))
        assert all(b >= a for a, b in zip(ss, ss[1:]))


# criterion 7: transport oracles
def test_transport_oracles():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(2, 8))
        a = rng.standard_normal((m, 2))
        b = rng.standard_normal((m, 2))
        best = min(np.sum((a - b[list(perm)]) ** 2)
                   for perm in itertools.permutations(range(m)))
        assert w2_exact(PointCloud(a), PointCloud(b)) == pytest.approx(
            np.sqrt(best / m), abs=1e-12)

    pts = rng.standard_normal((64, 2))
    th = 0.9
    rot = pts @ np.array([[np.cos(th), -np.sin(th)],
                          [np.sin(th), np.cos(th)]]).T
    assert gw_entropic(PointCloud(pts), PointCloud(rot),
                       eps=0.002, iters=1000) <= 1e-6

    eps = 0.005
    val = gw_entropic(PointCloud(np.array([[0.0], [1.0]])),
                      PointCloud(np.array([[0.0], [2.0]])),
                      eps=eps, iters=500)
    assert abs(val - 0.5) <= 10 * eps


# criterion 8: coarsening study trend (precomputed artifact)
def test_gw_study_argmin_trend():
    rows = read_rows("gw_study/gw_argmin.csv")
    assert len(rows) == 5
    # rows are ordered from the cleanest noise level down; the optimal
    # cluster count must not increase as noise grows (ties allowed)
    ts = [float(r["t"]) for r in rows]
    assert ts == sorted(ts, reverse=True)
    argmins = [int(r["argmin_clusters"]) for r in rows]
    assert all(b <= a for a, b in zip(argmins, argmins[1:]))
    assert argmins[0] > argmins[-1]  # the trend is non-trivial


# criterion 9: attention shifts to distant nodes under noise (artifact)
def test_attention_distance_trend():
    rows = read_rows("attention_study/attention.csv")
    mean_dist = {}
    for r in rows:
        center = 0.5 * (float(r["bin_lo"]) + float(r["bin_hi"]))
        t = float(r["t_bucket"])
        mean_dist[t] = mean_dist.get(t, 0.0) + center * float(r["weight"])
    noisiest, cleanest = min(mean_dist), max(mean_dist)
    assert mean_dist[noisiest] > mean_dist[cleanest]


# criterion 10: transcriptomics benchmark ordering (precomputed artifact)
def test_transcriptomics_benchmark():
    w2 = {}
    for method in ("dmp", "knn_fixed", "random_pred"):
        rows = read_rows(f"transcriptomics/{method}.csv")
        assert len(rows) == 1
        w2[method] = float(rows[0]["w2_mean"])
    assert w2["dmp"] < w2["random_pred"]
    assert w2["dmp"] <= 1.1 * w2["knn_fixed"]


# criterion 11: reaction-diffusion validity
def test_reaction_diffusion_validity():
    params = RdParams(sign_convention="damped")
    zeros = np.zeros((params.l, 3))
    small = RdParams(l=40, t_end=5.0, snapshots=11, sign_convention="damped")
    traj = simulate_rd(small, init=np.zeros((40, 3)), alpha=np.zeros((40, 3)))
    np.testing.assert_array_equal(traj, 0.0)

    diff_only = RdParams(l=40, t_end=5.0, snapshots=11, k2=0, k3=0, k4=0,
                         k5=0, k7=0, k9=0, sign_convention="damped")
    rng = np.random.default_rng(0)
    init = rng.uniform(0.0, 1.0, size=(40, 3))
    traj = simulate_rd(diff_only, init=init, alpha=np.zeros((40, 3)))
    n_steps = int(round(diff_only.t_end / diff_only.dt))
    for gene in (0, 2):  # the two diffusive channels
        drift = abs(traj[-1, :, gene].mean() - init[:, gene].mean())
        assert drift <= 1e-9 * n_steps

    full = simulate_rd(params, seed=0)
    assert np.isfinite(full).all() and np.abs(full).max() < 1e3
    sox = full[-1, :, 1]
    changes = int(np.sum(np.sign(sox[:-1]) != np.sign(sox[1:])))
    assert changes >= 2


# criterion 12: byte-identical CSVs for seeded CLI runs
def test_cli_reproducibility(tmp_path):
    # the subprocess imports the same ncgn package as this process
    src = os.path.dirname(os.path.dirname(theory.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def cli(*args):
        out = subprocess.run([sys.executable, "-m", "ncgn.cli", *args],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        return out.stdout

    shapes = tmp_path / "shapes"
    cli("make-shapes", f"out_dir={shapes}", "n_train=4", "n_test=2",
        "n_points=16", "seed=0")
    data = tmp_path / "data"
    cli("simulate-data", f"out_dir={data}", "n_train=2", "n_test=2", "seed=0")

    outputs = {}
    for run in ("a", "b"):
        root = tmp_path / run
        cli("theory", f"out_dir={root / 'theory'}", "seed=3")
        cli("gw-study", f"out_dir={root / 'gw'}", f"dataset={shapes}",
            "n_shapes=2", "n_seeds=1", "gw.iters=5", "seed=3")
        cli("attention-study", f"out_dir={root / 'att'}", f"dataset={shapes}",
            "attention.epochs=1", "attention.bins=4", "seed=3")
        cli("train", f"out_dir={root / 'run'}", f"dataset={data}", "epochs=1",
            "batch=2", "warmup_epochs=0", "hdim=8", "layers=1", "seed=3")
        cli("sample", f"out_dir={root / 'run'}", f"dataset={data}", "epochs=1",
            "batch=2", "warmup_epochs=0", "hdim=8", "layers=1", "nfes=2",
            "seed=3")
        cli("eval", f"out_dir={root / 'run'}", f"dataset={data}", "seed=3")
        outputs[run] = {
            rel: (root / rel).read_bytes()
            for rel in ("theory/theory.csv", "theory/prop1.csv", "gw/gw.csv",
                        "gw/gw_argmin.csv", "att/attention.csv",
                        "run/loss.csv", "run/metrics.csv")
        }
    assert outputs["a"] == outputs["b"]
