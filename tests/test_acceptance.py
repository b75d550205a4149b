"""End-to-end acceptance gate.

Fast criteria run inline. The three long studies (GW coarsening, attention
vs distance, transcriptomics benchmark) assert on the CSV artifacts checked
in under artifacts/, which ``python3 scripts/artifacts.py studies`` and
``python3 scripts/artifacts.py transcriptomics`` write with fixed seeds and
record in scripts/artifacts.sha256 (README says which commit wrote each
group).
"""

import csv
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncgn import theory
from ncgn.dmp import DmpModel
from ncgn.engine import StructureCache, TrainConfig
from ncgn.graphs import build_knn_edges, voxel_coarsen
from ncgn.reaction_diffusion import RdParams, simulate_rd
from ncgn.schedule import SCHEDULE_KINDS, default_bounds, eval_schedule
from ncgn.transport import gw_entropic, w2_exact
from structure_helpers import finite_difference_misses, forward, random_graph

ARTIFACTS = os.path.join(os.path.dirname(__file__), "..", "artifacts")


def read_rows(relpath):
    path = os.path.join(ARTIFACTS, relpath)
    if not os.path.exists(path):
        pytest.fail(
            f"missing artifact {relpath}; regenerate with "
            "python3 scripts/artifacts.py studies|transcriptomics"
        )
    with open(path) as fh:
        return list(csv.DictReader(fh))


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
    cache = StructureCache(TrainConfig())  # fixed positions: built once

    def loss_value():
        out = forward(model, g, 0.5, cache=cache)
        diff = out - target
        return (diff * diff).mean()

    params = model.parameters()
    loss_value().backward()
    assert finite_difference_misses(loss_value, params, 1e-5, 1e-3) == []


# criterion 4, identity reduction to the fixed baselines, is
# tests/test_dmp.py::test_identity_reduction_matches_baselines


# criterion 5: linear message complexity in budget mode
def test_linear_complexity_invariant():
    for n in (64, 400, 1000):
        g = random_graph(n, seed=n)
        r1, _, _ = default_bounds(n)
        worst = 0
        for t in np.linspace(0.0, 1.0, 101):
            r_t, s_t = eval_schedule("exponential", float(t), n)
            _, coarse = voxel_coarsen(g.positions, s_t)
            edges = build_knn_edges(coarse, r_t)
            worst = max(worst, edges.shape[0])
        assert worst <= 1.25 * r1 * n


# criterion 6: scheduler boundary and monotonicity over all four kinds
def test_scheduler_suite():
    n = 400
    r1, s0, s1 = default_bounds(n)
    for kind in SCHEDULE_KINDS:
        grid = np.linspace(0.0, 1.0, 1001)
        rs, ss = zip(*(eval_schedule(kind, float(t), n) for t in grid))
        assert ss[0] == s0 and ss[-1] == s1
        assert rs[-1] == r1
        assert rs[0] >= rs[-1] and rs[0] >= s0 - 1
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
        assert w2_exact(a, b) == pytest.approx(
            np.sqrt(best / m), abs=1e-12)

    pts = rng.standard_normal((64, 2))
    th = 0.9
    rot = pts @ np.array([[np.cos(th), -np.sin(th)],
                          [np.sin(th), np.cos(th)]]).T
    assert gw_entropic(pts, rot, eps=0.002, iters=1000) <= 1e-6

    eps = 0.005
    val = gw_entropic(np.array([[0.0], [1.0]]), np.array([[0.0], [2.0]]),
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


# criterion 12: byte-identical outputs for seeded CLI runs
def test_cli_reproducibility(tmp_path):
    # two fresh interpreters run scripts/seeded_outputs.py's sequence on the
    # ncgn package this process imports, and a third the module entry point
    src = Path(theory.__file__).resolve().parents[1]
    script = src.parent / "scripts" / "seeded_outputs.py"
    runs = {run: subprocess.Popen([sys.executable, script, src, tmp_path / run],
                                  stderr=subprocess.PIPE, text=True)
            for run in ("a", "b")}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    module = subprocess.run([sys.executable, "-m", "ncgn.cli", "theory",
                             f"out_dir={tmp_path / 'module'}", "seed=3"],
                            capture_output=True, text=True, env=env)
    outputs = {}
    for run, proc in runs.items():
        _, err = proc.communicate()
        assert proc.returncode == 0, err
        outputs[run] = {p.relative_to(tmp_path / run).as_posix(): p.read_bytes()
                        for p in (tmp_path / run).rglob("*")
                        if p.is_file() and p.name != "config.resolved"}
    assert outputs["a"] == outputs["b"]
    assert {"theory/theory.csv", "theory/prop1.csv", "gw/gw.csv",
            "att/attention.csv", "cfm/loss.csv", "cfm/metrics.csv"} <= set(outputs["a"])
    assert module.returncode == 0, module.stderr
    for name in ("theory.csv", "prop1.csv"):
        assert (tmp_path / "module" / name).read_bytes() == outputs["a"][f"theory/{name}"]
