"""Reaction-diffusion simulator for the Bmp/Sox9/Wnt limb-patterning system
and conversion of its trajectories into spatiotemporal graphs.

The system lives on a 1-D line of l points (dx = 1) and is stepped with
explicit Euler. Only bmp and wnt diffuse. Gene channel order throughout is
(bmp, sox, wnt).

Two sign conventions are exposed because the reference signed regulation
coefficients make the bmp/wnt self-terms anti-damping when substituted
literally: ``printed`` uses the coefficients exactly as given, ``damped``
flips the two self-terms into decay. Neither is silently corrected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import GeometricGraph

GENES = ("bmp", "sox", "wnt")

DIVERGENCE_LIMIT = 1e6


@dataclass
class RdParams:
    k2: float = 1.0
    k3: float = -1.0
    k4: float = 1.27
    k5: float = -0.1
    k7: float = 1.59
    k9: float = -0.1
    d_b: float = 1.0
    d_w: float = 2.5
    alpha_range: tuple = (-0.01, 0.01)
    l: int = 100
    dt: float = 0.05
    t_end: float = 100.0
    snapshots: int = 120
    sign_convention: str = "printed"

    def __post_init__(self):
        if self.sign_convention not in ("printed", "damped"):
            raise ValueError(f"unknown sign convention {self.sign_convention!r}")
        if self.l < 3:
            raise ValueError("need at least 3 spatial points")
        # explicit-scheme stability for the diffusive channels (dx = 1)
        bound = 1.0 / (2.0 * max(self.d_b, self.d_w))
        if self.dt <= 0 or self.dt > bound:
            raise ValueError(f"dt must lie in (0, {bound}] for stability")
        if self.snapshots < 2:
            raise ValueError("need at least 2 snapshots")


def laplacian_1d(u):
    """Second difference with zero-flux (reflecting) boundaries; sums to 0."""
    padded = np.pad(u, 1, mode="edge")
    return padded[:-2] - 2.0 * u + padded[2:]


def simulate_rd(params: RdParams, seed: int = 0,
                init=None, alpha=None) -> np.ndarray:
    """Integrate the system and return a (snapshots, l, 3) trajectory.

    Initial concentrations and the constant production fields alpha are
    drawn i.i.d. uniform from alpha_range per point per gene unless given
    explicitly (both l x 3).
    """
    rng = np.random.default_rng(seed)
    lo, hi = params.alpha_range
    if init is None:
        init = rng.uniform(lo, hi, size=(params.l, 3))
    if alpha is None:
        alpha = rng.uniform(lo, hi, size=(params.l, 3))
    init = np.asarray(init, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    if init.shape != (params.l, 3) or alpha.shape != (params.l, 3):
        raise ValueError("init and alpha must be l x 3")

    n_steps = int(round(params.t_end / params.dt))
    record_at = np.round(np.linspace(0, n_steps, params.snapshots)).astype(int)
    traj = np.empty((params.snapshots, params.l, 3))
    bmp, sox, wnt = init[:, 0].copy(), init[:, 1].copy(), init[:, 2].copy()
    a_bmp, a_sox, a_wnt = alpha[:, 0], alpha[:, 1], alpha[:, 2]
    # damped: force the self-terms -k5*bmp, -k9*wnt into decay
    k5 = abs(params.k5) if params.sign_convention == "damped" else params.k5
    k9 = abs(params.k9) if params.sign_convention == "damped" else params.k9

    rec = 0
    for step in range(n_steps + 1):
        while rec < params.snapshots and record_at[rec] == step:
            traj[rec] = np.column_stack([bmp, sox, wnt])
            rec += 1
        if step == n_steps:
            break
        d_sox = a_sox + params.k2 * bmp - params.k3 * wnt - sox**3
        d_bmp = a_bmp - params.k4 * sox - k5 * bmp + params.d_b * laplacian_1d(bmp)
        d_wnt = a_wnt - params.k7 * sox - k9 * wnt + params.d_w * laplacian_1d(wnt)
        bmp = bmp + params.dt * d_bmp
        sox = sox + params.dt * d_sox
        wnt = wnt + params.dt * d_wnt
        peak = max(np.abs(bmp).max(), np.abs(sox).max(), np.abs(wnt).max())
        if not np.isfinite(peak) or peak > DIVERGENCE_LIMIT:
            raise RuntimeError(
                f"simulation diverged at step {step + 1} "
                f"(|field| > {DIVERGENCE_LIMIT:g}) under the "
                f"{params.sign_convention!r} sign convention"
            )
    return traj


def _even_indices(count, available):
    if count < 1 or count > available:
        raise ValueError(f"cannot subsample {count} of {available} points")
    return np.round(np.linspace(0, available - 1, count)).astype(int)


def _minmax_normalize(x, lo, hi):
    span = hi - lo
    safe = np.where(span == 0.0, 1.0, span)
    out = (x - lo) / safe - 0.5
    return np.where(span == 0.0, 0.0, out)


def feature_bounds(trajectory) -> np.ndarray:
    """Per-gene (min, max) over a trajectory or stack of them; 3 x 2."""
    flat = np.asarray(trajectory).reshape(-1, 3)
    return np.column_stack([flat.min(axis=0), flat.max(axis=0)])


def build_spatiotemporal_graph(trajectory, n_space, n_time,
                               bounds=None) -> GeometricGraph:
    """Evenly subsample a trajectory into a graph of n_space * n_time cells.

    Positions are (time, space) scaled to [-0.5, 0.5]; features are the three
    gene values min-max scaled to [-0.5, 0.5] using ``bounds`` (3 x 2 per-gene
    min/max, dataset-global when given; defaults to this trajectory's own).
    """
    trajectory = np.asarray(trajectory, dtype=np.float64)
    n_snap, l, _ = trajectory.shape
    t_idx = _even_indices(n_time, n_snap)
    s_idx = _even_indices(n_space, l)
    if bounds is None:
        bounds = feature_bounds(trajectory)
    bounds = np.asarray(bounds, dtype=np.float64)

    sub = trajectory[np.ix_(t_idx, s_idx)]          # n_time x n_space x 3
    feats = _minmax_normalize(sub.reshape(-1, 3), bounds[:, 0], bounds[:, 1])
    t_coord = t_idx / max(n_snap - 1, 1) - 0.5
    s_coord = s_idx / max(l - 1, 1) - 0.5
    tt, ss = np.meshgrid(t_coord, s_coord, indexing="ij")
    positions = np.column_stack([tt.ravel(), ss.ravel()])
    return GeometricGraph(feats, positions)


def denormalize_features(features, bounds) -> np.ndarray:
    """Invert the [-0.5, 0.5] min-max scaling; exact where max > min."""
    bounds = np.asarray(bounds, dtype=np.float64)
    span = bounds[:, 1] - bounds[:, 0]
    return (np.asarray(features) + 0.5) * span + bounds[:, 0]
