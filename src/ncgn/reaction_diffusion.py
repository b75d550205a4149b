"""Reaction-diffusion simulator for the Bmp/Sox9/Wnt limb-patterning system
and conversion of its trajectories into spatiotemporal graphs.

The system lives on a 1-D line of l points (dx = 1) and is stepped with
explicit Euler. Only bmp and wnt diffuse. Gene channel order throughout is
(bmp, sox, wnt).

``simulate_rd`` steps a batch of B trajectories at once as (B, l) arrays,
one per gene, so numpy's per-call cost is paid once per step for the whole
batch; one seed is a batch of one. Each row is byte-identical to its seed
simulated alone. A diverging row stops the batch with an error naming its
seed and step.

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
SIGN_CONVENTIONS = ("printed", "damped")

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
        if self.sign_convention not in SIGN_CONVENTIONS:
            raise ValueError(f"unknown sign convention {self.sign_convention!r}")
        if self.l < 3:
            raise ValueError("need at least 3 spatial points")
        # explicit-scheme stability for the diffusive channels (dx = 1)
        bound = 1.0 / (2.0 * max(self.d_b, self.d_w))
        if self.dt <= 0 or self.dt > bound:
            raise ValueError(f"dt must lie in (0, {bound}] for stability")
        if self.snapshots < 2:
            raise ValueError("need at least 2 snapshots")
        # each snapshot must record a distinct step, the initial state included
        if self.snapshots > self.n_steps + 1:
            raise ValueError(f"{self.snapshots} snapshots need at least "
                             f"{self.snapshots - 1} Euler steps; t_end / dt "
                             f"gives {self.n_steps}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def laplacian_1d(padded):
    """Second difference along the last axis of the interior of ``padded``,
    whose first and last entries there are ghost cells. Ghost cells that
    repeat the edge values give zero-flux (reflecting) boundaries, and the
    result then sums to 0 along that axis."""
    return padded[..., :-2] - 2.0 * padded[..., 1:-1] + padded[..., 2:]


def _as_rows(x, l):
    """``x`` as a B x l x 3 float array; an l x 3 one becomes one row."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape == (l, 3):
        return x[None]
    if x.ndim != 3 or x.shape[1:] != (l, 3):
        raise ValueError("init and alpha must be l x 3 or B x l x 3")
    return x


def simulate_rd(params: RdParams, seed=0, init=None, alpha=None) -> np.ndarray:
    """Integrate the system for one trajectory or a batch of them.

    An int ``seed`` gives one (snapshots, l, 3) trajectory. A 1-D sequence
    of B seeds gives (B, snapshots, l, 3), and row b is byte for byte
    ``simulate_rd(params, seed=seeds[b])``: all rows step together as
    (B, l) arrays with the same float operations as one row alone.

    Each seed's own generator draws the initial concentrations and then the
    constant production fields alpha, i.i.d. uniform from alpha_range per
    point per gene, unless they are given explicitly. Given ones are l x 3,
    shared by every row, or B x l x 3, which also makes the result batched.

    After every step, a row with a non-finite value or one above
    ``DIVERGENCE_LIMIT`` in magnitude raises ``RuntimeError``. It names the
    lowest such row (by its seed, or by its row index when init and alpha
    were both given), the step, the limit and the sign convention.
    """
    single = np.ndim(seed) == 0 and np.ndim(init) < 3 and np.ndim(alpha) < 3
    seeds = np.atleast_1d(seed)
    if seeds.ndim != 1 or seeds.size == 0:
        raise ValueError("seed must be an int or a non-empty 1-D sequence "
                         "of ints")
    by_seed = init is None or alpha is None
    lo, hi = params.alpha_range
    rngs = [np.random.default_rng(s) for s in seeds]
    if init is None:
        init = [rng.uniform(lo, hi, size=(params.l, 3)) for rng in rngs]
    if alpha is None:
        alpha = [rng.uniform(lo, hi, size=(params.l, 3)) for rng in rngs]
    init, alpha = _as_rows(init, params.l), _as_rows(alpha, params.l)
    rows = np.broadcast_shapes(seeds.shape, init.shape[:1], alpha.shape[:1])[0]
    seeds = np.broadcast_to(seeds, rows)

    n_steps = params.n_steps
    record_at = np.round(np.linspace(0, n_steps, params.snapshots)).astype(int)
    traj = np.empty((rows, params.snapshots, params.l, 3))
    # gene g's (B, l) plane is state[g], the interior of padded[g]; the ghost
    # cells at both ends are refreshed before every step
    padded = np.empty((3, rows, params.l + 2))
    state = padded[..., 1:-1]
    state[...] = np.moveaxis(init, -1, 0)
    bmp, sox, wnt = state
    rate = np.empty(state.shape)
    a_bmp, a_sox, a_wnt = np.array(np.broadcast_to(np.moveaxis(alpha, -1, 0),
                                                   state.shape))
    # damped: force the self-terms -k5*bmp, -k9*wnt into decay
    k5 = abs(params.k5) if params.sign_convention == "damped" else params.k5
    k9 = abs(params.k9) if params.sign_convention == "damped" else params.k9

    rec = 0
    for step in range(n_steps + 1):
        while rec < params.snapshots and record_at[rec] == step:
            traj[:, rec] = np.moveaxis(state, 0, -1)
            rec += 1
        if step == n_steps:
            break
        padded[..., 0], padded[..., -1] = state[..., 0], state[..., -1]
        rate[0] = (a_bmp - params.k4 * sox - k5 * bmp
                   + params.d_b * laplacian_1d(padded[0]))
        # the cube as a product: numpy's power takes a slow per-element
        # path for negative bases (about 60x slower on a (128, 100) array)
        rate[1] = a_sox + params.k2 * bmp - params.k3 * wnt - sox * sox * sox
        rate[2] = (a_wnt - params.k7 * sox - k9 * wnt
                   + params.d_w * laplacian_1d(padded[2]))
        state += params.dt * rate
        # `not <=` also catches NaN
        if not np.abs(state).max() <= DIVERGENCE_LIMIT:
            peak = np.abs(state).max(axis=(0, 2))
            row = int(np.flatnonzero(~(peak <= DIVERGENCE_LIMIT))[0])
            name = f"seed {seeds[row]}" if by_seed else f"row {row}"
            raise RuntimeError(
                f"simulation of {name} diverged at step {step + 1} "
                f"(|field| > {DIVERGENCE_LIMIT:g}) under the "
                f"{params.sign_convention!r} sign convention"
            )
    return traj[0] if single else traj


def _even_indices(count, available):
    if count < 1 or count > available:
        raise ValueError(f"cannot subsample {count} of {available} points")
    return np.round(np.linspace(0, available - 1, count)).astype(int)


def build_spatiotemporal_graph(trajectory, n_space, n_time) -> GeometricGraph:
    """Evenly subsample a trajectory into a graph of n_space * n_time cells.

    Positions are (time, space) scaled to [-0.5, 0.5]; features are the three
    raw gene values at each subsampled cell, unscaled (``generate_rd_dataset``
    scales them with bounds over the whole dataset).
    """
    trajectory = np.asarray(trajectory, dtype=np.float64)
    n_snap, l, _ = trajectory.shape
    t_idx = _even_indices(n_time, n_snap)
    s_idx = _even_indices(n_space, l)
    feats = trajectory[np.ix_(t_idx, s_idx)].reshape(-1, 3)
    t_coord = t_idx / max(n_snap - 1, 1) - 0.5
    s_coord = s_idx / max(l - 1, 1) - 0.5
    tt, ss = np.meshgrid(t_coord, s_coord, indexing="ij")
    positions = np.column_stack([tt.ravel(), ss.ravel()])
    return GeometricGraph(feats, positions)
