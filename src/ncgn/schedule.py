"""Noise-adaptive schedules for message passing range and resolution.

A schedule maps noise level t in [0, 1] (t=0 high noise, t=1 none) and node
count N to the neighbor count r_t and coarse node count s_t. N alone fixes
the bounds (r1, s0, s1); s moves from s0 up to s1 along the kind's progress
curve g, and r follows the r_t * s_t ~ r1 * N work budget (the paper's DMP
rule) so the per-layer message count stays linear in N.
"""

from __future__ import annotations

import math

SCHEDULE_KINDS = ("linear", "exponential", "logarithm", "relu")

DEFAULT_EXP_RATE = 4.0
DEFAULT_LOG_RATE = 20.0
DEFAULT_RELU_KNEE = 0.5


def progress(kind: str, t: float) -> float:
    """Monotone progress curve with g(0)=0 and g(1)=1."""
    if kind == "linear":
        return t
    if kind == "exponential":
        a = DEFAULT_EXP_RATE
        return (math.exp(a * t) - 1.0) / (math.exp(a) - 1.0)
    if kind == "logarithm":
        a = DEFAULT_LOG_RATE
        return math.log1p(a * t) / math.log1p(a)
    if kind == "relu":
        # flat until the knee, then linear up to 1
        knee = DEFAULT_RELU_KNEE
        return max(0.0, t - knee) / (1.0 - knee)
    raise ValueError(f"unknown schedule kind {kind!r}")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def eval_schedule(kind: str, t: float, n_nodes: int):
    """Return (r_t, s_t) for noise level t over an N-node graph.

    s_t follows the ``kind`` progress curve from s0 to s1 of
    ``default_bounds(N)``, and r_t is the budget rule
    clamp(round(r1 * N / s_t), r1, s0 - 1). The cap s0 - 1 holds because a
    node cannot have more neighbors than there are other coarse nodes, and
    since s_t >= s0 this constant cap keeps r_t monotone (a cap of s_t - 1
    would track the growing s curve). As s0 = ceil(sqrt(r1 * N)), at t = 0
    r_t is s0 - 1 or s0 - 2: the coarse graph is fully connected, or one
    neighbor short of it.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    g = progress(kind, t)
    r1, s0, s1 = default_bounds(n_nodes)
    s_t = _round_half_up(s0 + (s1 - s0) * g)
    s_t = min(max(s_t, s0), s1)
    r_t = min(max(_round_half_up(r1 * n_nodes / s_t), r1), s0 - 1)
    return r_t, s_t


def default_bounds(n_nodes: int):
    """(r1, s0, s1) boundary conditions giving linear message passing cost.

    Sparse full resolution at t=1 (r1 = ceil(N^(1/3)), s1 = N) and a
    (nearly) fully connected coarse graph of s0 = ceil(sqrt(r1*N)) nodes at
    t=0, so r_t * s_t stays near r1 * N throughout.
    """
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    r1 = math.ceil(n_nodes ** (1.0 / 3.0) - 1e-9)
    s0 = math.ceil(math.sqrt(r1 * n_nodes) - 1e-9)
    return r1, s0, n_nodes
