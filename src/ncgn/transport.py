"""Optimal transport metrics on point clouds given as plain m x q arrays,
each point of weight 1/m: exact 2-Wasserstein between equal-size clouds and
entropic Gromov-Wasserstein between clouds of any sizes and dimensions.

Each GW step solves an entropic transport problem with Sinkhorn iterations
in the scaling domain: matrix-vector products on a row-stabilised kernel,
written into buffers allocated once per solve. One iteration is three
statements of four C calls (two divisions, two products) and no other
Python work; the convergence check runs after every 10th iteration and at
the iteration cap, and reuses the iteration's K v. The log-domain loop is
kept as the fallback for kernels that underflow.

Only ``w2_exact`` uses scipy (linear assignment and the squared-distance
matrix), and it imports it when it runs; the GW solver is numpy alone, so
a process that never calls ``w2_exact`` never loads scipy.optimize or
scipy.spatial."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SINKHORN_TOL = 1e-9  # row-marginal error at which a Sinkhorn solve stops


def _check_clouds(a, b):
    """Raise ValueError unless ``a`` and ``b`` are non-empty m x q arrays."""
    for name, x in (("a", a), ("b", b)):
        if x.ndim != 2:
            raise ValueError(f"{name} must be a 2-dimensional m x q array, "
                             f"got shape {x.shape}")
        if x.shape[0] == 0:
            raise ValueError(f"{name} is an empty cloud: it needs at least "
                             "one point")


def _euclidean_distances(x):
    """``x``'s m x m Euclidean distance matrix: the squared coordinate
    differences summed in coordinate order from 0.0, then the square root.
    These are the float operations of ``scipy.spatial.distance.cdist(x, x)``,
    so the result is its bytes."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((x.shape[0], x.shape[0]))
    for j in range(x.shape[1]):
        diff = x[:, j, None] - x[None, :, j]
        out += diff * diff
    return np.sqrt(out)


def w2_exact(a, b) -> float:
    """Exact 2-Wasserstein distance between two equal-size m x q point
    clouds of uniform weight, via linear assignment on the squared-distance
    cost matrix."""
    _check_clouds(a, b)
    if a.shape[0] != b.shape[0]:
        raise ValueError("clouds must have equal sizes")
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    m = a.shape[0]
    cost = cdist(a, b, metric="sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].sum() / m))


@dataclass
class GwResult:
    """``converged``: the outer loop met its tolerance and every inner
    Sinkhorn solve met SINKHORN_TOL on the row marginal."""

    value: float
    coupling: np.ndarray
    converged: bool


def _logsumexp(mat, axis):
    mx = mat.max(axis=axis, keepdims=True)
    out = np.log(np.exp(mat - mx).sum(axis=axis)) + np.squeeze(mx, axis=axis)
    return out


def _sinkhorn_log_domain(cost, p, q, eps, max_iter=2000, tol=SINKHORN_TOL,
                         f=None, g=None):
    """Log-domain Sinkhorn; returns log of the coupling with marginals (p, q)
    plus the dual potentials (for warm starts). Slower, but stable where the
    kernel underflows: the fallback of ``_sinkhorn_log`` and the reference
    it is tested against."""
    f = np.zeros(len(p)) if f is None else f
    g = np.zeros(len(q)) if g is None else g
    logp, logq = np.log(p), np.log(q)
    neg_c = -cost / eps
    for _ in range(max_iter):
        f = eps * (logp - _logsumexp(neg_c + g[None, :] / eps, axis=1))
        g = eps * (logq - _logsumexp(neg_c + f[:, None] / eps, axis=0))
        log_t = neg_c + (f[:, None] + g[None, :]) / eps
        if np.abs(np.exp(log_t).sum(axis=1) - p).max() < tol:
            break
    return log_t, f, g


_min, _max = np.minimum.reduce, np.maximum.reduce


def _positive_finite(x):
    # minimum and maximum propagate NaN, so a NaN fails the first comparison;
    # the ufunc reductions skip ndarray.min/max's Python wrapper
    return bool(_min(x) > 0 and _max(x) < np.inf)


def _sinkhorn_log(cost, p, q, eps, max_iter=2000, tol=SINKHORN_TOL, f=None,
                  g=None):
    """Sinkhorn in the scaling domain; same contract as
    ``_sinkhorn_log_domain``: the log coupling with marginals (p, q) and the
    dual potentials.

    The warm-start potentials and each row's maximum are absorbed into the
    kernel K = exp((f + g - cost) / eps - shift), so every row of K holds a 1
    and the iterations u = p / Kv, v = q / K'u are two matrix-vector
    products (Cuturi 2013; absorption as in Schmitzer 2019). Entries of K
    below the smallest normal float are zero (truncation as in Schmitzer
    2019, section 3), so no product runs on subnormal operands. One iteration
    is three statements of four C calls, each writing into a buffer
    allocated once per call: ``np.divide`` for u, ``K'.dot`` and
    ``np.divide`` for v, ``K.dot`` for the K v of the new v, which the next
    iteration divides by. The ufunc and the bound ``dot`` methods are local
    names and take ``out`` positionally, so no Python wrapper runs. After
    every 10th iteration and at ``max_iter`` (an inner loop of at most 10,
    so no iteration tests its index) the check runs: u and v are views of
    one buffer, so their positivity is one min and one max over it, and the
    row-marginal test |u * Kv - p| < tol reuses the last K v and a buffer of
    its own. If a scaling turns zero or non-finite (a column of K
    underflowed, or held only subnormal entries), the log-domain loop reruns
    from the same warm start.
    """
    m, n = len(p), len(q)
    f0 = np.zeros(m) if f is None else f
    g0 = np.zeros(n) if g is None else g
    log_k = (f0[:, None] + g0[None, :] - cost) / eps
    shift = log_k.max(axis=1)
    k = np.exp(log_k - shift[:, None])
    # a product on subnormal operands costs several times a normal one, and
    # each row of K holds a 1: a subnormal entry's term in K v falls below
    # half an ulp of the row's sum unless v spans some 2^969
    k[k < np.finfo(np.float64).tiny] = 0.0
    k_t = np.ascontiguousarray(k.T)
    uv = np.empty(m + n)
    u, v = uv[:m], uv[m:]
    v[:] = 1.0
    kv, ktu, residual = k @ v, np.empty(n), np.empty(m)
    divide, k_dot, k_t_dot = np.divide, k.dot, k_t.dot
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, max_iter, 10):
            for _ in range(min(10, max_iter - start)):
                divide(p, kv, u)
                divide(q, k_t_dot(u, ktu), v)
                k_dot(v, kv)
            if not _positive_finite(uv):
                return _sinkhorn_log_domain(cost, p, q, eps, max_iter, tol,
                                            f=f, g=g)
            np.multiply(u, kv, residual)
            np.subtract(residual, p, residual)
            if _max(np.abs(residual, residual)) < tol:
                break
    f_new = f0 + eps * (np.log(u) - shift)
    g_new = g0 + eps * np.log(v)
    log_t = (f_new[:, None] + g_new[None, :] - cost) / eps
    return log_t, f_new, g_new


def _gw_gradient(c1, c2, p, q):
    """The squared-loss GW gradient as a function of the coupling T:
    (c1² p)_i + (c2² q)_j - 2 (c1 T c2)_ij, its constant term computed once."""
    const = (c1**2 @ p)[:, None] + (c2**2 @ q)[None, :]
    return lambda coupling: const - 2.0 * c1 @ coupling @ c2


def gw_entropic(a, b, eps=0.05, iters=50, return_details=False):
    """Squared-loss entropic Gromov-Wasserstein objective between an m x q
    and an n x q' point cloud, each of uniform weight.

    Proximal-point mirror descent: each outer iteration linearizes the
    quartic objective at the current coupling and takes an entropic
    KL-prox step around it (scaling-domain Sinkhorn, log-domain where the
    kernel underflows), so the effective blur anneals away over iterations.
    The regularization strength applies on distance matrices rescaled to
    max 1; the returned objective is always evaluated on the raw distances.
    The initial coupling carries a tiny fixed perturbation to break exactly
    symmetric stationary points.
    """
    _check_clouds(a, b)
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    m, n = a.shape[0], b.shape[0]
    if max(m, n) > 512:
        raise ValueError("cloud too large for the entropic solver")
    p, q = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    c1_raw = _euclidean_distances(a)
    c2_raw = _euclidean_distances(b)
    scale = max(c1_raw.max(), c2_raw.max(), 1e-12)
    c1, c2 = c1_raw / scale, c2_raw / scale
    rng = np.random.default_rng(0)
    log_t = np.log(np.outer(p, q)) + 1e-4 * rng.standard_normal((m, n))
    coupling = np.exp(log_t)
    converged = False
    inner_converged = True
    f = g = None
    gradient = _gw_gradient(c1, c2, p, q)
    for _ in range(iters):
        grad = gradient(coupling)
        log_t, f, g = _sinkhorn_log(grad - eps * log_t, p, q, eps, f=f, g=g)
        new = np.exp(log_t)
        # a solve that stopped at max_iter leaves the row marginal off
        inner_converged &= bool(np.abs(new.sum(axis=1) - p).max() < SINKHORN_TOL)
        if np.abs(new - coupling).max() < 1e-10:
            coupling = new
            converged = inner_converged
            break
        coupling = new
    grad_raw = _gw_gradient(c1_raw, c2_raw, p, q)(coupling)
    value = float(np.sum(grad_raw * coupling))
    value = max(value, 0.0)  # clip fp noise around the zero objective
    if return_details:
        return GwResult(value, coupling, converged)
    return value
