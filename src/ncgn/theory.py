"""Numeric verification of the mutual-information analysis.

The aggregation-radius analysis works over a 1-D node continuum: node i
sits at the origin and aggregates noisy features over the interval
[-r, r]. Mutual information between the clean feature and that aggregate
depends only on the feature correlation rho and the signal-to-noise ratio.

Two assemblies of the closed form are provided, because the reference
chain of algebra and a direct covariance computation disagree:

* ``assembly="reference"`` reproduces the reference closed form
  kappa(r, c) = (2/c + 4r - 8r^3/3) / (2/c + 4r^6/9) for the default
  correlation 1 - (a - b)^2, with A and B evaluated by quadrature.
* ``assembly="covariance"`` computes I = 1/2 log(Var(x) Var(Y) /
  (Var(x) Var(Y) - Cov(x, Y)^2)) directly from the same integrals, which
  is what a joint-Gaussian simulation of the aggregation reproduces.

All mutual information values are in nats.
"""

from __future__ import annotations

import numpy as np

SIMPSON_NODES = 401  # per axis; odd, fixed for bit reproducibility


def default_correlation(a, b):
    """The quadratic falloff used throughout the radius analysis."""
    return 1.0 - (a - b) ** 2


def _simpson_weights(n, h):
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def correlation_integrals(r, rho=default_correlation, nodes=SIMPSON_NODES):
    """Composite-Simpson values of the double (A) and single (B) correlation
    integrals over the ball [-r, r] centered at the node."""
    if r <= 0:
        raise ValueError("r must be positive")
    x = np.linspace(-r, r, nodes)
    h = 2.0 * r / (nodes - 1)
    w = _simpson_weights(nodes, h)
    rho_ij = rho(x[:, None], x[None, :])
    a_val = float(w @ rho_ij @ w)
    b_val = float(w @ rho(0.0, x))
    return a_val, b_val


def mutual_information_numeric(r, snr, rho=default_correlation,
                               assembly="reference", nodes=SIMPSON_NODES):
    """Mutual information between a clean feature and the noisy aggregate.

    Raises if the log argument's denominator is non-positive, which signals
    rho failing to be a valid correlation on this ball.
    """
    if snr <= 0:
        raise ValueError("snr must be positive")
    a_val, b_val = correlation_integrals(r, rho, nodes)
    num = 2.0 * r / snr + a_val
    if assembly == "reference":
        den = 2.0 * r / snr + r * (b_val**2 - a_val)
    elif assembly == "covariance":
        den = 2.0 * r / snr + a_val - b_val**2
    else:
        raise ValueError(f"unknown assembly {assembly!r}")
    if den <= 0 or num <= 0:
        raise ValueError(
            f"non-positive log argument at r={r}: correlation is not "
            "positive semidefinite on this ball"
        )
    return 0.5 * np.log(num / den)


def kappa_closed(r, c):
    """Closed form of exp(2 * MI) for the default correlation."""
    if not 0 < r <= 1:
        raise ValueError("r must lie in (0, 1]")
    if c <= 0:
        raise ValueError("c must be positive")
    return (2.0 / c + 4.0 * r - 8.0 * r**3 / 3.0) / (2.0 / c + 4.0 * r**6 / 9.0)


def _kappa_derivative_numerator(r, c):
    # numerator of d(kappa)/dr up to the positive factor 18c/(2cr^6+9)^2
    return 4.0 * c * r**8 - 10.0 * c * r**6 - 6.0 * r**5 - 18.0 * r**2 + 9.0


def optimal_radius(c, lo=1e-4, hi=1.0, tol=1e-8):
    """Interior radius maximizing kappa at signal-to-noise ratio c.

    Bisection on the sign change of the derivative numerator, which is
    positive near 0 and negative at r = 1.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    f_lo = _kappa_derivative_numerator(lo, c)
    f_hi = _kappa_derivative_numerator(hi, c)
    if f_lo <= 0 or f_hi >= 0:
        raise ValueError("derivative numerator has no sign change on the domain")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _kappa_derivative_numerator(mid, c) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def expected_sq_distance(t, gamma, rho_val):
    """Expected squared distance between two positionally-noised nodes.

    Returns (as_printed, covariance_consistent): the as-printed expression
    2(1-t) + 2 rho (1-t) + t gamma^2 next to the variance-of-difference form
    2(1-t)(1 - rho) + gamma^2. A Monte-Carlo draw arbitrates between them.
    """
    if not -1.0 <= rho_val <= 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    as_printed = 2.0 * (1.0 - t) + 2.0 * rho_val * (1.0 - t) + t * gamma**2
    covariance_consistent = 2.0 * (1.0 - t) * (1.0 - rho_val) + gamma**2
    return as_printed, covariance_consistent


def mc_sq_distance(t, gamma, rho_val, n_draws=10**5, seed=0):
    """Monte-Carlo mean of the squared node distance under variance-
    preserving noise with means (0, gamma), variances (1-t) and covariance
    (1-t) * rho."""
    if n_draws < 10**4:
        raise ValueError("need at least 1e4 draws")
    var = 1.0 - t
    if var == 0.0:
        return gamma**2
    rng = np.random.default_rng(seed)
    cov = np.array([[var, var * rho_val], [var * rho_val, var]])
    chol = np.linalg.cholesky(cov + 1e-15 * np.eye(2))
    z = rng.standard_normal((n_draws, 2)) @ chol.T
    xi = z[:, 0]
    xj = gamma + z[:, 1]
    return float(np.mean((xi - xj) ** 2))


def radius_sweep(snrs):
    """Rows (snr, r_star, mi_at_r_star) for the radius-vs-noise curve."""
    rows = []
    for c in snrs:
        r_star = optimal_radius(c)
        mi = 0.5 * np.log(kappa_closed(r_star, c))
        rows.append((float(c), r_star, mi))
    return rows
