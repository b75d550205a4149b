"""The noising process: what gets interpolated, regressed against, and how
samples are drawn back out.

One process, cfm: straight-path conditional flow matching with a constant
noise floor SIGMA_MIN, sampled with explicit Euler from t=0 to t=1. t=1 is
the data end, t=0 the noise end.
"""

from __future__ import annotations

import numpy as np

SIGMA_MIN = 1e-3  # cfm's noise scale along the whole path


def interpolate(z0, z1, t, seed):
    """Draw the noised sample z_t between prior draw z0 and data z1; ``seed``
    seeds the SIGMA_MIN noise."""
    z0 = np.asarray(z0, dtype=np.float64)
    z1 = np.asarray(z1, dtype=np.float64)
    if z0.shape != z1.shape:
        raise ValueError("z0 and z1 must have the same shape")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    eps = np.random.default_rng(seed).standard_normal(z1.shape)
    return (1.0 - t) * z0 + t * z1 + SIGMA_MIN * eps


def regression_target(z0, z1):
    """The vector the network regresses against for prior draw z0 and data
    z1: the path's velocity z1 - z0, the same at every noise level."""
    return np.asarray(z1, dtype=np.float64) - np.asarray(z0, dtype=np.float64)


def generate(field, z0, nfes: int, mask=None):
    """Integrate the learned field from prior to data with explicit Euler,
    step 1/nfes from ``z0``; returns the N x odim state at t = 1.

    ``field(z, t)`` returns an array shaped like the state ``z``. ``mask``,
    a ``(known, values)`` pair shaped like ``z0`` with boolean ``known``,
    clamps the known entries onto the path (1 - t) * z0 + t * values after
    every step, at the step's end time (i + 1) / nfes, so the last step
    lands exactly on ``values``. A non-finite state after any step raises
    RuntimeError naming the step and the t it reached.
    """
    if nfes < 1:
        raise ValueError("nfes must be >= 1")
    z0 = np.asarray(z0, dtype=np.float64)
    z = z0.copy()
    dt = 1.0 / nfes
    for i in range(nfes):
        v = np.asarray(field(z, i * dt))
        if v.shape != z.shape:
            raise ValueError("field returned wrong shape")
        z = z + dt * v
        t = (i + 1) / nfes
        if not np.isfinite(z).all():
            raise RuntimeError(f"non-finite state after sampling step {i} "
                               f"(t={t:.6g}); the field diverged")
        if mask is not None:
            known, values = mask
            z[known] = (1.0 - t) * z0[known] + t * values[known]
    return z
