"""Noising processes: what gets interpolated, regressed against, and how
samples are drawn back out.

Two kinds:
  cfm  - straight-path conditional flow matching with a constant noise
         floor SIGMA_MIN, sampled with explicit Euler from t=0 to t=1.
  ddpm - variance-preserving diffusion over DDPM_STEPS steps with a linear
         beta range and epsilon-prediction, sampled ancestrally.

t=1 is always the data end, t=0 the noise end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA_MIN, BETA_MAX = 1e-4, 0.02  # ddpm's linear beta range
DDPM_STEPS = 1000  # ddpm's diffusion steps
SIGMA_MIN = 1e-3  # cfm's noise scale along the whole path
# ddpm's signal retention after k diffusion steps, k = 0 .. DDPM_STEPS
ALPHA_BARS = np.concatenate(
    [[1.0], np.cumprod(1.0 - np.linspace(BETA_MIN, BETA_MAX, DDPM_STEPS))])


@dataclass
class InterpolantSpec:
    kind: str = "cfm"

    def __post_init__(self):
        if self.kind not in ("cfm", "ddpm"):
            raise ValueError(f"unknown interpolant kind {self.kind!r}; "
                             f"expected 'cfm' or 'ddpm'")

    def alpha_bar(self, t):
        """Cumulative signal retention at noise level t; alpha_bar(1) = 1."""
        return float(ALPHA_BARS[int(round((1.0 - t) * DDPM_STEPS))])


def _noise(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def interpolate(z0, z1, t, spec: InterpolantSpec, seed):
    """Draw the noised sample z_t between prior draw z0 and data z1."""
    z0 = np.asarray(z0, dtype=np.float64)
    z1 = np.asarray(z1, dtype=np.float64)
    if z0.shape != z1.shape:
        raise ValueError("z0 and z1 must have the same shape")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    eps = _noise(z1.shape, seed)
    if spec.kind == "cfm":
        return (1.0 - t) * z0 + t * z1 + SIGMA_MIN * eps
    ab = spec.alpha_bar(t)
    return np.sqrt(ab) * z1 + np.sqrt(1.0 - ab) * eps


def regression_target(z0, z1, spec: InterpolantSpec, seed=None):
    """The vector the network regresses against for prior draw z0 and data
    z1; neither kind depends on the noise level.

    For ddpm this is the noise draw itself, so the same seed used in
    ``interpolate`` must be passed back in.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    z1 = np.asarray(z1, dtype=np.float64)
    if spec.kind == "cfm":
        return z1 - z0
    if seed is None:
        raise ValueError("ddpm target requires the interpolate seed")
    return _noise(z1.shape, seed)


def generate(field, z0, spec: InterpolantSpec, nfes: int, seed=0,
             callback=None):
    """Integrate the learned field from prior to data; returns the N x odim
    state at t = 1.

    ``field(z, t)`` returns an array shaped like the state ``z``. cfm uses
    explicit Euler with step 1/nfes from ``z0``; ddpm runs ancestral sampling
    over ``nfes`` of the DDPM_STEPS diffusion steps (respaced as in Nichol &
    Dhariwal 2021; ``nfes`` may not exceed DDPM_STEPS) from a fresh
    standard-normal draw, interpreting the field output as predicted noise.
    ``callback(z, t)`` runs after every step and may edit ``z`` in place
    (conditioning clamps). A non-finite state after any step raises
    RuntimeError naming the step and the t it reached.
    """
    if nfes < 1:
        raise ValueError("nfes must be >= 1")
    z = np.array(z0, dtype=np.float64)

    def after_step(z, step, t):
        if not np.isfinite(z).all():
            raise RuntimeError(f"non-finite state after sampling step {step} "
                               f"(t={t:.6g}); the field diverged")
        if callback is not None:
            callback(z, t)
        return z

    if spec.kind == "cfm":
        dt = 1.0 / nfes
        for i in range(nfes):
            t = i * dt
            v = np.asarray(field(z, t))
            if v.shape != z.shape:
                raise ValueError("field returned wrong shape")
            z = after_step(z + dt * v, i, t + dt)
        return z

    if nfes > DDPM_STEPS:
        raise ValueError(f"ddpm takes at most DDPM_STEPS={DDPM_STEPS} nfes, "
                         f"got {nfes}")
    # respaced ancestral sampling: visit diffusion steps k_0 > ... > k_nfes = 0
    # and treat each jump as one step with alpha = ab(k_i) / ab(k_{i+1})
    ks = [round(DDPM_STEPS * (nfes - i) / nfes) for i in range(nfes + 1)]
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(z.shape)
    for i in range(nfes):
        k, k_next = ks[i], ks[i + 1]
        eps_pred = np.asarray(field(z, 1.0 - k / DDPM_STEPS))
        if eps_pred.shape != z.shape:
            raise ValueError("field returned wrong shape")
        ab = ALPHA_BARS[k]
        alpha = ab / ALPHA_BARS[k_next]
        beta = 1.0 - alpha
        z = (z - beta / np.sqrt(1.0 - ab) * eps_pred) / np.sqrt(alpha)
        if k_next > 0:
            z = z + np.sqrt(beta) * rng.standard_normal(z.shape)
        z = after_step(z, i, 1.0 - k_next / DDPM_STEPS)
    return z
