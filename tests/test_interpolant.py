import numpy as np
import pytest

from ncgn.interpolant import (
    ALPHA_BARS,
    BETA_MAX,
    BETA_MIN,
    DDPM_STEPS,
    SIGMA_MIN,
    InterpolantSpec,
    generate,
    interpolate,
    regression_target,
)


def make_state(n=5, f=2, seed=0):
    return np.random.default_rng(seed).standard_normal((n, f))


def test_cfm_endpoints_small_sigma():
    spec = InterpolantSpec(kind="cfm")
    z0, z1 = np.full((3, 2), -1.0), np.ones((3, 2))
    eps = np.random.default_rng(0).standard_normal(z1.shape)
    for t in (0.0, 0.5, 1.0):
        np.testing.assert_array_equal(interpolate(z0, z1, t, spec, 0),
                                      (1.0 - t) * z0 + t * z1 + SIGMA_MIN * eps)


def test_ddpm_no_noise_endpoint():
    spec = InterpolantSpec(kind="ddpm")
    z1 = np.random.default_rng(0).standard_normal((4, 3))
    np.testing.assert_array_equal(interpolate(np.zeros_like(z1), z1, 1.0, spec, 0), z1)


def test_cfm_target_is_path_derivative():
    spec = InterpolantSpec(kind="cfm")
    z0, z1 = np.zeros((2, 2)), np.ones((2, 2))
    np.testing.assert_array_equal(
        regression_target(z0, z1, spec), np.ones((2, 2)))
    np.testing.assert_array_equal(
        regression_target(z1, z1, spec), np.zeros((2, 2)))


def test_ddpm_target_replays_interpolate_noise():
    spec = InterpolantSpec(kind="ddpm")
    rng = np.random.default_rng(2)
    z1 = rng.standard_normal((6, 2))
    t = 0.4
    z_t = interpolate(np.zeros_like(z1), z1, t, spec, seed=123)
    eps = regression_target(np.zeros_like(z1), z1, spec, seed=123)
    ab = spec.alpha_bar(t)
    np.testing.assert_allclose(z_t, np.sqrt(ab) * z1 + np.sqrt(1 - ab) * eps,
                               atol=1e-12)


def test_ddpm_target_requires_seed():
    spec = InterpolantSpec(kind="ddpm")
    with pytest.raises(ValueError):
        regression_target(np.zeros(3), np.ones(3), spec)


def test_interpolate_bit_reproducible():
    spec = InterpolantSpec(kind="cfm")
    z0, z1 = np.zeros((8, 3)), np.ones((8, 3))
    a = interpolate(z0, z1, 0.7, spec, 42)
    b = interpolate(z0, z1, 0.7, spec, 42)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, interpolate(z0, z1, 0.7, spec, 43))


def test_ddpm_alpha_bar_monotone():
    # signal retention (and so the SNR alpha_bar / (1 - alpha_bar)) grows
    # towards the data end
    spec = InterpolantSpec(kind="ddpm")
    retention = [spec.alpha_bar(t) for t in np.linspace(0.01, 0.99, 25)]
    assert all(b >= a for a, b in zip(retention, retention[1:]))
    assert 0.0 < retention[0] and retention[-1] < 1.0
    assert spec.alpha_bar(1.0) == 1.0


def test_alpha_bar_table_is_the_product_of_retentions():
    # the table behind alpha_bar and generate: the product of 1 - beta over
    # the first k diffusion steps, and exactly 1 before any step
    spec = InterpolantSpec(kind="ddpm")
    retain = 1.0 - np.linspace(BETA_MIN, BETA_MAX, DDPM_STEPS)
    assert ALPHA_BARS.shape == (DDPM_STEPS + 1,) and ALPHA_BARS[0] == 1.0
    for k in (1, 2, 10, 500, DDPM_STEPS):
        np.testing.assert_allclose(ALPHA_BARS[k], np.prod(retain[:k]), rtol=1e-13)
        assert spec.alpha_bar(1.0 - k / DDPM_STEPS) == ALPHA_BARS[k]


def test_ddpm_marginal_variance():
    spec = InterpolantSpec(kind="ddpm")
    t = 0.5
    z1 = np.ones(10**5)
    z_t = interpolate(np.zeros_like(z1), z1, t, spec, seed=9)
    ab = spec.alpha_bar(t)
    assert abs(np.var(z_t) - (1 - ab)) < 0.02 * (1 - ab)


def test_generate_zero_field_returns_prior():
    spec = InterpolantSpec(kind="cfm")
    z0 = make_state()
    out = generate(lambda z, t: np.zeros_like(z), z0, spec, nfes=10)
    np.testing.assert_array_equal(out, z0)


def test_generate_constant_field_exact():
    spec = InterpolantSpec(kind="cfm")
    z0 = make_state(seed=1)
    c = 2.5
    out = generate(lambda z, t: np.full_like(z, c), z0, spec, nfes=7)
    np.testing.assert_allclose(out, z0 + c, atol=1e-12)


def test_generate_linear_field_euler_convergence():
    spec = InterpolantSpec(kind="cfm")
    z0 = make_state(seed=2)
    errs = []
    for nfes in (10, 20, 40, 80):
        out = generate(lambda z, t: -z, z0, spec, nfes=nfes)
        errs.append(np.abs(out - np.exp(-1.0) * z0).max())
    assert errs[-1] < errs[0]
    # error roughly halves with each doubling (first-order method)
    assert errs[-1] < 0.2 * errs[0]


def test_generate_wrong_shape_rejected():
    spec = InterpolantSpec(kind="cfm")
    z0 = make_state()
    with pytest.raises(ValueError):
        generate(lambda z, t: np.zeros((1, 1)), z0, spec, nfes=2)


def test_ddpm_generation_runs_and_is_seeded():
    spec = InterpolantSpec(kind="ddpm")
    z0 = make_state(seed=4)
    out1 = generate(lambda z, t: np.zeros_like(z), z0, spec, nfes=1, seed=5)
    out2 = generate(lambda z, t: np.zeros_like(z), z0, spec, nfes=1, seed=5)
    np.testing.assert_array_equal(out1, out2)
    assert out1.shape == z0.shape
    out3 = generate(lambda z, t: 0.1 * z, z0, spec, nfes=5, seed=5)
    assert np.isfinite(out3).all()
    np.testing.assert_array_equal(
        out3, generate(lambda z, t: 0.1 * z, z0, spec, nfes=5, seed=5))


def test_generate_rejects_non_finite_state():
    def diverging(z, t):
        return np.full_like(z, np.nan if t >= 0.5 else 1.0)

    z0 = make_state(seed=6)
    with pytest.raises(RuntimeError, match=r"step 2 \(t=0\.75\)"):
        generate(diverging, z0, InterpolantSpec(kind="cfm"), nfes=4)
    with pytest.raises(RuntimeError, match=r"step 0 \(t=0\.1\)"):
        generate(lambda z, t: np.full_like(z, np.inf), z0,
                 InterpolantSpec(kind="ddpm"), nfes=10)
    with pytest.raises(RuntimeError, match=r"step 5 \(t=0\.6\)"):
        generate(diverging, z0, InterpolantSpec(kind="ddpm"), nfes=10)


def _ddpm_every_step(field, z0, seed):
    """Ancestral sampling over every diffusion step: the reference that
    respaced sampling must reproduce at nfes == DDPM_STEPS."""
    betas = np.linspace(BETA_MIN, BETA_MAX, DDPM_STEPS)
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(np.shape(z0))
    for k in range(DDPM_STEPS, 0, -1):
        eps_pred = field(z, 1.0 - k / DDPM_STEPS)
        beta, alpha, ab = betas[k - 1], alphas[k - 1], alpha_bars[k - 1]
        z = (z - beta / np.sqrt(1.0 - ab) * eps_pred) / np.sqrt(alpha)
        if k > 1:
            z = z + np.sqrt(beta) * rng.standard_normal(z.shape)
    return z


def test_ddpm_takes_nfes_steps():
    spec = InterpolantSpec(kind="ddpm")
    z0 = make_state(seed=7)
    for nfes in (1, 7, 250, DDPM_STEPS):
        seen = []

        def field(z, t):
            seen.append(t)
            return 0.5 * np.tanh(z) + t

        out = generate(field, z0, spec, nfes=nfes, seed=3)
        assert len(seen) == nfes
        assert seen[0] == 0.0 and all(b > a for a, b in zip(seen, seen[1:]))
        assert np.isfinite(out).all()
    ref = _ddpm_every_step(lambda z, t: 0.5 * np.tanh(z) + t, z0, seed=3)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
    with pytest.raises(ValueError, match="at most"):
        generate(field, z0, spec, nfes=DDPM_STEPS + 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        InterpolantSpec(kind="flow")
    with pytest.raises(ValueError, match="'ve'"):
        InterpolantSpec(kind="ve")  # noises positions, but has no sampler
