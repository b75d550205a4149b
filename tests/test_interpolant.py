import numpy as np
import pytest

from ncgn.interpolant import (
    ALPHA_BARS,
    BETA_MAX,
    BETA_MIN,
    DDPM_STEPS,
    SIGMA_MIN,
    KINDS,
    alpha_bar,
    generate,
    interpolate,
    regression_target,
)


def make_state(n=5, f=2, seed=0):
    return np.random.default_rng(seed).standard_normal((n, f))


def test_cfm_endpoints_small_sigma():
    z0, z1 = np.full((3, 2), -1.0), np.ones((3, 2))
    eps = np.random.default_rng(0).standard_normal(z1.shape)
    for t in (0.0, 0.5, 1.0):
        np.testing.assert_array_equal(interpolate(z0, z1, t, "cfm", 0),
                                      (1.0 - t) * z0 + t * z1 + SIGMA_MIN * eps)


def test_ddpm_no_noise_endpoint():
    z1 = np.random.default_rng(0).standard_normal((4, 3))
    np.testing.assert_array_equal(
        interpolate(np.zeros_like(z1), z1, 1.0, "ddpm", 0), z1)


def test_cfm_target_is_path_derivative():
    z0, z1 = np.zeros((2, 2)), np.ones((2, 2))
    np.testing.assert_array_equal(
        regression_target(z0, z1, "cfm"), np.ones((2, 2)))
    np.testing.assert_array_equal(
        regression_target(z1, z1, "cfm"), np.zeros((2, 2)))


def test_ddpm_target_replays_interpolate_noise():
    rng = np.random.default_rng(2)
    z1 = rng.standard_normal((6, 2))
    t = 0.4
    z_t = interpolate(np.zeros_like(z1), z1, t, "ddpm", seed=123)
    eps = regression_target(np.zeros_like(z1), z1, "ddpm", seed=123)
    ab = alpha_bar(t)
    np.testing.assert_allclose(z_t, np.sqrt(ab) * z1 + np.sqrt(1 - ab) * eps,
                               atol=1e-12)


def test_ddpm_target_requires_seed():
    with pytest.raises(ValueError):
        regression_target(np.zeros(3), np.ones(3), "ddpm")


def test_interpolate_bit_reproducible():
    z0, z1 = np.zeros((8, 3)), np.ones((8, 3))
    a = interpolate(z0, z1, 0.7, "cfm", 42)
    b = interpolate(z0, z1, 0.7, "cfm", 42)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, interpolate(z0, z1, 0.7, "cfm", 43))


def test_ddpm_alpha_bar_monotone():
    # signal retention (and so the SNR alpha_bar / (1 - alpha_bar)) grows
    # towards the data end
    retention = [alpha_bar(t) for t in np.linspace(0.01, 0.99, 25)]
    assert all(b >= a for a, b in zip(retention, retention[1:]))
    assert 0.0 < retention[0] and retention[-1] < 1.0
    assert alpha_bar(1.0) == 1.0


def test_alpha_bar_table_is_the_product_of_retentions():
    # the table behind alpha_bar and generate: the product of 1 - beta over
    # the first k diffusion steps, and exactly 1 before any step
    retain = 1.0 - np.linspace(BETA_MIN, BETA_MAX, DDPM_STEPS)
    assert ALPHA_BARS.shape == (DDPM_STEPS + 1,) and ALPHA_BARS[0] == 1.0
    for k in (1, 2, 10, 500, DDPM_STEPS):
        np.testing.assert_allclose(ALPHA_BARS[k], np.prod(retain[:k]), rtol=1e-13)
        assert alpha_bar(1.0 - k / DDPM_STEPS) == ALPHA_BARS[k]


def test_ddpm_marginal_variance():
    t = 0.5
    z1 = np.ones(10**5)
    z_t = interpolate(np.zeros_like(z1), z1, t, "ddpm", seed=9)
    ab = alpha_bar(t)
    assert abs(np.var(z_t) - (1 - ab)) < 0.02 * (1 - ab)


def test_generate_zero_field_returns_prior():
    z0 = make_state()
    out = generate(lambda z, t: np.zeros_like(z), z0, "cfm", nfes=10)
    np.testing.assert_array_equal(out, z0)


def test_generate_constant_field_exact():
    z0 = make_state(seed=1)
    c = 2.5
    out = generate(lambda z, t: np.full_like(z, c), z0, "cfm", nfes=7)
    np.testing.assert_allclose(out, z0 + c, atol=1e-12)


def test_generate_linear_field_euler_convergence():
    z0 = make_state(seed=2)
    errs = []
    for nfes in (10, 20, 40, 80):
        out = generate(lambda z, t: -z, z0, "cfm", nfes=nfes)
        errs.append(np.abs(out - np.exp(-1.0) * z0).max())
    assert errs[-1] < errs[0]
    # error roughly halves with each doubling (first-order method)
    assert errs[-1] < 0.2 * errs[0]


def test_generate_wrong_shape_rejected():
    z0 = make_state()
    with pytest.raises(ValueError):
        generate(lambda z, t: np.zeros((1, 1)), z0, "cfm", nfes=2)


def test_ddpm_generation_runs_and_is_seeded():
    z0 = make_state(seed=4)
    out1 = generate(lambda z, t: np.zeros_like(z), z0, "ddpm", nfes=1, seed=5)
    out2 = generate(lambda z, t: np.zeros_like(z), z0, "ddpm", nfes=1, seed=5)
    np.testing.assert_array_equal(out1, out2)
    assert out1.shape == z0.shape
    out3 = generate(lambda z, t: 0.1 * z, z0, "ddpm", nfes=5, seed=5)
    assert np.isfinite(out3).all()
    np.testing.assert_array_equal(
        out3, generate(lambda z, t: 0.1 * z, z0, "ddpm", nfes=5, seed=5))


def test_generate_rejects_non_finite_state():
    def diverging(z, t):
        return np.full_like(z, np.nan if t >= 0.5 else 1.0)

    z0 = make_state(seed=6)
    with pytest.raises(RuntimeError, match=r"step 2 \(t=0\.75\)"):
        generate(diverging, z0, "cfm", nfes=4)
    with pytest.raises(RuntimeError, match=r"step 0 \(t=0\.1\)"):
        generate(lambda z, t: np.full_like(z, np.inf), z0,
                 "ddpm", nfes=10)
    with pytest.raises(RuntimeError, match=r"step 5 \(t=0\.6\)"):
        generate(diverging, z0, "ddpm", nfes=10)


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
    z0 = make_state(seed=7)
    for nfes in (1, 7, 250, DDPM_STEPS):
        seen = []

        def field(z, t):
            seen.append(t)
            return 0.5 * np.tanh(z) + t

        out = generate(field, z0, "ddpm", nfes=nfes, seed=3)
        assert len(seen) == nfes
        assert seen[0] == 0.0 and all(b > a for a, b in zip(seen, seen[1:]))
        assert np.isfinite(out).all()
    ref = _ddpm_every_step(lambda z, t: 0.5 * np.tanh(z) + t, z0, seed=3)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
    with pytest.raises(ValueError, match="at most"):
        generate(field, z0, "ddpm", nfes=DDPM_STEPS + 1)


def test_unknown_kind_rejected_and_named():
    # without the check a mistyped kind would run the ddpm branch
    assert KINDS == ("cfm", "ddpm")
    z = make_state()
    for kind in ("flow", "ve", "CFM"):
        with pytest.raises(ValueError, match=f"unknown interpolant kind '{kind}'"):
            interpolate(z, z, 0.5, kind, 0)
        with pytest.raises(ValueError, match=f"'{kind}'"):
            regression_target(z, z, kind, seed=0)
        with pytest.raises(ValueError, match=f"'{kind}'"):
            generate(lambda z, t: z, z, kind, nfes=2)


def _mask_pair(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=shape) < 0.5, rng.standard_normal(shape)


def test_generate_mask_lands_known_entries_on_values():
    z0 = make_state(n=6, f=3, seed=8)
    known, values = _mask_pair(z0.shape, seed=9)
    out = generate(lambda z, t: 0.3 * z + t, z0, "cfm", nfes=5,
                   mask=(known, values))
    np.testing.assert_array_equal(out[known], values[known])
    assert not np.allclose(out[~known], values[~known])


def test_generate_mask_ends_exactly_on_values_for_any_nfes():
    # the last step ends at (nfes) / nfes == 1.0, not at a sum of 1/nfes
    # steps, which for nfes=6 is 0.9999999999999999 and leaves a trace of z0
    z0 = make_state(n=6, f=3, seed=15)
    values = make_state(n=6, f=3, seed=16)
    everything = np.ones(z0.shape, dtype=bool)
    for nfes in (6, 7, 49):
        out = generate(lambda z, t: z - t, z0, "cfm", nfes=nfes,
                       mask=(everything, values))
        assert out.tobytes() == values.tobytes(), nfes


def test_generate_mask_leaves_unknown_entries_alone():
    # a field that ignores z moves every entry on its own, so clamping the
    # known ones cannot reach the others
    z0 = make_state(n=6, f=3, seed=10)
    known, values = _mask_pair(z0.shape, seed=11)

    def field(z, t):
        return np.full_like(z, np.sin(3.0 * t) - 0.2)

    masked = generate(field, z0, "cfm", nfes=5, mask=(known, values))
    bare = generate(field, z0, "cfm", nfes=5)
    assert masked[~known].tobytes() == bare[~known].tobytes()


def test_generate_mask_with_nothing_known_changes_nothing():
    z0 = make_state(n=6, f=3, seed=12)
    nothing = (np.zeros(z0.shape, dtype=bool), np.zeros(z0.shape))
    field = lambda z, t: 0.5 * np.tanh(z) + t  # noqa: E731
    assert (generate(field, z0, "cfm", nfes=5, mask=nothing).tobytes()
            == generate(field, z0, "cfm", nfes=5).tobytes())


def test_generate_mask_rejects_ddpm_before_the_field_runs():
    # the clamp follows the cfm path, which ddpm's noising does not match
    z0 = make_state(seed=13)

    def field(z, t):
        raise AssertionError("the field ran before the mask was rejected")

    for mask in (_mask_pair(z0.shape, seed=14),
                 (np.zeros(z0.shape, dtype=bool), np.zeros(z0.shape))):
        with pytest.raises(ValueError, match="interpolant 'ddpm' cannot be masked"):
            generate(field, z0, "ddpm", nfes=3, mask=mask)
