import numpy as np
import pytest

from ncgn.interpolant import (
    SIGMA_MIN,
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
        np.testing.assert_array_equal(interpolate(z0, z1, t, 0),
                                      (1.0 - t) * z0 + t * z1 + SIGMA_MIN * eps)


def test_cfm_target_is_path_derivative():
    z0, z1 = np.zeros((2, 2)), np.ones((2, 2))
    np.testing.assert_array_equal(regression_target(z0, z1), np.ones((2, 2)))
    np.testing.assert_array_equal(regression_target(z1, z1), np.zeros((2, 2)))


def test_interpolate_bit_reproducible():
    z0, z1 = np.zeros((8, 3)), np.ones((8, 3))
    a = interpolate(z0, z1, 0.7, 42)
    b = interpolate(z0, z1, 0.7, 42)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, interpolate(z0, z1, 0.7, 43))


def test_generate_zero_field_returns_prior():
    z0 = make_state()
    out = generate(lambda z, t: np.zeros_like(z), z0, nfes=10)
    np.testing.assert_array_equal(out, z0)


def test_generate_constant_field_exact():
    z0 = make_state(seed=1)
    c = 2.5
    out = generate(lambda z, t: np.full_like(z, c), z0, nfes=7)
    np.testing.assert_allclose(out, z0 + c, atol=1e-12)


def test_generate_linear_field_euler_convergence():
    z0 = make_state(seed=2)
    errs = []
    for nfes in (10, 20, 40, 80):
        out = generate(lambda z, t: -z, z0, nfes=nfes)
        errs.append(np.abs(out - np.exp(-1.0) * z0).max())
    assert errs[-1] < errs[0]
    # error roughly halves with each doubling (first-order method)
    assert errs[-1] < 0.2 * errs[0]


def test_generate_wrong_shape_rejected():
    z0 = make_state()
    with pytest.raises(ValueError):
        generate(lambda z, t: np.zeros((1, 1)), z0, nfes=2)


def test_generate_rejects_non_finite_state():
    def diverging(z, t):
        return np.full_like(z, np.nan if t >= 0.5 else 1.0)

    z0 = make_state(seed=6)
    with pytest.raises(RuntimeError, match=r"step 2 \(t=0\.75\)"):
        generate(diverging, z0, nfes=4)
    with pytest.raises(RuntimeError, match=r"step 0 \(t=0\.1\)"):
        generate(lambda z, t: np.full_like(z, np.inf), z0, nfes=10)


def _mask_pair(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=shape) < 0.5, rng.standard_normal(shape)


def test_generate_mask_lands_known_entries_on_values():
    z0 = make_state(n=6, f=3, seed=8)
    known, values = _mask_pair(z0.shape, seed=9)
    out = generate(lambda z, t: 0.3 * z + t, z0, nfes=5, mask=(known, values))
    np.testing.assert_array_equal(out[known], values[known])
    assert not np.allclose(out[~known], values[~known])


def test_generate_mask_ends_exactly_on_values_for_any_nfes():
    # the last step ends at (nfes) / nfes == 1.0, not at a sum of 1/nfes
    # steps, which for nfes=6 is 0.9999999999999999 and leaves a trace of z0
    z0 = make_state(n=6, f=3, seed=15)
    values = make_state(n=6, f=3, seed=16)
    everything = np.ones(z0.shape, dtype=bool)
    for nfes in (6, 7, 49):
        out = generate(lambda z, t: z - t, z0, nfes=nfes,
                       mask=(everything, values))
        assert out.tobytes() == values.tobytes(), nfes


def test_generate_mask_leaves_unknown_entries_alone():
    # a field that ignores z moves every entry on its own, so clamping the
    # known ones cannot reach the others
    z0 = make_state(n=6, f=3, seed=10)
    known, values = _mask_pair(z0.shape, seed=11)

    def field(z, t):
        return np.full_like(z, np.sin(3.0 * t) - 0.2)

    masked = generate(field, z0, nfes=5, mask=(known, values))
    bare = generate(field, z0, nfes=5)
    assert masked[~known].tobytes() == bare[~known].tobytes()


def test_generate_mask_with_nothing_known_changes_nothing():
    z0 = make_state(n=6, f=3, seed=12)
    nothing = (np.zeros(z0.shape, dtype=bool), np.zeros(z0.shape))
    field = lambda z, t: 0.5 * np.tanh(z) + t  # noqa: E731
    assert (generate(field, z0, nfes=5, mask=nothing).tobytes()
            == generate(field, z0, nfes=5).tobytes())

