import numpy as np
import pytest

from ncgn.theory import (
    correlation_integrals,
    default_correlation,
    expected_sq_distance,
    kappa_closed,
    mc_sq_distance,
    mutual_information_numeric,
    optimal_radius,
    radius_sweep,
)


def test_correlation_integrals_closed_form():
    # A = int int 1-(a-b)^2 = 4r^2 - 8r^4/3, B = int 1-b^2 = 2r - 2r^3/3
    for r in (0.25, 0.5, 1.0):
        a_val, b_val = correlation_integrals(r)
        assert a_val == pytest.approx(4 * r**2 - 8 * r**4 / 3, abs=1e-10)
        assert b_val == pytest.approx(2 * r - 2 * r**3 / 3, abs=1e-10)


def test_mi_reference_value_r1_snr1():
    mi = mutual_information_numeric(1.0, 1.0)
    assert mi == pytest.approx(0.5 * np.log(15.0 / 11.0), abs=1e-9)
    assert mi == pytest.approx(0.155078, abs=1e-6)


def test_mi_vanishes_as_r_to_zero():
    mis = [mutual_information_numeric(r, 1.0) for r in (0.1, 0.01, 0.001)]
    assert mis[0] > mis[1] > mis[2] > 0
    assert mis[2] < 1e-3


def mi_gaussian_oracle(r, snr, rho=default_correlation, m=200):
    """Joint-Gaussian oracle for the covariance assembly.

    Discretizes the aggregation interval into m midpoint nodes, builds the
    (m+1)-dimensional covariance of (x_i, x(eta_1), ..., x(eta_m)) with
    white measurement noise of variance 1/(snr * dx) per node, and reads the
    mutual information off the Gaussian entropy of the blocks.
    """
    dx = 2.0 * r / m
    eta = -r + dx * (np.arange(m) + 0.5)
    var_x = 1.0
    cov_xy = dx * np.sum(rho(0.0, eta))
    rho_jk = rho(eta[:, None], eta[None, :])
    noise_var = 1.0 / snr / dx  # white noise: variance sigma(t)^2 * 2r in the sum
    var_y = dx * dx * (np.sum(rho_jk) + m * noise_var)
    det = var_x * var_y - cov_xy**2
    return 0.5 * np.log(var_x * var_y / det)


def test_mi_covariance_matches_gaussian_oracle():
    r, snr = 0.5, 2.0
    mi = mutual_information_numeric(r, snr, assembly="covariance")
    oracle = mi_gaussian_oracle(r, snr, m=400)
    assert abs(mi - oracle) <= 1e-3


def test_mi_oracle_disagrees_with_reference_assembly():
    # the two assemblies genuinely differ away from the r -> 0 limit
    r, snr = 0.5, 2.0
    ref = mutual_information_numeric(r, snr, assembly="reference")
    cov = mutual_information_numeric(r, snr, assembly="covariance")
    assert abs(ref - cov) > 1e-2


def test_mi_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mutual_information_numeric(0.0, 1.0)
    with pytest.raises(ValueError):
        mutual_information_numeric(0.5, -1.0)
    with pytest.raises(ValueError):
        mutual_information_numeric(0.5, 1.0, assembly="other")


def test_kappa_closed_15_over_11():
    assert kappa_closed(1.0, 1.0) == pytest.approx(15.0 / 11.0, abs=1e-12)


def test_kappa_matches_quadrature_on_grid():
    rs = np.linspace(0.05, 1.0, 20)
    cs = np.logspace(-1, 1, 20)
    for r in rs:
        for c in cs:
            mi = mutual_information_numeric(float(r), float(c))
            assert abs(np.exp(2 * mi) - kappa_closed(float(r), float(c))) <= 1e-6


def test_kappa_limits_and_monotonicity_in_c():
    assert kappa_closed(1e-6, 1.0) == pytest.approx(1.0, abs=1e-5)
    vals = [kappa_closed(0.5, c) for c in (0.1, 0.5, 1.0, 5.0, 20.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_optimal_radius_c1():
    assert optimal_radius(1.0) == pytest.approx(0.652, abs=0.005)


def test_optimal_radius_is_local_max():
    for c in (0.5, 1.0, 4.0):
        r_star = optimal_radius(c)
        k = kappa_closed(r_star, c)
        assert k >= kappa_closed(min(r_star + 0.01, 1.0), c)
        assert k >= kappa_closed(r_star - 0.01, c)


def test_optimal_radius_nonincreasing_in_snr():
    cs = np.logspace(-1, 2, 15)
    rs = [optimal_radius(float(c)) for c in cs]
    assert all(b <= a + 1e-10 for a, b in zip(rs, rs[1:]))
    assert all(0 < r < 1 for r in rs)


def test_radius_sweep_rows():
    rows = radius_sweep([0.25, 1.0, 4.0])
    assert len(rows) == 3
    for c, r_star, mi in rows:
        assert mi == pytest.approx(0.5 * np.log(kappa_closed(r_star, c)))
    assert rows[0][1] > rows[2][1]


def test_derivative_numerator_sign_structure():
    from ncgn.theory import _kappa_derivative_numerator

    for c in (0.1, 1.0, 10.0):
        assert _kappa_derivative_numerator(1e-4, c) > 0
        assert _kappa_derivative_numerator(1.0, c) < 0


def test_sq_distance_no_noise_both_forms():
    printed, cov = expected_sq_distance(1.0, 0.3, 0.7)
    assert printed == pytest.approx(0.3**2)
    assert cov == pytest.approx(0.3**2)


def test_sq_distance_t0_uncorrelated():
    printed, cov = expected_sq_distance(0.0, 0.1, 0.0)
    assert cov == pytest.approx(2.01)
    assert printed == pytest.approx(2.0)  # the t * gamma^2 term drops the mean shift
    mc = mc_sq_distance(0.0, 0.1, 0.0, n_draws=2 * 10**5, seed=1)
    assert mc == pytest.approx(2.01, rel=0.01)


def test_sq_distance_perfect_correlation_splits_forms():
    printed, cov = expected_sq_distance(0.5, 0.0, 1.0)
    assert cov == pytest.approx(0.0)
    assert printed == pytest.approx(2.0)
    mc = mc_sq_distance(0.5, 0.0, 1.0, n_draws=10**5, seed=2)
    assert abs(mc - cov) < 1e-6


def test_sq_distance_anticorrelated_mc():
    _, cov = expected_sq_distance(0.0, 0.0, -1.0)
    assert cov == pytest.approx(4.0)
    mc = mc_sq_distance(0.0, 0.0, -1.0, n_draws=2 * 10**5, seed=3)
    assert mc == pytest.approx(4.0, rel=0.02)


def test_sq_distance_grid_matches_covariance_form():
    # MC arbitration across a 5x5 grid: the covariance-consistent form wins
    n = 10**5
    for t in (0.0, 0.25, 0.5, 0.75, 0.99):
        for rho_val in (-0.9, -0.45, 0.0, 0.45, 0.9):
            _, cov = expected_sq_distance(t, 0.2, rho_val)
            draws_var = 8.0 * (1.0 - t) ** 2 * (1.0 - rho_val) ** 2 \
                + 4.0 * 0.2**2 * (1.0 - t) * (1.0 - rho_val)
            se = np.sqrt(max(draws_var, 1e-30) / n)
            mc = mc_sq_distance(t, 0.2, rho_val, n_draws=n, seed=4)
            assert abs(mc - cov) <= 3.0 * se + 1e-9


def test_sq_distance_rejects_bad_rho():
    with pytest.raises(ValueError):
        expected_sq_distance(0.5, 0.1, 1.5)
    with pytest.raises(ValueError):
        mc_sq_distance(0.5, 0.1, 0.0, n_draws=100)
