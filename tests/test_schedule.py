import numpy as np
import pytest

from ncgn.schedule import (
    SCHEDULE_KINDS,
    default_bounds,
    eval_schedule,
    progress,
)


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_progress_endpoints(kind):
    assert progress(kind, 0.0) == 0.0
    assert abs(progress(kind, 1.0) - 1.0) < 1e-12


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_boundary_satisfaction_exact(kind):
    # default_bounds(100) = (r1, s0, s1) = (5, 23, 100)
    assert eval_schedule(kind, 0.0, 100) == (22, 23)  # 5 * 100 / 23 capped at s0 - 1
    assert eval_schedule(kind, 1.0, 100) == (5, 100)


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
@pytest.mark.parametrize("capped", [False, True])
def test_monotone_on_dense_grid(kind, capped):
    # capped: N = 400, where the s0 - 1 cap binds at t = 0; N = 395, where
    # the budget r1 * N / s0 rounds to s0 - 2 and stays below the cap
    n = 400 if capped else 395
    _, s0, _ = default_bounds(n)
    grid = np.linspace(0.0, 1.0, 1001)
    rs, ss = zip(*(eval_schedule(kind, t, n) for t in grid))
    assert (max(rs) == s0 - 1) == capped
    assert all(b <= a for a, b in zip(rs, rs[1:]))  # r non-increasing in t
    assert all(b >= a for a, b in zip(ss, ss[1:]))  # s non-decreasing in t


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_budget_product_bounded(kind):
    for n in (100, 395, 1000):
        r1, _, _ = default_bounds(n)
        for t in np.linspace(0, 1, 101):
            r_t, s_t = eval_schedule(kind, t, n)
            assert r_t * s_t <= 1.25 * r1 * n


def test_default_bounds_n100():
    assert default_bounds(100) == (5, 23, 100)
    assert eval_schedule("exponential", 0.0, 100) == (22, 23)  # fully connected


def test_default_bounds_n8():
    assert default_bounds(8) == (2, 4, 8)
    assert eval_schedule("exponential", 0.0, 8) == (3, 4)


def test_default_bounds_products_close():
    # the t = 0 message count r_0 * s0 is near the t = 1 count r1 * s1
    for n in (8, 64, 100, 500, 1000):
        r1, _, s1 = default_bounds(n)
        r_0, s_0 = eval_schedule("exponential", 0.0, n)
        assert abs(r_0 * s_0 - r1 * s1) <= 0.6 * r1 * s1


def test_r_capped_below_s():
    # a node has at most s_t - 1 coarse neighbors anywhere on the schedule
    for n in (2, 3, 8, 100, 1000):
        _, s0, _ = default_bounds(n)
        for kind in SCHEDULE_KINDS:
            for t in np.linspace(0.0, 1.0, 21):
                r_t, s_t = eval_schedule(kind, t, n)
                assert 1 <= r_t <= s0 - 1 < s_t


def test_t_out_of_range():
    with pytest.raises(ValueError):
        eval_schedule("exponential", 1.5, 64)


def test_invalid_spec_rejected():
    with pytest.raises(ValueError, match="'quadratic'"):
        progress("quadratic", 0.5)
    with pytest.raises(ValueError, match="'quadratic'"):
        eval_schedule("quadratic", 0.5, 64)
    for n in (0, 1):
        with pytest.raises(ValueError, match="two nodes"):
            default_bounds(n)
        with pytest.raises(ValueError, match="two nodes"):
            eval_schedule("linear", 0.5, n)


def test_progress_shapes_differ():
    t = 0.5
    assert progress("exponential", t) < progress("linear", t) < progress("logarithm", t)
    assert progress("relu", 0.4) == 0.0
    assert progress("relu", 0.75) == pytest.approx(0.5)
