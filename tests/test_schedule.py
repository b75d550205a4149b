import numpy as np
import pytest

from ncgn.schedule import (
    SCHEDULE_KINDS,
    ScheduleSpec,
    default_bounds,
    eval_schedule,
    progress,
)


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_progress_endpoints(kind):
    spec = ScheduleSpec(kind=kind, r1=2, s0=4, s1=16)
    assert progress(spec, 0.0) == 0.0
    assert abs(progress(spec, 1.0) - 1.0) < 1e-12


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_boundary_satisfaction_exact(kind):
    spec = ScheduleSpec(kind=kind, r1=4, s0=20, s1=100)
    assert eval_schedule(spec, 0.0, 100) == (19, 20)  # 4 * 100 / 20 capped at s0 - 1
    assert eval_schedule(spec, 1.0, 100) == (4, 100)


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
@pytest.mark.parametrize("capped", [False, True])
def test_monotone_on_dense_grid(kind, capped):
    # capped: the default bounds, where the s0 - 1 cap binds near t = 0;
    # otherwise a spec whose budget r1 * N / s_t stays below the cap
    n = 400
    spec = default_bounds(n, kind) if capped else ScheduleSpec(
        kind=kind, r1=2, s0=40, s1=n)
    grid = np.linspace(0.0, 1.0, 1001)
    rs, ss = zip(*(eval_schedule(spec, t, n) for t in grid))
    assert (max(rs) == spec.s0 - 1) == capped
    assert all(b <= a for a, b in zip(rs, rs[1:]))  # r non-increasing in t
    assert all(b >= a for a, b in zip(ss, ss[1:]))  # s non-decreasing in t


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_budget_product_bounded(kind):
    spec = ScheduleSpec(kind=kind, r1=4, s0=20, s1=100)
    for t in np.linspace(0, 1, 101):
        r_t, s_t = eval_schedule(spec, t, 100)
        assert r_t * s_t <= 1.25 * 4 * 100


def test_default_bounds_n100():
    spec = default_bounds(100)
    assert (spec.r1, spec.s1, spec.s0) == (5, 100, 23)
    assert eval_schedule(spec, 0.0, 100) == (22, 23)  # fully connected


def test_default_bounds_n8():
    spec = default_bounds(8)
    assert (spec.r1, spec.s1, spec.s0) == (2, 8, 4)
    assert eval_schedule(spec, 0.0, 8) == (3, 4)


def test_default_bounds_products_close():
    # the t = 0 message count r_0 * s0 is near the t = 1 count r1 * s1
    for n in (8, 64, 100, 500, 1000):
        spec = default_bounds(n)
        r_0, s_0 = eval_schedule(spec, 0.0, n)
        assert abs(r_0 * s_0 - spec.r1 * spec.s1) <= 0.6 * spec.r1 * spec.s1


def test_r_capped_below_s():
    spec = ScheduleSpec(kind="linear", r1=10, s0=10, s1=10)
    r_t, s_t = eval_schedule(spec, 0.5, 1000)
    assert r_t == s_t - 1 == 9


def test_t_out_of_range():
    spec = default_bounds(64)
    with pytest.raises(ValueError):
        eval_schedule(spec, 1.5, 64)


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        ScheduleSpec(kind="linear", r1=0, s0=1, s1=4)
    with pytest.raises(ValueError):
        ScheduleSpec(kind="linear", r1=1, s0=4, s1=1)
    with pytest.raises(ValueError):
        ScheduleSpec(kind="quadratic")


def test_progress_shapes_differ():
    spec_lin = ScheduleSpec(kind="linear")
    spec_exp = ScheduleSpec(kind="exponential")
    spec_log = ScheduleSpec(kind="logarithm")
    spec_rel = ScheduleSpec(kind="relu")
    t = 0.5
    assert progress(spec_exp, t) < progress(spec_lin, t) < progress(spec_log, t)
    assert progress(spec_rel, 0.4) == 0.0
    assert progress(spec_rel, 0.75) == pytest.approx(0.5)
