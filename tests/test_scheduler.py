"""Descent loop, stop/status logic, and the sliding-window driver."""
import math

import numpy as np
import pytest

from modesched import (
    LineSearchError,
    ModeSchedule,
    OptimizerConfig,
    SwitchedSystem,
    constant_schedule,
    optimize,
    receding_horizon,
    shift_schedule,
    truncate_schedule,
)
from modesched.models import vehicle_initial_state, vehicle_system
from modesched.models.power import initial_state, load_network, power_system
from conftest import THREE_MACHINE


def two_rate_sq():
    """xdot = -x or -3x, running cost x^2.

    Mode 2 beats mode 1 pointwise, so no schedule can do better than
    J >= int 4 e^{-6t} dt — a rigorous floor for the optimizer.
    """
    rates = {1: -1.0, 2: -3.0}
    return SwitchedSystem(
        num_modes=2, dim=1,
        mode_field=lambda i, x: rates[i] * np.asarray(x, float),
        mode_jacobian=lambda i, x: rates[i] * np.eye(1),
        running_cost=lambda x: float(x[0]) ** 2,
        running_cost_gradient=lambda x: 2.0 * np.asarray(x, float),
        name="two-rate-sq",
    )


# -- schedule surgery ------------------------------------------------------

def test_truncate_keeps_prefix():
    s = ModeSchedule((1, 2, 3), (1.0, 2.0), 3.0, 3)
    t = truncate_schedule(s, 1.5)
    assert (t.sequence, t.times, t.horizon) == ((1, 2), (1.0,), 1.5)
    # a switch exactly at the cut is dropped with its empty segment
    t = truncate_schedule(s, 1.0)
    assert (t.sequence, t.times, t.horizon) == ((1,), (), 1.0)
    t = truncate_schedule(s, 3.0)
    assert (t.sequence, t.times) == (s.sequence, s.times)
    for bad in (0.0, -1.0, 3.5):
        with pytest.raises(ValueError):
            truncate_schedule(s, bad)


def test_shift_pads_tail_with_final_mode():
    s = ModeSchedule((1, 2, 3), (1.0, 2.0), 3.0, 3)
    sh = shift_schedule(s, 0.5)
    assert (sh.sequence, sh.horizon) == ((1, 2, 3), 3.0)
    assert sh.times == pytest.approx((0.5, 1.5))
    # shifting exactly onto a switch starts inside the later segment
    sh = shift_schedule(s, 1.0)
    assert (sh.sequence, sh.times) == ((2, 3), (1.0,))
    # explicit pad mode appends one more segment
    sh = shift_schedule(s, 0.5, pad_mode=1)
    assert sh.sequence == (1, 2, 3, 1)
    assert sh.times == pytest.approx((0.5, 1.5, 2.5))
    # shrinking horizon clips instead of padding
    sh = shift_schedule(s, 0.5, horizon=1.0)
    assert (sh.sequence, sh.horizon) == ((1, 2), 1.0)
    assert sh.times == pytest.approx((0.5,))
    # shifting the whole schedule away leaves a constant pad
    sh = shift_schedule(s, 3.0)
    assert (sh.sequence, sh.times, sh.horizon) == ((3,), (), 3.0)
    for bad in (-0.1, 3.1):
        with pytest.raises(ValueError):
            shift_schedule(s, bad)


# -- descent loop ----------------------------------------------------------

def test_two_rate_descends_to_floor():
    sys_ = two_rate_sq()
    floor = 2.0 / 3.0 * (1.0 - math.exp(-6.0))
    res = optimize(sys_, [2.0], constant_schedule(1, 1.0, 2),
                   OptimizerConfig(theta_stop=0.0, max_iter=25))
    costs = res.costs
    assert costs[0] == pytest.approx(2.0 * (1.0 - math.exp(-2.0)), rel=1e-8)
    assert all(b < a for a, b in zip(costs, costs[1:]))
    assert res.cost >= floor - 1e-9          # nothing beats all-mode-2
    assert res.cost <= floor + 1e-4
    assert res.cost == pytest.approx(res.trajectory.cost)


def test_vehicle_auto_stop():
    res = optimize(vehicle_system(), vehicle_initial_state(),
                   constant_schedule(2, 7 * math.pi / 4, 4),
                   OptimizerConfig(max_iter=30))
    first = res.iterations[0]
    assert first.cost == pytest.approx(276.367748, rel=1e-6)
    assert first.theta == pytest.approx(-588.665689, rel=1e-6)
    assert res.status == "optimal"
    assert len(res.iterations) <= 12
    assert res.theta_final >= -1e-2 * abs(first.theta)
    costs = res.costs
    assert all(b < a for a, b in zip(costs, costs[1:]))
    assert res.cost < 5.0


def test_vehicle_from_other_start_descends():
    res = optimize(vehicle_system(), vehicle_initial_state(),
                   constant_schedule(1, 7 * math.pi / 4, 4),
                   OptimizerConfig(max_iter=8, theta_stop=0.0))
    costs = res.costs
    assert costs[0] == pytest.approx(403.696101740948, rel=1e-6)
    assert all(b < a for a, b in zip(costs, costs[1:]))
    assert res.status == "max_iter"
    assert res.cost < 0.3 * costs[0]


def test_step_bookkeeping():
    res = optimize(two_rate_sq(), [2.0], constant_schedule(1, 1.0, 2),
                   OptimizerConfig(theta_stop=0.0, max_iter=6))
    accepted = [r for r in res.iterations if r.gamma is not None]
    assert accepted
    for r in accepted:
        assert 0.0 < r.gamma0 < r.gamma <= r.gamma3 * (1 + 1e-12)
        assert 1.5717 < r.gamma3 / r.gamma0 < 2.0
        assert 0 <= r.j <= OptimizerConfig().j_max
        assert r.event_types and all(t in (0, 1, 2) for t in r.event_types)
    # the last row reports the final iterate, with no outgoing step
    last = res.iterations[-1]
    assert last.gamma is None and last.j is None
    assert last.theta == res.theta_final


def test_stop_threshold_variants():
    sys_ = two_rate_sq()
    u0 = constant_schedule(1, 1.0, 2)
    # threshold below any achievable theta: accept immediately
    res = optimize(sys_, [2.0], u0, OptimizerConfig(theta_stop=-1e6))
    assert res.status == "optimal"
    assert len(res.iterations) == 1
    assert (res.schedule.sequence, res.schedule.times) == ((1,), ())
    # zero threshold with a tiny budget: budget wins
    res = optimize(sys_, [2.0], u0,
                   OptimizerConfig(theta_stop=0.0, max_iter=3))
    assert res.status == "max_iter"
    assert len(res.iterations) == 4
    with pytest.raises(ValueError):
        optimize(sys_, [2.0], u0, OptimizerConfig(theta_stop="bogus"))
    with pytest.raises(ValueError):
        optimize(sys_, [2.0], u0, OptimizerConfig(alpha=1.5))


def test_line_search_failure_keeps_last_iterate(monkeypatch):
    def boom(*a, **kw):
        raise LineSearchError("forced")

    monkeypatch.setattr("modesched.scheduler.backtrack", boom)
    sys_ = two_rate_sq()
    u0 = constant_schedule(1, 1.0, 2)
    res = optimize(sys_, [2.0], u0,
                   OptimizerConfig(theta_stop=0.0, max_iter=5))
    assert res.status == "line_search_failure"
    assert len(res.iterations) == 1
    assert res.iterations[0].gamma is None
    assert (res.schedule.sequence, res.schedule.times) == ((1,), ())
    assert res.cost == pytest.approx(res.iterations[0].cost)


def test_unmodeled_event_type_stops_cleanly(monkeypatch):
    monkeypatch.setattr("modesched.scheduler.max_type", lambda events: 3)
    res = optimize(two_rate_sq(), [2.0], constant_schedule(1, 1.0, 2),
                   OptimizerConfig(theta_stop=0.0, max_iter=5))
    assert res.status == "type_failure"
    assert len(res.iterations) == 1
    assert res.iterations[0].event_types  # the offending types are logged


# -- receding horizon -------------------------------------------------------

def test_receding_horizon_applies_window_heads():
    sys_ = two_rate_sq()
    rh = receding_horizon(sys_, [2.0], constant_schedule(1, 1.0, 2),
                          n_windows=5, advance=0.2)
    assert len(rh.windows) == 5
    assert [w.t_start for w in rh.windows] == pytest.approx(
        [0.0, 0.2, 0.4, 0.6, 0.8])
    for w in rh.windows:
        assert not w.fell_back
        assert w.steps >= 1
        assert w.cost_after <= w.cost_before
    s = rh.schedule
    assert s.horizon == pytest.approx(1.0)
    assert all(a != b for a, b in zip(s.sequence, s.sequence[1:]))
    assert all(0.0 < t < s.horizon for t in s.times)
    assert rh.cost == pytest.approx(rh.trajectory.cost)
    # better than never replanning away from mode 1
    assert rh.cost < 0.9 * 2.0 * (1.0 - math.exp(-2.0))


def test_power_windows_step_at_quadratic_field_minima():
    # the first windows of the published three-machine run (criterion 7)
    # insert at clean quadratic minima of the field; typed as one-sided,
    # such a minimum made the line search fail and the window fall back
    net = load_network(str(THREE_MACHINE))
    x0 = initial_state(net, magnitude=0.3, seed=0)
    rh = receding_horizon(power_system(net), x0,
                          constant_schedule(1, 1.0, net.num_configs),
                          n_windows=3, advance=0.1,
                          config=OptimizerConfig(alpha=0.4, beta=0.1))
    assert [w.fell_back for w in rh.windows] == [False] * 3
    assert all(w.steps >= 1 for w in rh.windows)


def test_receding_horizon_fallback_keeps_plan(monkeypatch):
    def boom(*a, **kw):
        raise LineSearchError("forced")

    monkeypatch.setattr("modesched.scheduler.backtrack", boom)
    sys_ = two_rate_sq()
    rh = receding_horizon(sys_, [2.0], constant_schedule(1, 1.0, 2),
                          n_windows=3, advance=0.2)
    assert all(w.fell_back and w.steps == 0 for w in rh.windows)
    assert all(w.status == "line_search_failure" for w in rh.windows)
    # the inherited plan is constant mode 1, so that is what gets applied
    assert (rh.schedule.sequence, rh.schedule.times) == ((1,), ())
    assert rh.schedule.horizon == pytest.approx(0.6)
    assert rh.cost == pytest.approx(2.0 * (1.0 - math.exp(-1.2)), rel=1e-7)


def test_receding_horizon_rejects_bad_advance():
    sys_ = two_rate_sq()
    u0 = constant_schedule(1, 1.0, 2)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            receding_horizon(sys_, [2.0], u0, n_windows=2, advance=bad)
