"""Event typing, descent-rate model, and backtracking step rule.

The event and slope oracles here are hand-computed from fields whose
channels are exact polynomials/lines/gaussians, so every expected value
has a closed form.
"""
import math

import numpy as np
import pytest

from modesched import (
    InsertionGradientField,
    LineSearchError,
    ModeSchedule,
    SwitchEvent,
    backtrack,
    constant_schedule,
    crossing_times,
    descent_slope,
    gamma_one_estimate,
    gamma_three,
    gamma_zero,
    initial_switch_events,
    max_type,
    monitor_assumptions,
    optimality,
)
from conftest import random_field, random_schedule


def synth_field(sched, seg_channels):
    """Field with per-segment channel callables (active channels masked).

    ``seg_channels[seg][a-1]`` is channel ``a`` on segment ``seg``; this
    keeps one-sided limits at switching times honest, which a single
    global callable per channel cannot.
    """
    def values_fn(seg, ts):
        ts = np.atleast_1d(np.asarray(ts, float))
        return np.column_stack([np.broadcast_to(f(ts), ts.shape)
                                for f in seg_channels[seg]])

    h = 1e-7 * sched.horizon

    def slopes_fn(seg, ts):
        a, b = sched.segment_bounds(seg)
        tc = np.clip(np.atleast_1d(np.asarray(ts, float)), a + h, b - h)
        return (values_fn(seg, tc + h) - values_fn(seg, tc - h)) / (2 * h)

    return InsertionGradientField(sched, values_fn, slopes_fn)


zero = lambda t: 0.0 * t


# -- event extraction ----------------------------------------------------

def test_interior_stationary_minimum_yields_opposed_pair():
    sched = constant_schedule(1, 2.0, 2)
    field = synth_field(sched, [[zero, lambda t: (t - 0.75) ** 2 - 2.0]])
    opt = optimality(field)
    assert opt.theta == pytest.approx(-2.0, rel=1e-9)
    assert opt.stationary and opt.boundary is None

    events = initial_switch_events(field, opt)
    assert len(events) == 2
    assert sorted(e.omega for e in events) == [0, 1]
    for e in events:
        assert e.is_new
        assert e.channel == 2
        assert e.event_type == 2
        assert e.time == pytest.approx(0.75, abs=1e-7)
        assert e.curvature == pytest.approx(2.0, rel=1e-5)
    assert max_type(events) == 2
    # both edges contribute -sqrt(2) theta^2 / sqrt(2) = -4
    assert descent_slope(events, opt.theta, 2) == pytest.approx(-8.0,
                                                                rel=1e-5)


def test_minimum_at_horizon_start_moves_right():
    sched = constant_schedule(1, 2.0, 2)
    field = synth_field(sched, [[zero, lambda t: -1.0 + 5.0 * t]])
    opt = optimality(field)
    assert opt.theta == pytest.approx(-1.0, rel=1e-9)
    assert opt.time == pytest.approx(0.0, abs=1e-8)

    events = initial_switch_events(field, opt)
    assert len(events) == 1
    e = events[0]
    assert (e.omega, e.channel, e.event_type, e.is_new) == (0, 2, 1, True)
    assert e.slope == pytest.approx(5.0, rel=1e-6)
    assert descent_slope(events, opt.theta, 1) == pytest.approx(-0.2,
                                                                rel=1e-6)


def test_minimum_at_horizon_end_moves_left():
    sched = constant_schedule(1, 2.0, 2)
    field = synth_field(sched, [[zero, lambda t: -1.0 + 5.0 * (2.0 - t)]])
    opt = optimality(field)
    assert opt.theta == pytest.approx(-1.0, rel=1e-9)
    assert opt.time == pytest.approx(2.0, abs=1e-8)

    events = initial_switch_events(field, opt)
    assert len(events) == 1
    e = events[0]
    assert (e.omega, e.channel, e.event_type, e.is_new) == (1, 2, 1, True)
    assert e.slope == pytest.approx(-5.0, rel=1e-6)
    assert descent_slope(events, opt.theta, 1) == pytest.approx(-0.2,
                                                                rel=1e-6)


def test_existing_switch_retypes_when_flank_attains_theta():
    # mode 2's channel slides down into the switch at t=1 from the left
    # and attains the global minimum there: the switch itself starts
    # moving left (type 1), and no stationary placeholder is kept.
    sched = ModeSchedule((1, 2), (1.0,), 2.0, 2)
    field = synth_field(sched, [
        [zero, lambda t: -1.0 - 2.0 * (t - 1.0)],
        [lambda t: 0.5 + (t - 1.0), zero],
    ])
    opt = optimality(field)
    assert opt.theta == pytest.approx(-1.0, rel=1e-9)
    assert opt.time == pytest.approx(1.0, abs=1e-8)
    assert opt.boundary == "left" and not opt.stationary

    events = initial_switch_events(field, opt)
    assert len(events) == 1
    e = events[0]
    assert (e.omega, e.channel, e.event_type) == (1, 2, 1)
    assert not e.is_new          # it is the existing switch, re-typed
    assert e.slope == pytest.approx(-2.0, rel=1e-6)
    assert descent_slope(events, opt.theta, 1) == pytest.approx(-0.5,
                                                                rel=1e-6)


def test_unrelated_switch_stays_stationary():
    sched = ModeSchedule((1, 2), (1.4,), 2.0, 2)
    field = synth_field(sched, [
        [zero, lambda t: (t - 0.6) ** 2 - 2.0],
        [lambda t: 1.0 + (t - 1.4), zero],
    ])
    opt = optimality(field)
    assert opt.theta == pytest.approx(-2.0, rel=1e-9)

    events = initial_switch_events(field, opt)
    assert len(events) == 3
    fixed = [e for e in events if e.event_type == 0]
    assert len(fixed) == 1
    assert fixed[0].time == pytest.approx(1.4)
    assert fixed[0].channel is None
    moving = [e for e in events if e.event_type != 0]
    assert sorted(e.omega for e in moving) == [0, 1]
    assert all(e.event_type == 2 and e.is_new for e in moving)
    assert max_type([fixed[0]]) == 0
    assert max_type(events) == 2
    # the stationary switch contributes nothing to the descent rate
    assert descent_slope(events, opt.theta, 2) == pytest.approx(-8.0,
                                                                rel=1e-5)


def test_no_events_at_optimum():
    sched = constant_schedule(1, 2.0, 2)
    field = synth_field(sched, [[zero, lambda t: 1.0 + 0.0 * t]])
    opt = optimality(field)
    assert opt.theta >= 0.0
    assert initial_switch_events(field, opt) == []


def test_two_equal_wells_each_open_a_pair():
    # both wells attain theta = -1 with curvature 8: the projection opens
    # an interval at each, so all four edges move and each contributes
    # -sqrt(2) theta^2 / sqrt(8) = -1/2
    sched = constant_schedule(1, 2.0, 2)
    field = InsertionGradientField.from_callables(
        sched,
        [zero, lambda t: 4.0 * (t - 0.5) ** 2 * (t - 1.5) ** 2 - 1.0],
        channel_slopes=[zero, lambda t: 8.0 * (t - 0.5) * (t - 1.5)
                        * (2.0 * t - 2.0)],
    )
    opt = optimality(field)
    assert opt.theta == pytest.approx(-1.0, rel=1e-12)

    events = initial_switch_events(field, opt)
    assert len(events) == 4
    assert all(e.event_type == 2 and e.is_new for e in events)
    assert sorted(round(e.time, 6) for e in events) == [0.5, 0.5, 1.5, 1.5]
    assert descent_slope(events, opt.theta, 2) == pytest.approx(-2.0,
                                                                rel=1e-6)
    assert len(crossing_times(field, gamma_zero(opt.theta) * 1.001)) == 4


def test_events_count_the_crossings_just_past_gamma0():
    # just past gamma0 the max rule keeps every existing switch (moved or
    # not) and adds one crossing per new event
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(300):
        sched = random_schedule(rng, 2.0, 3, int(rng.integers(0, 4)))
        field = random_field(rng, sched)
        opt = optimality(field)
        theta = opt.theta
        if theta >= -1e-3:
            continue
        # an interior well this close to a switch also lowers the switch's
        # one-sided value to within the match tolerance of theta
        match_tol = 1e-9 * (1.0 + abs(theta))
        if any(m["boundary"] is None and m["value"] <= theta + match_tol
               and any(abs(t - m["time"]) < 1e-2 for t in sched.times)
               for m in field.local_minima()):
            continue
        events = initial_switch_events(field, opt)
        crossings = crossing_times(field, gamma_zero(theta) * (1 + 1e-6))
        assert len(crossings) == \
            len(sched.times) + sum(e.is_new for e in events)
        checked += 1
    assert checked >= 200


# -- descent-rate model --------------------------------------------------

def test_descent_slope_hand_values():
    e0 = SwitchEvent(time=0.5, omega=0, channel=2, event_type=1, slope=5.0)
    e1 = SwitchEvent(time=0.5, omega=1, channel=2, event_type=1, slope=-5.0)
    assert descent_slope([e0], -1.0, 1) == pytest.approx(-0.2)
    assert descent_slope([e1], -1.0, 1) == pytest.approx(-0.2)
    assert descent_slope([e0, e1], -1.0, 1) == pytest.approx(-0.4)

    c = SwitchEvent(time=0.2, omega=0, channel=3, event_type=2,
                    curvature=2.0)
    assert descent_slope([c, c], -2.0, 2) == pytest.approx(-8.0)
    # scaling: s ~ theta^3 for type 1, ~ theta^2 for type 2
    assert descent_slope([e0], -2.0, 1) == pytest.approx(-1.6)
    assert descent_slope([c], -1.0, 2) == pytest.approx(-1.0)


def test_descent_slope_filters_by_type():
    t1 = SwitchEvent(time=0.1, omega=0, channel=2, event_type=1, slope=4.0)
    t2 = SwitchEvent(time=0.9, omega=1, channel=3, event_type=2,
                     curvature=1.0)
    only_t2 = descent_slope([t2], -1.0, 2)
    assert descent_slope([t1, t2], -1.0, 2) == pytest.approx(only_t2)
    only_t1 = descent_slope([t1], -1.0, 1)
    assert descent_slope([t1, t2], -1.0, 1) == pytest.approx(only_t1)


def test_descent_slope_rejects_bad_inputs():
    t1 = SwitchEvent(time=0.1, omega=0, channel=2, event_type=1, slope=4.0)
    with pytest.raises(ValueError):
        descent_slope([t1], -1.0, 3)
    with pytest.raises(ValueError):
        descent_slope([t1], -1.0, 2)      # no type-2 events
    # omega says the time moves right but the slope points the wrong way:
    # the term comes out nonnegative, which can never certify descent
    bad = SwitchEvent(time=0.1, omega=0, channel=2, event_type=1,
                      slope=-4.0)
    with pytest.raises(LineSearchError):
        descent_slope([bad], -1.0, 1)


# -- step-interval endpoints ----------------------------------------------

def test_gamma_three_frozen_value():
    assert gamma_three(0.5, 0.4) == pytest.approx(0.8422131404823942,
                                                  rel=1e-14)
    assert gamma_three(1.0, 0.4) == pytest.approx(2.0 * 0.8422131404823942,
                                                  rel=1e-14)


def test_gamma_three_ratio_bounds():
    for alpha in (1e-9, 1e-4, 0.25, 0.5, 0.75, 0.999999):
        ratio = gamma_three(1.0, alpha)
        assert 1.5717 < ratio < 2.0
    for bad in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(ValueError):
            gamma_three(1.0, bad)


# -- backtracking ----------------------------------------------------------

def test_backtrack_accepts_model_cost_immediately():
    gamma0, alpha = 0.5, 0.4
    gamma3 = gamma_three(gamma0, alpha)
    s = -8.0
    cost0 = 10.0
    calls = []

    def cost_fn(g):
        calls.append(g)
        return cost0 + s * math.sqrt(g - gamma0)

    gamma, j = backtrack(cost_fn, cost0, s, 2, gamma0, gamma3, alpha)
    assert j == 0
    assert gamma == pytest.approx(gamma3, rel=1e-15)
    assert len(calls) == 1


def test_backtrack_shrinks_until_gate():
    gamma0, gamma3, alpha, beta = 0.5, 1.0, 0.4, 0.4
    s = -2.0
    cost0 = 3.0
    thr = 0.12 * (gamma3 - gamma0)
    calls = []

    def cost_fn(g):
        calls.append(g)
        if g - gamma0 <= thr:
            return cost0 + s * (g - gamma0)
        return cost0 + 1.0

    gamma, j = backtrack(cost_fn, cost0, s, 1, gamma0, gamma3, alpha,
                         beta=beta)
    # beta^j first dips below 0.12 at j = 3
    assert j == 3
    assert gamma == pytest.approx(gamma0 + (gamma3 - gamma0) * beta**3,
                                  rel=1e-14)
    assert len(calls) == 4
    # trial steps never leave (gamma0, gamma3]
    assert all(gamma0 < g <= gamma3 * (1 + 1e-15) for g in calls)


def test_backtrack_exhaustion_raises():
    calls = []

    def cost_fn(g):
        calls.append(g)
        return 5.0 + 1.0      # never descends

    with pytest.raises(LineSearchError):
        backtrack(cost_fn, 5.0, -1.0, 1, 0.5, 1.0, 0.4, beta=0.5, j_max=7)
    assert len(calls) == 8


def test_backtrack_stops_once_gamma_reaches_gamma0():
    # beta = 0.1 shrinks gamma3 - gamma0 = 1 below half an ulp of
    # gamma0 = 1 at j = 16; the step gamma0 is tried once and the repeat
    # that follows raises instead of re-running the same failed trial
    calls = []

    def cost_fn(g):
        calls.append(g)
        return 5.0 + 1.0      # never descends

    with pytest.raises(LineSearchError, match="no distinct step remains"):
        backtrack(cost_fn, 5.0, -1.0, 1, 1.0, 2.0, 0.4, beta=0.1,
                  j_max=40)
    assert len(calls) == 17
    assert len(set(calls)) == len(calls)
    assert calls[-1] == 1.0 and calls[-2] > 1.0


def test_backtrack_rejects_bad_inputs():
    ok = lambda g: 0.0
    with pytest.raises(LineSearchError):
        backtrack(ok, 1.0, 0.1, 1, 0.5, 1.0, 0.4)
    with pytest.raises(LineSearchError):
        backtrack(ok, 1.0, 0.0, 1, 0.5, 1.0, 0.4)
    for bad in (0.0, 1.0, 1.3):
        with pytest.raises(ValueError):
            backtrack(ok, 1.0, -1.0, 1, 0.5, 1.0, 0.4, beta=bad)


# -- monitoring ------------------------------------------------------------

def test_gamma_one_estimate_two_wells():
    # wells of depth -2 (the minimum, -1/theta = gamma0) and -1.5; the
    # shallower well is the next crossing, at -1/(-1.5) = 2/3
    sched = constant_schedule(1, 2.0, 2)
    well = lambda t: (3.0 - 5.0 * np.exp(-((t - 0.5) / 0.15) ** 2)
                      - 4.5 * np.exp(-((t - 1.5) / 0.15) ** 2))
    field = synth_field(sched, [[zero, well]])
    opt = optimality(field)
    assert opt.theta == pytest.approx(-2.0, rel=1e-9)
    gamma0 = -1.0 / opt.theta
    assert gamma_one_estimate(field, gamma0) == pytest.approx(2.0 / 3.0,
                                                              rel=1e-9)


def test_gamma_one_estimate_none_without_second_structure():
    # a single well at the minimum itself, positive everywhere else:
    # no second crossing for the monitor to see
    sched = constant_schedule(1, 2.0, 2)
    well = lambda t: 3.0 - 5.0 * np.exp(-((t - 0.75) / 0.15) ** 2)
    field = synth_field(sched, [[zero, well]])
    assert gamma_one_estimate(field, 0.5) is None


def test_monitor_assumptions_flags():
    t2 = SwitchEvent(time=0.5, omega=0, channel=2, event_type=2,
                     curvature=2.0)
    flags = monitor_assumptions(-2.0, 0.5, 2.0 / 3.0, [t2])
    assert flags == {"gamma_gap_small": False, "curvature_small": False}

    flags = monitor_assumptions(-2.0, 0.5, 0.5 + 1e-5, [t2])
    assert flags["gamma_gap_small"] and not flags["curvature_small"]

    weak = SwitchEvent(time=0.5, omega=0, channel=2, event_type=2,
                       curvature=1e-4)
    flags = monitor_assumptions(-2.0, 0.5, 2.0 / 3.0, [t2, weak])
    assert flags["curvature_small"] and not flags["gamma_gap_small"]

    # no estimate, no type-2 events: nothing to flag
    t1 = SwitchEvent(time=0.1, omega=0, channel=2, event_type=1, slope=4.0)
    flags = monitor_assumptions(-2.0, 0.5, None, [t1])
    assert flags == {"gamma_gap_small": False, "curvature_small": False}

    # at the optimum the monitors are vacuous
    flags = monitor_assumptions(0.0, 0.5, 0.5 + 1e-9, [weak])
    assert flags == {"gamma_gap_small": False, "curvature_small": False}
