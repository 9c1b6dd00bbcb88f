"""Descent loop, stop/status logic, and the sliding-window driver."""
import dataclasses
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from modesched import (
    InsertionGradientField,
    LineSearchError,
    ModeSchedule,
    OptimizerConfig,
    RunResult,
    SwitchedSystem,
    WindowReport,
    constant_schedule,
    gamma_three,
    insertion_gradient,
    integrate_adjoint,
    integrate_state,
    optimize,
    receding_horizon,
    shift_schedule,
    truncate_schedule,
)
from modesched.models import vehicle_initial_state, vehicle_system
from modesched.models.vehicle import HORIZON_DEFAULT
from modesched.models.power import initial_state, load_network, power_system
from modesched.projection import DWELL_DEFAULT
from conftest import THREE_MACHINE, count_solves, random_linear_quadratic


def two_rate_sq():
    """xdot = -x or -3x, running cost x^2.

    Mode 2 beats mode 1 pointwise, so no schedule can do better than
    J >= int 4 e^{-6t} dt — a rigorous floor for the optimizer.
    """
    rates = {1: -1.0, 2: -3.0}
    return SwitchedSystem(
        num_modes=2, dim=1,
        mode_field=lambda i, x: rates[i] * np.asarray(x, float),
        mode_jacobian=lambda i, x: np.full(np.shape(x) + (1,), rates[i]),
        running_cost=lambda x: np.asarray(x, float)[..., 0] ** 2,
        running_cost_gradient=lambda x: 2.0 * np.asarray(x, float),
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
    # shifting the whole schedule away leaves a constant pad
    sh = shift_schedule(s, 3.0)
    assert (sh.sequence, sh.times, sh.horizon) == ((3,), (), 3.0)
    for bad in (-0.1, 3.1):
        with pytest.raises(ValueError):
            shift_schedule(s, bad)


@st.composite
def shifted_schedules(draw):
    """A schedule on ``[0, T]``, a shift ``dt`` in ``[0, T]`` (often a
    switching time or an end) and a time ``t`` in ``[0, T]`` at least
    ``1e-9 T`` from every shifted switch."""
    T = draw(st.floats(0.1, 10.0))
    times = sorted(set(draw(st.lists(
        st.floats(0.0, T, exclude_min=True, exclude_max=True),
        max_size=6))))
    seq = draw(st.lists(st.integers(1, 3), min_size=len(times) + 1,
                        max_size=len(times) + 1))
    s = ModeSchedule(tuple(seq), tuple(times), T, 3)
    dt = draw(st.one_of(st.floats(0.0, T),
                        st.sampled_from((0.0, T) + s.times)))
    t = draw(st.floats(0.0, T))
    assume(all(abs(t - (u - dt)) >= 1e-9 * T for u in s.times if u > dt))
    return s, dt, t


@settings(max_examples=300, deadline=None)
@given(case=shifted_schedules())
def test_shift_follows_the_schedule_then_holds_its_final_mode(case):
    s, dt, t = case
    sh = shift_schedule(s, dt)
    assert sh.horizon == s.horizon
    if t + dt < s.horizon:
        assert sh.mode_at(t) == s.mode_at(t + dt)
    else:
        assert sh.mode_at(t) == s.sequence[-1]


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
        assert r.events and all(e.event_type in (0, 1, 2) for e in r.events)
    # the last row reports the final iterate, with no outgoing step
    last = res.iterations[-1]
    assert last.gamma is None and last.j is None
    assert last.theta == res.theta_final


def test_reports_record_the_published_descent(monkeypatch, caplog):
    # the published 10-step vehicle descent: every distinct projection
    # appears in its row's trials, in backtracking order, and a healthy
    # descent logs no warning
    import modesched.scheduler as scheduler_module
    calls = []
    real_project = scheduler_module.project

    def project(*args, **kwargs):
        calls.append(args[4])
        return real_project(*args, **kwargs)

    monkeypatch.setattr(scheduler_module, "project", project)
    cfg = OptimizerConfig(alpha=0.4, beta=0.4, max_iter=10, theta_stop=0.0)
    with caplog.at_level(logging.INFO, logger="modesched"):
        res = optimize(vehicle_system(), vehicle_initial_state(),
                       constant_schedule(2, HORIZON_DEFAULT, 4), cfg)
    assert not [r for r in caplog.records if r.name.startswith("modesched")
                and r.levelno >= logging.WARNING]
    assert res.status == "max_iter"
    rows = res.iterations
    abandoned = 0
    for r, after in zip(rows, rows[1:]):
        assert r.gamma is not None and r.reason is None and r.events
        gammas = [g for g, _, _, _ in r.trials]
        assert gammas == [(r.gamma3 - r.gamma0) * cfg.beta**j + r.gamma0
                          for j in range(r.j + 1)]
        assert r.trials[-1][:2] == (r.gamma, after.cost)
        assert r.trials[-1][3] == after.n_segments
        for _, cost, stop, _ in r.trials:
            if stop is None:
                assert math.isfinite(cost)
            else:
                abandoned += 1
                assert cost == math.inf
                # a trial that passes its bound in the last solver step
                # stops at the horizon
                assert 0.0 <= stop <= HORIZON_DEFAULT
    assert abandoned
    assert rows[-1].trials == () and rows[-1].reason is None
    assert [g for r in rows for g, _, _, _ in r.trials] == calls


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


@pytest.mark.parametrize("seed", [11, 44, 51, 56, 137, 184, 259, 300, 310,
                                  356])
def test_a_theta_within_rounding_of_zero_is_optimal(seed):
    # on these problems no insertion helps the starting schedule, and its
    # theta is the field at the horizon, where the adjoint is exactly 0.
    # Read off the last cubic at its right end, it was about 1e-20 of
    # either sign, and a negative one once went on to a line search whose
    # every projection equalled the incumbent.
    sys_, x0, u0 = random_linear_quadratic(seed)
    res = optimize(sys_, x0, u0, OptimizerConfig(max_iter=8, theta_stop=0.0))
    assert res.status == "optimal"
    assert len(res.iterations) == 1 and res.schedule == u0
    assert res.iterations[0].theta == 0.0


def test_a_one_mode_system_is_optimal_at_once():
    # the only channel is the active one, zero everywhere, and a single
    # channel has no tie: no insertion exists, so the run ends "optimal"
    sys_ = SwitchedSystem(
        num_modes=1, dim=1,
        mode_field=lambda i, x: -np.asarray(x, float),
        mode_jacobian=lambda i, x: np.full(np.shape(x) + (1,), -1.0),
        running_cost=lambda x: np.asarray(x, float)[..., 0] ** 2,
        running_cost_gradient=lambda x: 2.0 * np.asarray(x, float))
    u0 = constant_schedule(1, 2.0, 1)
    res = optimize(sys_, np.array([1.0]), u0, OptimizerConfig(max_iter=5))
    assert res.status == "optimal"
    assert len(res.iterations) == 1 and res.schedule == u0
    assert res.iterations[0].theta == 0.0
    assert res.cost == pytest.approx(0.5 * (1.0 - math.exp(-4.0)),
                                     rel=1e-7)


@pytest.mark.parametrize("field, value", [
    ("max_iter", 2.5),      # a budget of 2.5 iterations
    ("max_iter", -1),
    ("j_max", True),
    ("j_max", 3.0),
    ("theta_stop", True),
    ("theta_stop", math.nan),   # never "optimal"
    ("theta_stop", math.inf),
    ("theta_stop", -math.inf),  # "optimal" at once
    ("theta_stop", 1e-3),       # theta <= 0 never meets it
    ("rtol", -1.0),         # scipy would clamp it silently
    ("rtol", 0.0),
    ("rtol", math.nan),
    ("atol", -1e-9),
    ("atol", math.inf),
    pytest.param("theta_stop", 10**400, id="theta_stop-10**400"),  # no float
])
def test_config_rejects_values_it_would_coerce(field, value):
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: value})


def test_config_accepts_integral_and_boundary_values():
    cfg = OptimizerConfig(max_iter=np.int64(0), j_max=0, theta_stop=-1,
                          rtol=1e-6, atol=0.0)
    assert (cfg.max_iter, cfg.j_max, cfg.atol) == (0, 0, 0.0)


def test_knot_spacing_may_only_refine_the_knots():
    # the adjoint runs on the state's knots, so a spacing coarser than the
    # default horizon / KNOTS_PER_HORIZON would coarsen every gradient
    sys_ = two_rate_sq()
    u0 = constant_schedule(1, 1.0, 2)
    with pytest.raises(ValueError, match="knot_spacing"):
        optimize(sys_, [2.0], u0, OptimizerConfig(knot_spacing=1.0))
    res = optimize(sys_, [2.0], u0,
                   OptimizerConfig(knot_spacing=1.0 / 1024, max_iter=2))
    assert res.status in ("optimal", "max_iter")
    for ts, _, _ in res.trajectory.knots:
        assert np.diff(ts).max() <= 1.0 / 1024 + 1e-15


def assert_same_run(got, ref):
    """Two :class:`RunResult` equal bit for bit, curves and fields too."""
    for f in dataclasses.fields(RunResult):
        if f.name not in ("trajectory", "field"):
            assert getattr(got, f.name) == getattr(ref, f.name), f.name
    for a, b in zip(got.trajectory.knots, ref.trajectory.knots):
        assert all(np.array_equal(va, vb) for va, vb in zip(a, b))
    for seg in range(ref.schedule.n_segments):
        assert np.array_equal(got.field.grid_values[seg],
                              ref.field.grid_values[seg])


def test_optimize_reuses_nothing_from_a_curve_solved_for_other_inputs():
    # nothing is copied from such a curve: the run is a fresh one
    sys_, x0 = vehicle_system(), vehicle_initial_state()
    u = ModeSchedule((1, 4, 2), (1.1, 2.3), 3.0, 4)
    cfg = OptimizerConfig(max_iter=1)
    ref = optimize(sys_, x0, u, cfg)
    others = [
        integrate_state(sys_, x0, u.with_times((1.2, 2.3))),
        integrate_state(sys_, x0 + np.array([1e-3, 0.0, 0.0, 0.0]), u),
        integrate_state(vehicle_system(), x0, u),
        integrate_state(sys_, x0, u, rtol=1e-10),
        integrate_state(sys_, x0, u, atol=1e-10),
        integrate_state(sys_, x0, u, knot_spacing=3.0 / 1024),
    ]
    for x in others:
        assert_same_run(optimize(sys_, x0, u, cfg, reuse=x), ref)


def test_optimize_from_a_fresh_trajectory_is_bitwise_unchanged():
    # the first two steps of the published vehicle descent
    sys_, x0 = vehicle_system(), vehicle_initial_state()
    u0 = constant_schedule(2, HORIZON_DEFAULT, 4)
    cfg = OptimizerConfig(max_iter=2)
    x = integrate_state(sys_, x0, u0)
    got = optimize(sys_, x0, u0, cfg, reuse=x)
    assert got.iterations[0].cost == x.cost
    assert_same_run(got, optimize(sys_, x0, u0, cfg))


def test_a_run_keeps_no_solver_steps_but_on_the_callers_curve():
    # the line search replays the incumbent's solver steps; once the run
    # is over nothing does, so the trajectory it solved holds none, while
    # the caller's reuse curve keeps its own
    sys_, x0 = vehicle_system(), vehicle_initial_state()
    u0 = constant_schedule(2, HORIZON_DEFAULT, 4)
    x = integrate_state(sys_, x0, u0)
    kept = list(x._steps)
    assert all(s is not None for s in kept)
    for cfg in (OptimizerConfig(max_iter=0), OptimizerConfig(max_iter=2)):
        res = optimize(sys_, x0, u0, cfg)
        assert res.trajectory._steps == [None] * res.schedule.n_segments
    stepped = optimize(sys_, x0, u0, OptimizerConfig(max_iter=2), reuse=x)
    assert stepped.trajectory is not x
    assert stepped.trajectory._steps == [None] * stepped.schedule.n_segments
    # a run that takes no step returns the caller's curve as it was
    unstepped = optimize(sys_, x0, u0, OptimizerConfig(max_iter=0), reuse=x)
    assert unstepped.trajectory is x
    assert x._steps == kept


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
    assert res.iterations[0].reason == "forced"
    assert (res.schedule.sequence, res.schedule.times) == ((1,), ())
    assert res.cost == pytest.approx(res.iterations[0].cost)


def fresh_field(sys_, res):
    """The insertion-gradient field of ``res``'s final iterate, rebuilt."""
    rho = integrate_adjoint(sys_, res.schedule, res.trajectory)
    return insertion_gradient(sys_, res.schedule, res.trajectory, rho)


@pytest.mark.parametrize("cfg, status", [
    (OptimizerConfig(theta_stop=0.0, max_iter=2), "max_iter"),
    (OptimizerConfig(theta_stop=-1e6), "optimal"),
])
def test_result_field_is_the_final_iterates(cfg, status):
    sys_ = two_rate_sq()
    res = optimize(sys_, [2.0], constant_schedule(1, 1.0, 2), cfg)
    assert res.status == status
    ref = fresh_field(sys_, res)
    assert res.field.schedule == res.schedule
    for seg in range(res.schedule.n_segments):
        assert np.array_equal(res.field.grid_values[seg],
                              ref.grid_values[seg])


def test_result_field_after_a_failed_step(monkeypatch):
    def boom(*a, **kw):
        raise LineSearchError("forced")

    monkeypatch.setattr("modesched.scheduler.backtrack", boom)
    sys_ = two_rate_sq()
    res = optimize(sys_, [2.0], constant_schedule(1, 1.0, 2),
                   OptimizerConfig(theta_stop=0.0, max_iter=5),
                   final_field=False)
    assert res.status == "line_search_failure"
    assert np.array_equal(res.field.grid_values[0],
                          fresh_field(sys_, res).grid_values[0])


def test_final_field_false_cuts_only_the_last_row():
    sys_ = two_rate_sq()
    u0 = constant_schedule(1, 1.0, 2)
    cfg = OptimizerConfig(theta_stop=0.0, max_iter=3)
    full = optimize(sys_, [2.0], u0, cfg)
    cut = optimize(sys_, [2.0], u0, cfg, final_field=False)
    assert full.status == cut.status == "max_iter"
    assert cut.iterations[:-1] == full.iterations[:-1]
    last = cut.iterations[-1]
    assert (last.k, last.cost, last.n_segments) == (
        3, full.iterations[-1].cost, full.iterations[-1].n_segments)
    assert math.isnan(last.theta) and math.isnan(cut.theta_final)
    assert last.gamma is None and last.events == () and last.trials == ()
    assert cut.field is None
    assert (cut.schedule, cut.cost) == (full.schedule, full.cost)


@pytest.mark.parametrize("theta_stop, status", [(-1e6, "optimal"),
                                                (0.0, "max_iter")])
def test_final_field_false_without_a_step_still_builds_the_field(
        theta_stop, status):
    # with no step to take, the first iterate is also the final one
    res = optimize(two_rate_sq(), [2.0], constant_schedule(1, 1.0, 2),
                   OptimizerConfig(theta_stop=theta_stop, max_iter=0),
                   final_field=False)
    assert res.status == status
    assert len(res.iterations) == 1
    assert math.isfinite(res.theta_final) and res.theta_final < 0.0
    assert res.theta_final == res.iterations[0].theta
    assert res.field is not None


def test_abandoned_trials_change_no_decision():
    # with no cost floor no trial is abandoned; every iterate, step and
    # cost must come out the same, bit for bit
    floored = vehicle_system()
    assert floored.cost_floor == 0.0
    cfg = OptimizerConfig(max_iter=3, theta_stop=0.0)
    u0 = constant_schedule(2, 3.0, 4)
    runs = [optimize(sys_, vehicle_initial_state(), u0, cfg)
            for sys_ in (floored, dataclasses.replace(floored,
                                                      cost_floor=None))]
    a, b = ([(r.cost, r.gamma, r.j) for r in run.iterations] + [run.cost]
            for run in runs)
    assert a == b
    assert runs[0].schedule == runs[1].schedule


def test_line_search_stops_when_a_trial_repeats_the_incumbent(monkeypatch):
    # a well so narrow that even at gamma3 its interval is shorter than
    # the dwell: the trial projects back onto the incumbent, and every
    # smaller step would too
    import modesched.scheduler as scheduler_module
    alpha, k, c = 0.4, 1e6, 0.4
    u0 = constant_schedule(1, 1.0, 2)
    # at gamma the well k (t - c)^2 + v0 beats -1/gamma on a width
    # 2 sqrt(-v0 (1 - gamma0/gamma) / k); at gamma3 that is 0.9 dwell
    half = 0.45 * DWELL_DEFAULT * u0.horizon
    v0 = -k * half**2 / (1.0 - 1.0 / gamma_three(1.0, alpha))
    field = InsertionGradientField.from_callables(
        u0, [lambda t: np.zeros_like(t), lambda t: k * (t - c) ** 2 + v0],
        channel_slopes=[lambda t: np.zeros_like(t),
                        lambda t: 2.0 * k * (t - c)])
    monkeypatch.setattr(scheduler_module, "insertion_gradient",
                        lambda *args: field)
    gammas = []
    real_project = scheduler_module.project

    def project(*args, **kwargs):
        gammas.append(args[4])
        return real_project(*args, **kwargs)

    monkeypatch.setattr(scheduler_module, "project", project)
    res = optimize(two_rate_sq(), [2.0], u0,
                   OptimizerConfig(alpha=alpha, theta_stop=0.0, max_iter=5))
    assert res.status == "line_search_failure"
    assert gammas == [res.iterations[0].gamma3]
    assert res.iterations[0].theta == pytest.approx(v0)
    assert res.iterations[0].gamma is None
    assert res.iterations[0].reason == \
        "projection equals the incumbent schedule"
    assert [t[0] for t in res.iterations[0].trials] == gammas
    assert res.schedule == u0


def test_unmodeled_event_type_stops_cleanly(monkeypatch):
    monkeypatch.setattr("modesched.scheduler.max_type", lambda events: 3)
    res = optimize(two_rate_sq(), [2.0], constant_schedule(1, 1.0, 2),
                   OptimizerConfig(theta_stop=0.0, max_iter=5))
    assert res.status == "type_failure"
    assert len(res.iterations) == 1
    row = res.iterations[0]
    assert row.events and row.trials == ()
    assert row.reason == "step model does not cover event types " \
        f"{tuple(e.event_type for e in row.events)}"


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


def three_machine_horizon(monkeypatch, final_field=None):
    """Five published three-machine windows; the run and its adjoint count.

    With ``final_field`` set, every window's ``optimize`` runs with it
    whatever the driver asks for.
    """
    import modesched.scheduler as scheduler_module
    calls = []
    real_adjoint = scheduler_module.integrate_adjoint
    real_optimize = scheduler_module.optimize

    def integrate_adjoint(*args, **kwargs):
        calls.append(args[1])
        return real_adjoint(*args, **kwargs)

    def optimize(*args, **kwargs):
        kwargs["final_field"] = final_field
        return real_optimize(*args, **kwargs)

    monkeypatch.setattr(scheduler_module, "integrate_adjoint",
                        integrate_adjoint)
    if final_field is not None:
        monkeypatch.setattr(scheduler_module, "optimize", optimize)
    net = load_network(str(THREE_MACHINE))
    x0 = initial_state(net, magnitude=0.3, seed=0)
    rh = receding_horizon(power_system(net), x0,
                          constant_schedule(1, 1.0, net.num_configs),
                          n_windows=5, advance=0.1,
                          config=OptimizerConfig(alpha=0.4, beta=0.1))
    monkeypatch.undo()
    return rh, len(calls)


def test_receding_horizon_builds_one_adjoint_per_window(monkeypatch):
    rh, adjoints = three_machine_horizon(monkeypatch)
    assert len(rh.windows) == 5
    assert adjoints == 5


def test_windows_after_the_first_start_from_the_accepted_trajectory(
        monkeypatch):
    import modesched.scheduler as scheduler_module
    real_state = scheduler_module.integrate_state
    real_shift = scheduler_module._shift_curve
    solves = count_solves(monkeypatch)
    starts, tails = [], []

    def integrate_state(*args, **kwargs):
        n = len(solves)
        x = real_state(*args, **kwargs)
        starts.append((args[1], args[2], kwargs.get("reuse"), x,
                       solves[n:]))
        return x

    def _shift_curve(*args):
        n = len(solves)
        warm = real_shift(*args)
        tails.append(solves[n:])
        return warm

    monkeypatch.setattr(scheduler_module, "integrate_state", integrate_state)
    monkeypatch.setattr(scheduler_module, "_shift_curve", _shift_curve)
    rh, _ = three_machine_horizon(monkeypatch)
    # only window 0's plan and the applied schedule are solved whole; each
    # later window starts from its warm curve, which solved only the
    # padded tail [T - advance, T]
    (_, u0, reuse0, _, first), *warm_starts, final = starts
    assert reuse0 is None and len(first) == u0.n_segments
    assert final[1] == rh.schedule and len(final[4]) == rh.schedule.n_segments
    assert len(warm_starts) == len(tails) == len(rh.windows) - 1
    for tail in tails:
        assert len(tail) == 1 and tail[0] == pytest.approx((0.9, 1.0))
    for (x0, u, warm, x, solved), report in zip(warm_starts, rh.windows[1:]):
        assert x is warm and solved == []
        J = real_state(warm._inputs[0], x0, u).cost
        assert report.cost_before == warm.cost
        assert abs(warm.cost - J) <= 100 * (1e-9 + 1e-8 * J)


def test_receding_horizon_reports_as_with_the_final_field(monkeypatch):
    # the stepped plan's field fills only fields the driver never reads:
    # every report and the applied schedule come out bit for bit the same
    # as when each window builds it, one adjoint per window fewer
    rh, adjoints = three_machine_horizon(monkeypatch)
    ref, ref_adjoints = three_machine_horizon(monkeypatch, final_field=True)
    assert ref_adjoints == adjoints + len(ref.windows)
    assert [w.status for w in ref.windows] == ["max_iter"] * 5
    for got, want in zip(rh.windows, ref.windows):
        for f in dataclasses.fields(WindowReport):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert rh.schedule == ref.schedule
    assert rh.cost == ref.cost


def test_a_windows_result_keeps_nothing_its_reads_built(monkeypatch):
    # a caller may keep every window's result; the driver reads none: the
    # warm start reads the state and cost at the advance on a temporary
    # curve, so no knot arrays or table (some 100 KB a window on three
    # machines) are built on a result or its cost curve
    import modesched.scheduler as scheduler_module
    real_optimize = scheduler_module.optimize
    results = []

    def optimize(*args, **kwargs):
        results.append(real_optimize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(scheduler_module, "optimize", optimize)
    three_machine_horizon(monkeypatch)
    assert len(results) == 5
    for res in results:
        for curve in (res.trajectory, res.trajectory.cost_curve):
            assert curve._flat is None and curve._coeffs is None


def test_each_window_starts_at_the_accepted_trajectorys_advance(
        monkeypatch):
    # the next window's state is its warm curve's first knot, which holds
    # the bits of the accepted trajectory read at the advance
    import modesched.scheduler as scheduler_module
    real_optimize = scheduler_module.optimize
    runs = []

    def optimize(*args, **kwargs):
        runs.append((args[1], real_optimize(*args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(scheduler_module, "optimize", optimize)
    three_machine_horizon(monkeypatch)
    assert len(runs) == 5
    for (_, res), (state, _) in zip(runs, runs[1:]):
        assert state.tobytes() == res.trajectory(0.1).tobytes()


def test_receding_horizon_fallback_keeps_plan(monkeypatch):
    def boom(*a, **kw):
        raise LineSearchError("forced")

    monkeypatch.setattr("modesched.scheduler.backtrack", boom)
    sys_ = two_rate_sq()
    rh = receding_horizon(sys_, [2.0], constant_schedule(1, 1.0, 2),
                          n_windows=3, advance=0.2)
    assert all(w.fell_back and w.steps == 0 for w in rh.windows)
    assert all(w.status == "line_search_failure" for w in rh.windows)
    assert all(w.reason == "forced" for w in rh.windows)
    # the inherited plan is constant mode 1, so that is what gets applied
    assert (rh.schedule.sequence, rh.schedule.times) == ((1,), ())
    assert rh.schedule.horizon == pytest.approx(0.6)
    assert rh.cost == pytest.approx(2.0 * (1.0 - math.exp(-1.2)), rel=1e-7)


def test_an_advance_below_the_windows_float_spacing_is_applied():
    # check_windows accepts any advance in (0, window], but 1.0 - 1e-17
    # rounds to 1.0: the warm curve of the next window then has no tail to
    # solve, and none is solved, with no warning
    net = load_network(str(THREE_MACHINE))
    sys_ = power_system(net)
    x0 = initial_state(net, 0.3, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rh = receding_horizon(sys_, x0, constant_schedule(1, 1.0, 2), 2,
                              advance=1e-17)
        fresh = integrate_state(sys_, x0, rh.schedule)
    assert not any(w.fell_back for w in rh.windows)
    assert rh.schedule.horizon == 2e-17
    assert abs(rh.cost - fresh.cost) \
        <= 100 * OptimizerConfig().rtol * abs(fresh.cost)


@pytest.mark.parametrize("n_windows", [0, -2, 2.7, True])
def test_receding_horizon_rejects_bad_window_counts(monkeypatch, n_windows):
    calls = count_solves(monkeypatch)
    with pytest.raises(ValueError, match="n_windows"):
        receding_horizon(two_rate_sq(), [2.0], constant_schedule(1, 1.0, 2),
                         n_windows=n_windows)
    assert calls == []      # rejected before any work


def test_receding_horizon_rejects_bad_advance():
    sys_ = two_rate_sq()
    u0 = constant_schedule(1, 1.0, 2)
    # True and "0.4" are no advance, though float() would make one of them
    for bad in (0.0, -0.5, 1.5, True, "0.4"):
        with pytest.raises(ValueError, match="advance"):
            receding_horizon(sys_, [2.0], u0, n_windows=2, advance=bad)
