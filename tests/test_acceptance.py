"""End-to-end acceptance checks, one test per advertised guarantee.

Each guarantee gets exactly one test (and so one pass/fail line under
``pytest -v``).  The 50-iteration vehicle descent is shared between the
two tests that grade it; the repeated-CLI determinism check runs the
full pipeline twice on purpose.  Wall-clock budgets are asserted where
a guarantee names one.
"""
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import THREE_MACHINE, random_schedule
from modesched.cli import main as cli_main
from modesched.gradient import (InsertionGradientField, insertion_gradient,
                                optimality, switching_time_gradient)
from modesched.integrate import integrate_adjoint, integrate_state
from modesched.models.power import initial_state, load_network, power_system
from modesched.models.vehicle import HORIZON_DEFAULT
from modesched.projection import gamma_zero, max_map, project
from modesched.scheduler import OptimizerConfig, optimize, receding_horizon
from modesched.signals import ModeSchedule, constant_schedule

REPO = Path(__file__).resolve().parent.parent
TIGHT = dict(rtol=1e-12, atol=1e-13)

# the grading tolerances compare an O(1e-5) cost difference against an
# O(100) cost, so the two costs themselves are integrated tightly; the
# comparison tolerances below are the advertised ones, not the solver's


def _tight_run(sys_, x0, sched):
    x = integrate_state(sys_, x0, sched, **TIGHT)
    rho = integrate_adjoint(sys_, sched, x)
    return x, rho


def test_criterion_1_insertion_gradient_fd(vehicle, vehicle_x0):
    # 20 random (mode, time) needle insertions of width 1e-5 on a random
    # 5-switch schedule; forward difference vs the insertion gradient
    t_start = time.perf_counter()
    rng = np.random.default_rng(101)
    sched = random_schedule(rng, 5.5, 4, 5)
    x, rho = _tight_run(vehicle, vehicle_x0, sched)
    field = insertion_gradient(vehicle, sched, x, rho)
    lam = 1e-5
    pairs = 0
    while pairs < 20:
        t = float(rng.uniform(2 * lam, sched.horizon - 2 * lam))
        if min(abs(t - s) for s in sched.times) < 2 * lam:
            continue  # needle must not straddle an existing switch
        a = int(rng.integers(1, 5))
        j_lam = integrate_state(vehicle, vehicle_x0,
                                sched.insert(a, t, t + lam), **TIGHT).cost
        fd = (j_lam - x.cost) / lam
        d = field.value_channel(a, t)
        assert abs(fd - d) / (1.0 + abs(d)) <= 1e-3, (a, t, fd, d)
        pairs += 1
    assert time.perf_counter() - t_start < 30.0


def test_criterion_2_switching_time_gradient_fd(vehicle, vehicle_x0):
    t_start = time.perf_counter()
    rng = np.random.default_rng(101)
    sched = random_schedule(rng, 5.5, 4, 5)
    x, rho = _tight_run(vehicle, vehicle_x0, sched)
    grad = switching_time_gradient(vehicle, sched, x, rho)
    h = 1e-6
    for i, Ti in enumerate(sched.times):
        ts = np.array(sched.times)
        ts[i] = Ti + h
        jp = integrate_state(vehicle, vehicle_x0, sched.with_times(ts),
                             **TIGHT).cost
        ts[i] = Ti - h
        jm = integrate_state(vehicle, vehicle_x0, sched.with_times(ts),
                             **TIGHT).cost
        assert grad[i] == pytest.approx((jp - jm) / (2 * h),
                                        rel=1e-4, abs=1e-7)
    assert time.perf_counter() - t_start < 10.0


def _wave(rng, horizon):
    """Random smooth channel: three sinusoids plus an offset."""
    base = float(rng.uniform(-0.5, 0.5))
    amp = rng.uniform(0.2, 0.8, 3)
    phase = rng.uniform(0.0, 2.0 * np.pi, 3)

    def channel(ts, base=base, amp=amp, phase=phase):
        ts = np.asarray(ts, float)
        out = base * np.ones_like(ts)
        for k in range(3):
            out = out + amp[k] * np.sin(2.0 * np.pi * (k + 1) * ts / horizon
                                        + phase[k])
        return out

    return channel


def test_criterion_3a_projection_idempotent():
    # project, rebuild the field on the projected schedule from the same
    # channel data, project again: nothing may move
    rng = np.random.default_rng(7)
    horizon = 2.0
    for _ in range(50):
        n_modes = int(rng.integers(2, 5))
        u = random_schedule(rng, horizon, n_modes, int(rng.integers(0, 6)))
        channels = [_wave(rng, horizon) for _ in range(n_modes)]
        field = InsertionGradientField.from_callables(u, channels)
        theta = optimality(field).theta
        if theta < -1e-6:
            gamma = float(gamma_zero(theta) * rng.uniform(1.05, 3.0))
        else:
            gamma = float(rng.uniform(0.5, 2.0))
        u1 = max_map(u, field, gamma)
        field1 = InsertionGradientField.from_callables(u1, channels)
        u2 = max_map(u1, field1, gamma)
        assert u2.sequence == u1.sequence
        assert np.allclose(u2.times, u1.times, rtol=0.0,
                           atol=1e-9 * horizon)


def test_criterion_3b_change_starts_exactly_at_gamma_zero():
    # whenever the best insertion is an interior stationary minimum, the
    # projection must not move just below 1/|theta| and must move just above
    rng = np.random.default_rng(23)
    u = constant_schedule(1, 1.0, 2)
    zero = lambda ts: np.zeros_like(np.asarray(ts, float))
    qualifying = 0
    for _ in range(60):
        field = InsertionGradientField.from_callables(
            u, [zero, _wave(rng, 1.0)])
        opt = optimality(field)
        if not (opt.theta < -0.1 and opt.boundary is None
                and opt.stationary and 0.05 < opt.time < 0.95):
            continue
        g0 = gamma_zero(opt.theta)
        u_lo = max_map(u, field, g0 * (1.0 - 1e-6))
        assert u_lo.sequence == u.sequence
        assert u_lo.times == u.times
        u_hi = max_map(u, field, g0 * (1.0 + 1e-3))
        assert u_hi.n_segments > 1, opt
        assert 2 in u_hi.sequence
        qualifying += 1
    assert qualifying >= 10


def test_criterion_3c_cost_constant_below_gamma_zero(vehicle, vehicle_x0):
    sched = ModeSchedule((2, 1), (2.75,), 5.5, 4)
    x = integrate_state(vehicle, vehicle_x0, sched)
    rho = integrate_adjoint(vehicle, sched, x)
    field = insertion_gradient(vehicle, sched, x, rho)
    theta = optimality(field).theta
    assert theta < 0.0
    g0 = gamma_zero(theta)
    costs = []
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        res = project(vehicle, vehicle_x0, sched, field, frac * g0)
        assert res.schedule.sequence == sched.sequence
        assert res.schedule.times == sched.times
        costs.append(res.cost)
    assert max(costs) - min(costs) <= 1e-12 * (1.0 + abs(costs[0]))


def test_criterion_4_event_motion_laws():
    # synthetic channels with theta = -2 at t = 0.75: a parabola with
    # curvature 2 (new-pair case) and a V with slope 5 (crossing case).
    # Measured edge motion vs the step models:
    #   pair:     |dT| = sqrt(2)|theta|/sqrt(ddot d) * sqrt(gamma - gamma0)
    #   crossing: |dT| = theta^2/|dot d| * (gamma - gamma0)
    horizon = 2.0
    u = constant_schedule(1, horizon, 2)
    zero = lambda ts: np.zeros_like(np.asarray(ts, float))
    para = lambda ts: (np.asarray(ts, float) - 0.75) ** 2 - 2.0
    vee = lambda ts: 5.0 * np.abs(np.asarray(ts, float) - 0.75) - 2.0
    g0 = gamma_zero(-2.0)
    cases = (
        (para, lambda dg: 2.0 * np.sqrt(dg), 0.10),
        (vee, lambda dg: 0.8 * dg, 0.05),
    )
    for channel, model, tol in cases:
        field = InsertionGradientField.from_callables(u, [zero, channel])
        for eps in (1e-4, 1e-3, 1e-2):
            gamma = g0 * (1.0 + eps)
            u1 = max_map(u, field, gamma)
            assert u1.sequence == (1, 2, 1), (channel, eps)
            lo, hi = u1.times
            # the two edges must move in opposite directions off t = 0.75
            assert lo < 0.75 < hi
            predicted = model(gamma - g0)
            for edge in (lo, hi):
                assert abs(abs(edge - 0.75) - predicted) <= tol * predicted, (
                    channel, eps, edge, predicted)


@pytest.fixture(scope="module")
def descent_run(vehicle, vehicle_x0):
    """Shared 50-iteration vehicle descent from the constant-turn start."""
    cfg = OptimizerConfig(alpha=0.4, beta=0.4, max_iter=50, theta_stop=0.0)
    t_start = time.perf_counter()
    res = optimize(vehicle, vehicle_x0,
                   constant_schedule(2, HORIZON_DEFAULT, 4), cfg)
    return res, time.perf_counter() - t_start


def test_criterion_5_vehicle_descent(descent_run):
    res, wall = descent_run
    assert res.status == "max_iter"
    costs = np.asarray(res.costs)
    assert costs.shape == (51,)
    assert np.all(np.diff(costs) < 0.0)          # monotone descent
    assert costs[-1] <= 2.0
    # at least 95% of the achieved reduction inside the first 10 steps
    assert (costs[0] - costs[10]) / (costs[0] - costs[-1]) >= 0.95
    assert -5.0 < res.theta_final < 0.0
    assert wall < 300.0


def test_criterion_6_step_bookkeeping(descent_run):
    res, _ = descent_run
    rows = [r for r in res.iterations if r.gamma is not None]
    assert len(rows) == 50
    for r in rows:
        assert r.j <= 40
        assert 0.0 < r.gamma0 < r.gamma <= r.gamma3 * (1.0 + 1e-12)
        assert 1.5717005688582248 < r.gamma3 / r.gamma0 < 2.0


def test_criterion_7_power_disturbance_rejection():
    t_start = time.perf_counter()
    net = load_network(str(THREE_MACHINE))
    sysp = power_system(net)
    x0 = initial_state(net, magnitude=0.3, seed=0)
    window = constant_schedule(1, 1.0, net.num_configs)
    ctrl = receding_horizon(sysp, x0, window, n_windows=50, advance=0.1,
                            config=OptimizerConfig(alpha=0.4, beta=0.1))
    free = integrate_state(sysp, x0, constant_schedule(1, 5.0,
                                                       net.num_configs))

    def tail_cost(curve):
        # running cost accumulated over the final second
        return curve.cost_at(5.0) - curve.cost_at(4.0)

    assert tail_cost(free) >= 2.0 * tail_cost(ctrl.trajectory)
    ts = np.linspace(0.0, 5.0, 2001)
    angles = ctrl.trajectory(ts)[:, :net.n_gen]
    spread = angles.max(axis=1) - angles.min(axis=1)
    assert spread.max() <= 2.0 * spread[0]
    assert time.perf_counter() - t_start < 120.0


def test_criterion_8_large_network_stretch():
    path = os.environ.get("MODESCHED_CASE118")
    if not path:
        pytest.skip(
            "stretch target: a 118-bus swing parameterization is not bundled "
            "and this environment has no offline source for one; set "
            "MODESCHED_CASE118 to a network JSON (demos/convert_matpower.py "
            "builds one from a MATPOWER case file) to run this")
    net = load_network(path)
    sysp = power_system(net)
    x0 = initial_state(net, magnitude=0.1, seed=0)
    cfg = OptimizerConfig(alpha=0.4, beta=0.1, max_iter=100, theta_stop=0.0)
    res = optimize(sysp, x0, constant_schedule(1, 2.0, net.num_configs), cfg)
    costs = np.asarray(res.costs)
    assert np.all(np.diff(costs) <= 0.0)
    assert costs[-1] <= 0.5 * costs[0]


def test_criterion_9_repeat_runs_byte_identical(tmp_path):
    cfg = REPO / "demos" / "vehicle.json"
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["optimize", str(cfg), "--out", str(out)]) == 0
        blobs.append((out / "iterates.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_regression_constant_mode_one_start(vehicle, vehicle_x0):
    # the other constant start lands in a slower basin; pin its behavior
    # so the contrast with the constant-turn start stays visible
    cfg = OptimizerConfig(alpha=0.4, beta=0.4, max_iter=50, theta_stop=0.0)
    res = optimize(vehicle, vehicle_x0,
                   constant_schedule(1, HORIZON_DEFAULT, 4), cfg)
    costs = np.asarray(res.costs)
    assert np.all(np.diff(costs) < 0.0)
    assert costs[-1] <= 5.0
