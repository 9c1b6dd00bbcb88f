"""Insertion/switching-time gradients against finite-difference oracles."""
import numpy as np
import pytest
from hypothesis import given, settings

from modesched import (
    InsertionGradientField,
    ModeSchedule,
    constant_schedule,
    insertion_gradient,
    integrate_adjoint,
    integrate_state,
    optimality,
    switching_time_gradient,
)
from conftest import (masked_channels, quadratic_bottoms, quadratic_field,
                      random_schedule)


def field_for(sys_, x0, sched):
    x = integrate_state(sys_, x0, sched)
    rho = integrate_adjoint(sys_, sched, x)
    return x, rho, insertion_gradient(sys_, sched, x, rho)


def insertion_cost(sys_, x0, sched, mode, t, lam):
    """Cost after inserting ``mode`` on [t, t+lam) — the defining probe."""
    perturbed = sched.insert(mode, t, t + lam)
    return integrate_state(sys_, x0, perturbed, rtol=1e-12, atol=1e-13).cost


def test_insertion_gradient_fd_oracle(vehicle, vehicle_x0):
    rng = np.random.default_rng(42)
    sched = random_schedule(rng, 5.5, 4, 5)
    x, rho, field = field_for(vehicle, vehicle_x0, sched)
    J = integrate_state(vehicle, vehicle_x0, sched, rtol=1e-12,
                        atol=1e-13).cost
    lam = 1e-5
    for _ in range(6):
        t = float(rng.uniform(0.05, sched.horizon - 0.05))
        a = int(rng.integers(1, 5))
        fd = (insertion_cost(vehicle, vehicle_x0, sched, a, t, lam) - J) / lam
        d = field.value_channel(a, t)
        assert abs(fd - d) <= 1e-3 * (1.0 + abs(d))


def test_active_channel_is_zero(vehicle, vehicle_x0):
    rng = np.random.default_rng(5)
    sched = random_schedule(rng, 4.0, 4, 3)
    _, _, field = field_for(vehicle, vehicle_x0, sched)
    for t in rng.uniform(0.0, 4.0, 30):
        active = sched.mode_at(t)
        assert field.value_channel(active, t) == 0.0
        vals = field.value(t)
        assert vals[active - 1] == 0.0


def test_field_slopes_match_fd(vehicle, vehicle_x0):
    rng = np.random.default_rng(9)
    sched = random_schedule(rng, 4.0, 4, 4)
    _, _, field = field_for(vehicle, vehicle_x0, sched)
    h = 1e-6
    for _ in range(12):
        t = float(rng.uniform(0.1, 3.9))
        seg = sched.segment_of(t)
        lo, hi = sched.segment_bounds(seg)
        if t - h < lo or t + h > hi:
            continue
        a = int(rng.integers(1, 5))
        fd = (field.value_channel(a, t + h)
              - field.value_channel(a, t - h)) / (2 * h)
        assert field.slope(a, t) == pytest.approx(fd, rel=5e-4, abs=1e-6)


def test_switching_time_gradient_fd_oracle(vehicle, vehicle_x0):
    rng = np.random.default_rng(17)
    sched = random_schedule(rng, 5.5, 4, 5)
    x, rho, _ = field_for(vehicle, vehicle_x0, sched)
    grad = switching_time_gradient(vehicle, sched, x, rho)
    assert grad.shape == (5,)
    eps = 1e-6
    for i, Ti in enumerate(sched.times):
        ts = np.array(sched.times)
        ts[i] = Ti + eps
        jp = integrate_state(vehicle, vehicle_x0, sched.with_times(ts),
                             rtol=1e-12, atol=1e-13).cost
        ts[i] = Ti - eps
        jm = integrate_state(vehicle, vehicle_x0, sched.with_times(ts),
                             rtol=1e-12, atol=1e-13).cost
        fd = (jp - jm) / (2 * eps)
        assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_switch_gradient_equals_field_at_switch(vehicle, vehicle_x0):
    # nudging switch i right extends the earlier mode into the later
    # segment, so dJ/dT_i equals the earlier mode's channel there
    rng = np.random.default_rng(23)
    sched = random_schedule(rng, 5.0, 4, 4)
    x, rho, field = field_for(vehicle, vehicle_x0, sched)
    grad = switching_time_gradient(vehicle, sched, x, rho)
    for i, Ti in enumerate(sched.times):
        before = sched.sequence[i]
        d = field.value_channel(before, Ti, side="right")
        assert grad[i] == pytest.approx(d, rel=1e-9, abs=1e-12)


def test_optimality_on_synthetic_parabola():
    sched = constant_schedule(1, 2.0, 2)
    field = InsertionGradientField.from_callables(
        sched,
        [lambda t: np.zeros_like(t), lambda t: (t - 0.75) ** 2 - 2.0],
    )
    opt = optimality(field)
    assert opt.theta == pytest.approx(-2.0, abs=1e-9)
    assert opt.mode == 2
    assert opt.time == pytest.approx(0.75, abs=1e-6)
    assert opt.stationary
    assert opt.boundary is None
    assert opt.curvature == pytest.approx(2.0, rel=1e-3)
    # the sup-norm is a grid-level diagnostic, not a refined quantity
    assert opt.norm_inf == pytest.approx(2.0, rel=1e-3)


def test_optimality_boundary_minimum():
    # strictly decreasing channel: the minimum sits at the horizon end,
    # a one-sided (left-sided) minimum
    sched = constant_schedule(1, 1.0, 2)
    field = InsertionGradientField.from_callables(
        sched, [lambda t: np.zeros_like(t), lambda t: -t],
    )
    opt = optimality(field)
    assert opt.theta == pytest.approx(-1.0, abs=1e-9)
    assert opt.time == pytest.approx(1.0, abs=1e-9)
    assert opt.boundary == "left"
    assert not opt.stationary


@settings(max_examples=100, deadline=None)
@given(q=quadratic_bottoms())
def test_quadratic_bottom_is_a_stationary_interior_minimum(q):
    # the minimizer is the root of the analytic slope, wherever the centre
    # sits and however flat or sharp the bottom is
    opt = optimality(quadratic_field(q))
    assert opt.mode == 2
    assert opt.boundary is None
    assert opt.stationary
    assert abs(opt.time - q["c"]) <= 1e-9 * q["horizon"]


def test_local_minima_catch_subgrid_dip():
    # a stationary dip a couple of 1e-4 inside the segment end hides
    # between the last two grid nodes; the endpoint-slope refinement
    # must still find it and report it as interior
    eps = 2e-4
    sched = constant_schedule(1, 1.0, 2)
    field = InsertionGradientField.from_callables(
        sched,
        [lambda t: np.zeros_like(t),
         lambda t: (t - (1.0 - eps)) ** 2 - 1.0],
    )
    minima = [m for m in field.local_minima() if m["mode"] == 2]
    best = min(minima, key=lambda m: m["value"])
    assert best["boundary"] is None
    assert best["time"] == pytest.approx(1.0 - eps, abs=1e-7)
    assert best["value"] == pytest.approx(-1.0, abs=1e-10)


def test_no_phantom_minimum_at_a_jump_across_a_switch():
    # a channel of absolute time already takes its next segment's branch at
    # the switch; the difference stencil must not reach it, or the jump
    # turns the slope positive just before the switch and fakes a minimum
    switch, horizon = 0.6, 1.0
    sched = ModeSchedule((1, 2), (switch,), horizon, 3)
    zero = lambda t: np.zeros_like(t)
    jump = lambda t: np.where(t < switch, -t, 10.0)
    field = InsertionGradientField.from_callables(
        sched, masked_channels(sched, [zero, zero, jump]))
    assert field.slope(3, switch, side="left") == pytest.approx(-1.0)
    near = [m for m in field.local_minima() if m["boundary"] is None
            and abs(m["time"] - switch) <= 1e-6 * horizon]
    assert near == []
    # the well is the first segment's own end, a one-sided minimum
    opt = optimality(field)
    assert (opt.mode, opt.time, opt.boundary) == (3, switch, "left")
    assert opt.theta == pytest.approx(-switch, rel=1e-12)


def test_minima_respect_segment_boundaries(vehicle, vehicle_x0):
    rng = np.random.default_rng(31)
    sched = random_schedule(rng, 5.0, 4, 5)
    _, _, field = field_for(vehicle, vehicle_x0, sched)
    for m in field.local_minima():
        lo, hi = sched.segment_bounds(m["segment"])
        assert lo - 1e-12 <= m["time"] <= hi + 1e-12
        # "right" marks a right-sided minimum at the segment start,
        # "left" a left-sided one at the segment end
        if m["boundary"] == "right":
            assert m["time"] == pytest.approx(lo, abs=1e-12)
        elif m["boundary"] == "left":
            assert m["time"] == pytest.approx(hi, abs=1e-12)


def test_theta_nonpositive_and_attained(vehicle, vehicle_x0):
    rng = np.random.default_rng(37)
    for _ in range(5):
        sched = random_schedule(rng, 4.5, 4, int(rng.integers(0, 6)))
        _, _, field = field_for(vehicle, vehicle_x0, sched)
        opt = optimality(field)
        assert opt.theta <= 0.0  # the active channel is always zero
        if opt.mode is not None:
            side = "left" if opt.boundary == "left" else "right"
            val = field.value_channel(opt.mode, opt.time, side=side)
            assert val == pytest.approx(opt.theta, rel=1e-9, abs=1e-12)
