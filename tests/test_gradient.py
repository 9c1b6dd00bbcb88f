"""Insertion/switching-time gradients against finite-difference oracles."""
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modesched import (
    InsertionGradientField,
    ModeSchedule,
    constant_schedule,
    descent_slope,
    initial_switch_events,
    insertion_gradient,
    integrate_adjoint,
    integrate_state,
    optimality,
    switching_time_gradient,
)
from modesched.models import (initial_state, load_network, power_system,
                              vehicle_initial_state, vehicle_system)
from conftest import (THREE_MACHINE, masked_channels, quadratic_bottoms,
                      quadratic_field, random_field, random_schedule,
                      ring_network)


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


@pytest.mark.parametrize("other", [
    ModeSchedule((1, 3), (0.8,), 3.0, 4),           # a segment fewer
    ModeSchedule((1, 3, 2), (0.8, 2.0), 3.0, 4),    # a switch moved
    ModeSchedule((1, 3, 2), (0.8, 1.9), 5.5, 4),    # another horizon
], ids=["fewer", "moved", "horizon"])
def test_adjoint_and_field_refuse_a_curve_of_another_schedule(
        vehicle, vehicle_x0, other):
    sched = ModeSchedule((1, 3, 2), (0.8, 1.9), 3.0, 4)
    x = integrate_state(vehicle, vehicle_x0, sched)
    rho = integrate_adjoint(vehicle, sched, x)
    with pytest.raises(ValueError, match="boundaries"):
        integrate_adjoint(vehicle, other, x)
    with pytest.raises(ValueError, match="boundaries"):
        insertion_gradient(vehicle, other, x, rho)
    # boundaries within 1e-12 of the horizon agree
    near = ModeSchedule((1, 3, 2), (0.8, 1.9 + 1e-13), 3.0, 4)
    integrate_adjoint(vehicle, near, x)
    insertion_gradient(vehicle, near, x, rho)


def test_active_channel_is_zero(vehicle, vehicle_x0):
    rng = np.random.default_rng(5)
    sched = random_schedule(rng, 4.0, 4, 3)
    _, _, field = field_for(vehicle, vehicle_x0, sched)
    for t in rng.uniform(0.0, 4.0, 30):
        active = sched.mode_at(t)
        assert field.value_channel(active, t) == 0.0
        vals = field.values_in_segment(sched.segment_of(t), [t])[0]
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
        slope = field.slopes_in_segment(seg, np.array([t]), (a,))[0, 0]
        assert slope == pytest.approx(fd, rel=5e-4, abs=1e-6)


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


def test_switch_gradient_equals_earlier_mode_channel(vehicle, vehicle_x0):
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
    _, curv = field.slopes_and_curvatures([0], [opt.time], [opt.mode])
    assert curv[0] == pytest.approx(2.0, rel=1e-3)
    # the sup-norm is a grid-level diagnostic, not a refined quantity
    assert field.norm_inf == pytest.approx(2.0, rel=1e-3)


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
    minima = [m for m in field.minima if m["mode"] == 2]
    best = min(minima, key=lambda m: m["value"])
    assert best["boundary"] is None
    assert best["time"] == pytest.approx(1.0 - eps, abs=1e-7)
    assert best["value"] == pytest.approx(-1.0, abs=1e-10)


def test_a_well_between_two_equal_grid_nodes_is_one_minimum():
    # (t - t_j)(t - t_k) - 2 holds exactly -2 at the two neighbouring grid
    # nodes t_j < t_k of the first segment nearest 0.2, and its well lies
    # midway between them; only one of the nodes may open a bracket, or
    # the one well is listed twice and opens two pairs of events; the
    # analytic slope makes the minimum's location a test of the root solve
    # (a difference slope is only good to about eps / 1e-7)
    sched = ModeSchedule((1, 2, 1), (0.4, 0.7), 1.0, 3)
    zero = lambda t: np.zeros_like(t)
    grid = InsertionGradientField.from_callables(sched, [zero] * 3).grids[0]
    j = int(np.searchsorted(grid, 0.2))
    t_j, t_k = grid[j], grid[j + 1]
    field = InsertionGradientField.from_callables(
        sched,
        masked_channels(sched, [
            zero, lambda t: (t - t_j) * (t - t_k) - 2.0, zero]),
        channel_slopes=masked_channels(sched, [
            zero, lambda t: 2.0 * t - t_j - t_k, zero]))
    assert np.array_equal(field.grids[0], grid)
    assert field.grid_values[0][j, 1] == field.grid_values[0][j + 1, 1] \
        == -2.0
    interior = [m for m in field.minima if m["boundary"] is None]
    assert [m["mode"] for m in interior] == [2]
    assert interior[0]["time"] == pytest.approx(0.5 * (t_j + t_k),
                                                abs=1e-12)
    opt = optimality(field)
    events = initial_switch_events(field, opt)
    moving = [e for e in events if e.event_type != 0]
    assert len(moving) == 2
    assert sorted(e.omega for e in moving) == [0, 1]
    # one opposed pair, each edge -sqrt(2) theta^2 / sqrt(2) = -4
    assert descent_slope(events, opt.theta, 2) == pytest.approx(-8.0,
                                                                rel=1e-4)


def test_a_well_in_a_segment_of_one_grid_cell_is_one_minimum():
    # a segment shorter than one grid cell is sampled at its two ends only,
    # so its first and last cell are one cell; bracketed twice, its well
    # would be listed twice and open two pairs of events
    lo, hi = 0.5, 0.501
    sched = ModeSchedule((1, 2, 1), (lo, hi), 1.0, 3)
    c = 0.5 * (lo + hi)
    zero = lambda t: np.zeros_like(t)
    field = InsertionGradientField.from_callables(
        sched, masked_channels(sched, [
            zero, zero, lambda t: 4e6 * (t - c) ** 2 - 2.0]))
    assert np.array_equal(field.grids[1], [lo, hi])
    interior = [m for m in field.minima if m["boundary"] is None]
    assert [(m["segment"], m["mode"]) for m in interior] == [(1, 3)]
    assert interior[0]["time"] == pytest.approx(c, abs=1e-12)
    opt = optimality(field)
    assert (opt.mode, opt.stationary) == (3, True)
    moving = [e for e in initial_switch_events(field, opt)
              if e.event_type != 0]
    assert sorted(e.omega for e in moving) == [0, 1]


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
    assert field.slopes_in_segment(0, np.array([switch]), (3,))[0, 0] \
        == pytest.approx(-1.0)
    near = [m for m in field.minima if m["boundary"] is None
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
    for m in field.minima:
        lo, hi = sched.segment_bounds(m["segment"])
        assert lo - 1e-12 <= m["time"] <= hi + 1e-12
        # "right" marks a right-sided minimum at the segment start,
        # "left" a left-sided one at the segment end
        if m["boundary"] == "right":
            assert m["time"] == pytest.approx(lo, abs=1e-12)
        elif m["boundary"] == "left":
            assert m["time"] == pytest.approx(hi, abs=1e-12)


@pytest.mark.parametrize("seed", [31, 41])
def test_samples_merge_the_interior_minima_into_the_grid(vehicle, vehicle_x0,
                                                         seed):
    sched = random_schedule(np.random.default_rng(seed), 5.0, 4, 5)
    _, _, field = field_for(vehicle, vehicle_x0, sched)
    minima = field.minima
    assert any(m["boundary"] is None for m in minima)
    for seg in range(sched.n_segments):
        ts, D = field.samples[seg]
        assert np.all(np.diff(ts) > 0.0)
        grid = field.grids[seg]
        te = np.array([m["time"] for m in minima
                       if m["segment"] == seg and m["boundary"] is None])
        at = np.searchsorted(ts, grid)
        assert np.array_equal(ts[at], grid)
        assert np.array_equal(D[at], field.grid_values[seg])
        if te.size:
            at = np.searchsorted(ts, te)
            assert np.array_equal(ts[at], te)
            # a minimum on a grid time keeps the grid's row
            own = ~np.isin(te, grid)
            assert np.array_equal(D[at][own],
                                  field.values_in_segment(seg, te)[own])
        assert len(ts) == len(np.union1d(grid, te))


def test_a_field_samples_each_grid_once_and_then_only_reads():
    # the field is built once: later queries of theta, the step events
    # and the max rule's samples read what construction sampled
    sched = ModeSchedule((1, 2, 1), (0.4, 0.7), 1.0, 3)
    value_calls, slope_calls = [], []

    def counted(fns, calls):
        def wrap(fn):
            def f(t):
                calls.append(np.array(t, dtype=float))
                return fn(t)
            return f
        return [wrap(fn) for fn in masked_channels(sched, fns)]

    values = [lambda t: (t - 0.55) ** 2 - 0.5, lambda t: (t - 0.21) ** 2 - 2.0,
              lambda t: np.cos(9.0 * t)]
    slopes = [lambda t: 2.0 * (t - 0.55), lambda t: 2.0 * (t - 0.21),
              lambda t: -9.0 * np.sin(9.0 * t)]
    field = InsertionGradientField.from_callables(
        sched, counted(values, value_calls),
        channel_slopes=counted(slopes, slope_calls))
    # all grids in one read: one call per channel function
    grids = np.concatenate(field.grids)
    hits = [ts for ts in value_calls if len(ts) == len(grids)]
    assert len(hits) == sched.num_modes
    for ts in hits:
        at = 0
        for seg, grid in enumerate(field.grids):
            # a segment ending at a switch reads its end just below it
            own = grid[:-1] if seg < len(sched.times) else grid
            assert np.array_equal(ts[at:at + len(own)], own)
            at += len(grid)
    value_calls.clear()
    slope_calls.clear()
    opt = optimality(field)
    assert opt.theta == pytest.approx(-2.0, abs=1e-12)
    for seg in range(sched.n_segments):
        ts, D = field.samples[seg]
        assert len(ts) >= len(field.grids[seg])
    assert value_calls == [] and slope_calls == []
    events = initial_switch_events(field, opt)
    assert sorted(e.omega for e in events if e.event_type != 0) == [0, 1]
    # one read of the one interior minimum's slope and curvature
    # stencil, shared by its two events: three points, its channel alone
    assert value_calls == []
    assert len(slope_calls) == 1 and len(slope_calls[0]) == 3


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


SLOPE_CASES = {
    "vehicle": lambda: (vehicle_system(), vehicle_initial_state(),
                        ModeSchedule((1, 4, 2, 3), (0.8, 1.7, 2.6), 3.5, 4)),
    "three-machine": lambda: (
        power_system(load_network(THREE_MACHINE)),
        initial_state(load_network(THREE_MACHINE), magnitude=0.3, seed=0),
        ModeSchedule((1, 2, 1), (0.3, 0.65), 1.0, 2)),
}


@pytest.mark.parametrize("name", SLOPE_CASES)
def test_a_trajectory_field_samples_the_state_knots(name):
    # one time discretization per iterate: the field is sampled on the
    # knots that the state and the adjoint share, where both are knot data
    sys_, x0, sched = SLOPE_CASES[name]()
    x, rho, field = field_for(sys_, x0, sched)
    for seg in range(sched.n_segments):
        ts, xs, _ = x.knots[seg]
        assert np.array_equal(field.grids[seg], ts)
        assert np.array_equal(field.grids[seg], rho.knots[seg][0])
        rs, m = rho.knots[seg][1], sched.sequence[seg]
        for a in range(1, sched.num_modes + 1):
            d = np.einsum("ij,ij->i", rs,
                          sys_.mode_field(a, xs) - sys_.mode_field(m, xs))
            assert np.array_equal(field.grid_values[seg][:, a - 1],
                                  np.zeros_like(d) if a == m else d)


@pytest.mark.parametrize("name", SLOPE_CASES)
def test_single_channel_slopes_are_the_full_columns(name):
    sys_, x0, sched = SLOPE_CASES[name]()
    modes = []

    def jacobian(i, x):
        modes.append(i)
        return sys_.mode_jacobian(i, x)

    counted = dataclasses.replace(sys_, mode_jacobian=jacobian)
    _, _, field = field_for(counted, x0, sched)
    slopes = field.slopes_in_segment
    rng = np.random.default_rng(3)
    for seg in range(sched.n_segments):
        lo, hi = sched.segment_bounds(seg)
        ts = np.concatenate([[lo, hi], rng.uniform(lo, hi, 5)])
        full = slopes(seg, ts)
        active = sched.sequence[seg]
        for a in range(1, sched.num_modes + 1):
            assert np.array_equal(slopes(seg, ts, (a,))[:, 0], full[:, a - 1])
            for t in ts:  # one point, as the root solves ask
                one = slopes(seg, np.array([t]))[:, a - 1]
                modes.clear()
                assert np.array_equal(slopes(seg, np.array([t]), (a,))[:, 0],
                                      one)
                # the active mode's Jacobian and channel a's, or none
                assert sorted(modes) == ([] if a == active
                                         else sorted([active, a]))


@pytest.mark.parametrize("name", SLOPE_CASES)
def test_listed_channel_values_are_the_full_columns(name):
    # a crossing's root solve reads only the two modes it compares
    sys_, x0, sched = SLOPE_CASES[name]()
    modes = []

    def mode_field(i, x):
        modes.append(i)
        return sys_.mode_field(i, x)

    counted = dataclasses.replace(sys_, mode_field=mode_field)
    _, _, field = field_for(counted, x0, sched)
    rng = np.random.default_rng(4)
    pairs = [(a, b) for a in range(1, sched.num_modes + 1)
             for b in range(1, sched.num_modes + 1) if a != b]
    for seg in range(sched.n_segments):
        lo, hi = sched.segment_bounds(seg)
        active = sched.sequence[seg]
        for t in np.concatenate([[lo, hi], rng.uniform(lo, hi, 3)]):
            ts = np.array([t])
            full = field.values_in_segment(seg, ts)
            for pair in pairs:
                modes.clear()
                got = field.values_in_segment(seg, ts, pair)
                assert np.array_equal(got, full[:, [m - 1 for m in pair]])
                assert sorted(modes) == sorted({active, *pair})


def test_listed_channel_values_of_a_synthetic_field():
    sched = ModeSchedule((1, 3, 2), (0.4, 0.7), 1.0, 3)
    field = InsertionGradientField.from_callables(
        sched, [np.sin, np.cos, lambda t: t ** 2])
    ts = np.linspace(0.0, 1.0, 7)
    for seg in range(sched.n_segments):
        full = field.values_in_segment(seg, ts)
        assert np.array_equal(field.values_in_segment(seg, ts, (3, 1)),
                              full[:, [2, 0]])


def test_a_one_mode_field_has_no_minima_and_no_ties():
    # a single channel is the active one and has no second channel to tie
    # with: the field builds, has no minima, and theta is 0
    from modesched import max_map
    sched = constant_schedule(1, 2.0, 1)
    field = InsertionGradientField.from_callables(sched, [lambda t: 0.0 * t])
    assert field.minima == []
    assert all(runs.size == 0 for _, _, runs in field.lowest)
    assert optimality(field).theta == 0.0
    assert max_map(sched, field, 1.0) == sched


@functools.lru_cache(maxsize=None)
def mixed_read_field(kind):
    """A field of several segments to read across them: a trajectory
    field of the vehicle, the three-machine network or the 12-machine
    ring, or a synthetic one from callables."""
    rng = np.random.default_rng(71)
    if kind == "callables":
        return random_field(rng, random_schedule(rng, 3.0, 3, 4))
    if kind == "vehicle":
        sys_, x0 = vehicle_system(), vehicle_initial_state()
        sched = random_schedule(rng, 5.5, 4, 4)
    else:
        net = load_network(str(THREE_MACHINE)) if kind == "three-machine" \
            else ring_network()
        sys_, x0 = power_system(net), initial_state(net, 0.2, seed=3)
        sched = random_schedule(rng, 1.0, 2, 4)
    return field_for(sys_, x0, sched)[2]


@settings(max_examples=25, deadline=None)
@given(data=st.data(), dx=st.sampled_from([0, 1]),
       bound=st.booleans())
@pytest.mark.parametrize("kind", ["vehicle", "three-machine", "ring12",
                                  "callables"])
def test_a_read_across_segments_gives_each_point_its_own_bits(
        kind, data, dx, bound):
    # a read of points from any mix of segments gives each point the bits
    # of the read of its segment's points alone: values, slopes and
    # rounding bounds, for all channels or some, knots included
    field = mixed_read_field(kind)
    sched = field.schedule
    segs = data.draw(st.lists(st.integers(0, sched.n_segments - 1),
                              min_size=1, max_size=4, unique=True))
    parts = []
    for seg in segs:
        grid = field.grids[seg]
        lo, hi = sched.segment_bounds(seg)
        picks = data.draw(st.lists(
            st.one_of(st.floats(0.0, 1.0).map(lambda u: lo + u * (hi - lo)),
                      st.integers(0, len(grid) - 1).map(
                          lambda i: float(grid[i]))),
            min_size=2, max_size=5))
        parts.append((seg, np.array(picks)))
    modes = data.draw(st.one_of(st.none(), st.permutations(
        range(1, sched.num_modes + 1)).flatmap(
            lambda p: st.integers(1, len(p)).map(lambda k: list(p[:k])))))
    order = data.draw(st.permutations(range(sum(len(t) for _, t in parts))))
    all_segs = np.concatenate([np.full(len(t), seg) for seg, t in parts])
    all_ts = np.concatenate([t for _, t in parts])
    order = np.array(order)
    F, E = field.channels_at(all_segs[order], all_ts[order], modes, dx, bound)
    at = np.empty_like(order)
    at[order] = np.arange(len(order))
    start = 0
    for seg, ts in parts:
        rows = at[start:start + len(ts)]
        start += len(ts)
        F1, E1 = field.channels_at(seg, ts, modes, dx, bound)
        assert F[rows].tobytes() == F1.tobytes()
        assert E[rows].tobytes() == E1.tobytes()


def test_a_field_build_makes_as_many_reads_on_12_segments_as_on_2(
        monkeypatch):
    # every read of a field build spans all segments: the values at the
    # grids, the slopes at the bracket ends, each round of the minima and
    # the values at them, so its ``channels_at`` calls do not grow with
    # the segment count: each segment holds wells of the same shape, so
    # the slowest minimum takes as many rounds on either schedule
    calls = []
    init = InsertionGradientField.__init__

    def counted(self, schedule, channels_at, grids):
        def read(*args):
            calls.append(args)
            return channels_at(*args)
        init(self, schedule, read, grids)

    monkeypatch.setattr(InsertionGradientField, "__init__", counted)
    counts = []
    for n_switches in (1, 11):
        sched = ModeSchedule(
            tuple(1 + k % 2 for k in range(n_switches + 1)),
            tuple(np.linspace(0.0, 6.0, n_switches + 2)[1:-1].tolist()),
            6.0, 3)
        raws = [lambda t, c=c: (np.sin(np.pi * t / 0.25) + c) ** 2
                for c in (0.1, 0.2, 0.3)]
        calls.clear()
        field = InsertionGradientField.from_callables(
            sched, masked_channels(sched, raws))
        assert sum(m["boundary"] is None for m in field.minima) \
            >= n_switches + 1
        counts.append(len(calls))
    assert counts[0] == counts[1]
