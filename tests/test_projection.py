"""Max-projection: threshold rule, identity region, idempotence, slivers."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modesched import (
    DegenerateTieError,
    InsertionGradientField,
    ModeSchedule,
    constant_schedule,
    gamma_zero,
    insertion_gradient,
    integrate_adjoint,
    integrate_state,
    max_map,
    optimality,
    project,
)
from modesched.gradient import _lowest
from modesched import projection
from modesched.projection import _winners
from conftest import (
    first_passing_point,
    max_rule_crossings,
    quadratic_bottoms,
    quadratic_field,
    random_field,
    random_schedule,
)


def zero_field(sched):
    return InsertionGradientField.from_callables(
        sched, [lambda t: np.zeros_like(t)] * sched.num_modes)


def test_gamma_zero_values():
    assert gamma_zero(-2.0) == pytest.approx(0.5)
    assert gamma_zero(-0.1) == pytest.approx(10.0)
    assert gamma_zero(0.0) is None
    assert gamma_zero(1.0) is None


def test_identity_below_gamma_zero_randomized():
    rng = np.random.default_rng(101)
    hits = 0
    for _ in range(20):
        sched = random_schedule(rng, 2.0, 3, int(rng.integers(0, 4)))
        field = random_field(rng, sched)
        theta = optimality(field).theta
        if theta >= -1e-6:
            continue
        hits += 1
        g0 = gamma_zero(theta)
        for frac in (0.1, 0.5, 0.9, 1.0 - 1e-6):
            assert max_map(sched, field, frac * g0) == sched
    assert hits >= 10


def test_threshold_rule_matches_literal_argmax():
    # the projected mode must agree with a literal argmax of the relaxed
    # signal u - gamma*d at every sampled time away from the crossings
    rng = np.random.default_rng(202)
    checked = 0
    for _ in range(15):
        sched = random_schedule(rng, 2.0, 3, int(rng.integers(0, 4)))
        field = random_field(rng, sched)
        theta = optimality(field).theta
        if theta >= -1e-3:
            continue
        gamma = float(gamma_zero(theta) * rng.uniform(1.05, 4.0))
        out = max_map(sched, field, gamma, dwell=1e-12)
        cuts = np.array(out.times) if out.times else np.empty(0)
        for t in rng.uniform(0.0, 2.0, 80):
            if cuts.size and np.min(np.abs(cuts - t)) < 1e-6:
                continue
            inc = sched.mode_at(t)
            d = field.values_in_segment(sched.segment_of(t), [t])[0]
            w = -gamma * d
            w[inc - 1] += 1.0
            top = np.sort(w)[-2:]
            if top[1] - top[0] < 1e-9:
                continue
            assert out.mode_at(t) == int(np.argmax(w)) + 1
            checked += 1
    assert checked > 300


def test_projection_idempotent_on_its_image():
    # a vertex signal projects to itself: reapplying with the field of an
    # already-projected signal (identically zero change, any gamma) must
    # reproduce the schedule exactly
    rng = np.random.default_rng(303)
    changed = 0
    for _ in range(15):
        sched = random_schedule(rng, 2.0, 3, int(rng.integers(0, 4)))
        field = random_field(rng, sched)
        theta = optimality(field).theta
        if theta >= -1e-3:
            continue
        gamma = float(gamma_zero(theta) * rng.uniform(1.1, 5.0))
        once = max_map(sched, field, gamma)
        if once != sched:
            changed += 1
        again = max_map(once, zero_field(once), gamma)
        assert again == once
    assert changed >= 5


def test_boundary_behavior_around_gamma_zero():
    # just below gamma0 the projection is still the identity; just above,
    # a crossing interval is born around an interior stationary minimizer
    rng = np.random.default_rng(404)
    tested = 0
    for _ in range(30):
        sched = random_schedule(rng, 2.0, 3, int(rng.integers(0, 4)))
        field = random_field(rng, sched)
        opt = optimality(field)
        if opt.theta >= -1e-3 or opt.boundary is not None \
                or not opt.stationary:
            continue
        g0 = gamma_zero(opt.theta)
        assert max_map(sched, field, g0 * (1 - 1e-6)) == sched
        assert max_map(sched, field, g0 * (1 + 1e-3)) != sched
        tested += 1
    assert tested >= 8


def test_cost_constant_below_gamma_zero(vehicle, vehicle_x0):
    sched = ModeSchedule((2, 1), (2.0,), 5.5, 4)
    x = integrate_state(vehicle, vehicle_x0, sched)
    rho = integrate_adjoint(vehicle, sched, x)
    field = insertion_gradient(vehicle, sched, x, rho)
    g0 = gamma_zero(optimality(field).theta)
    for frac in (0.05, 0.3, 0.5, 0.8, 0.99):
        res = project(vehicle, vehicle_x0, sched, field, frac * g0)
        assert res.schedule == sched
        assert res.cost == pytest.approx(x.cost, rel=1e-12)


def test_crossing_pair_around_parabolic_dip():
    sched = constant_schedule(1, 2.0, 2)
    field = InsertionGradientField.from_callables(
        sched,
        [lambda t: np.zeros_like(t), lambda t: (t - 1.0) ** 2 - 2.0],
    )
    g0 = 0.5  # theta = -2
    gamma = g0 * 1.25
    # challenger wins where (t-1)^2 - 2 < -1/gamma
    r = np.sqrt(2.0 - 1.0 / gamma)
    cross = max_rule_crossings(field, gamma)
    assert [m for _, m in cross] == [2, 1]
    assert cross[0][0] == pytest.approx(1.0 - r, abs=1e-9)
    assert cross[1][0] == pytest.approx(1.0 + r, abs=1e-9)
    out = max_map(sched, field, gamma)
    assert out.sequence == (1, 2, 1)
    np.testing.assert_allclose(out.times, [1.0 - r, 1.0 + r], atol=1e-9)
    # below the threshold nothing crosses
    assert max_rule_crossings(field, 0.99 * g0) == []


@settings(max_examples=100, deadline=None)
@given(q=quadratic_bottoms())
def test_crossings_of_a_quadratic_bottom_are_analytic(q):
    # just past gamma0 = 1/|v0| the channel beats the threshold on
    # (c - r, c + r), also when the pair sits inside one grid cell
    gamma = gamma_zero(q["v0"]) * (1.0 + q["eps"])
    cross = max_rule_crossings(quadratic_field(q), gamma)
    assert [m for _, m in cross] == [2, 1]
    np.testing.assert_allclose([t for t, _ in cross],
                               [q["c"] - q["r"], q["c"] + q["r"]],
                               rtol=0.0, atol=1e-9 * q["horizon"])


def test_last_bit_disagreement_at_a_bracket_end():
    # a batched and a single-point evaluation of the field may differ in
    # the last bit; a bracket end sampled exactly at the threshold must
    # keep the sign its sample gave, or the root solve has no sign change
    sched = constant_schedule(1, 1.0, 2)
    grid = zero_field(sched).grids[0]
    j = len(grid) // 2
    t_j = grid[j]

    def challenger(t):
        t = np.atleast_1d(np.asarray(t, float))
        d = -1.0 - (t - t_j)
        return np.nextafter(d, -np.inf) if t.size == 1 else d

    field = InsertionGradientField.from_callables(
        sched, [lambda t: np.zeros_like(t), challenger])
    assert field.grid_values[0][j, 1] == -1.0
    assert field.value_channel(2, t_j) < -1.0
    out = max_map(sched, field, 1.0)
    assert out.sequence == (1, 2)
    assert out.times == pytest.approx((t_j,), abs=1e-12)


def test_sliver_crossings_are_merged():
    # a dip below threshold lasting ~1.4e-8 is far under the default
    # dwell (1e-6 of the horizon) and must not survive projection
    w = 1e-8
    k = 1e16  # depth k*w^2 = 1 at the dip bottom
    sched = constant_schedule(1, 2.0, 2)
    field = InsertionGradientField.from_callables(
        sched,
        [lambda t: np.zeros_like(t),
         lambda t: k * ((t - 1.0) ** 2 - w ** 2)],
    )
    gamma = 2.0 / (k * w ** 2)  # threshold at half the dip depth
    out = max_map(sched, field, gamma)
    assert out == sched


def first_tie_run(tied):
    """Start of the first run of three tied samples, or ``None`` (the
    sample-by-sample reference for the vectorized check)."""
    run = 0
    for j, flag in enumerate(tied):
        run = run + 1 if flag else 0
        if run == 3:
            return j - 2
    return None


def test_degenerate_tie_raises():
    sched = constant_schedule(1, 1.0, 3)
    field = InsertionGradientField.from_callables(
        sched,
        [lambda t: np.zeros_like(t),
         lambda t: np.full_like(t, -2.0),
         lambda t: np.full_like(t, -2.0)],
    )
    with pytest.raises(DegenerateTieError):
        max_map(sched, field, 1.0)
    # channels 2 and 3 tie below the threshold exactly where ``tied`` is
    # set: two tied samples in a row pass, three raise, and the error
    # names the first run's interval
    pairs = np.array([False, True, True, False, True, True])
    rng = np.random.default_rng(3)
    for tied in [pairs] + [rng.random(n) < 0.6 for n in range(1, 40)]:
        n = len(tied)
        ts = np.sort(rng.uniform(0.0, 1.0, n))
        D = np.column_stack([np.zeros(n), np.full(n, -2.0),
                             np.where(tied, -2.0, -1.5)])
        j = first_tie_run(tied)
        if j is None:
            np.testing.assert_array_equal(
                _winners(_lowest(D), 1, -1.0, ts, 5), np.full(n, 2))
            continue
        with pytest.raises(DegenerateTieError) as err:
            _winners(_lowest(D), 1, -1.0, ts, 5)
        assert f"[{ts[j]:.6g}, {ts[j + 2]:.6g}] (segment 5)" \
            in str(err.value)


def winners_from_samples(D, inc, threshold, ts, seg):
    """The max rule's winners and tie test recomputed from the channel
    values ``D`` at a segment's samples."""
    dmin = D.min(axis=1)
    below = dmin < threshold
    w = np.where(below, D.argmin(axis=1) + 1, inc)
    D2 = np.sort(D, axis=1)
    tied = (D2[:, 1] - D2[:, 0] <= 1e-14 * (1.0 + np.abs(dmin))) & below
    runs = np.flatnonzero(tied[:-2] & tied[1:-1] & tied[2:])
    if runs.size:
        j = runs[0]
        raise DegenerateTieError(
            f"degenerate argmax tie below threshold on "
            f"[{ts[j]:.6g}, {ts[j + 2]:.6g}] (segment {seg})")
    return w


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), twins=st.booleans(),
       log_gammas=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
def test_max_map_from_lowest_equals_recomputing_from_samples(
        seed, twins, log_gammas):
    # the field keeps each sample's lowest value, its mode and the tie runs
    # once; every trial reads them and must project as if it recomputed
    # the max rule from ``samples[seg]``, raising the same tie errors
    rng = np.random.default_rng(seed)
    sched = random_schedule(rng, 3.0, int(rng.integers(2, 5)),
                            int(rng.integers(0, 4)))
    field = random_field(rng, sched, twins=twins)

    def recomputed(lowest, inc, threshold, ts, seg):
        return winners_from_samples(field.samples[seg][1], inc, threshold,
                                    ts, seg)

    def outcome(gamma):
        try:
            return max_map(sched, field, gamma)
        except DegenerateTieError as err:
            return str(err)

    for lg in log_gammas:
        got = outcome(10.0 ** lg)
        with mock.patch.object(projection, "_winners", recomputed):
            assert got == outcome(10.0 ** lg)


def test_project_reintegrates_cost(vehicle, vehicle_x0):
    sched = constant_schedule(2, 5.5, 4)
    x = integrate_state(vehicle, vehicle_x0, sched)
    rho = integrate_adjoint(vehicle, sched, x)
    field = insertion_gradient(vehicle, sched, x, rho)
    g0 = gamma_zero(optimality(field).theta)
    res = project(vehicle, vehicle_x0, sched, field, 1.7 * g0)
    assert res.schedule != sched
    check = integrate_state(vehicle, vehicle_x0, res.schedule)
    assert res.cost == pytest.approx(check.cost, rel=1e-12)
    assert res.cost < x.cost
    assert res.abandoned_at is None
    # under a bound the projected schedule cannot meet, the integration
    # stops at the first solver step end where the accumulated cost has
    # passed it
    bound = 0.5 * res.cost
    cut = project(vehicle, vehicle_x0, sched, field, 1.7 * g0,
                  reuse=x, cost_bound=bound)
    assert cut.schedule == res.schedule
    assert cut.trajectory is None and cut.cost == np.inf
    assert cut.abandoned_at == first_passing_point(res.trajectory, 0.0, bound)
    assert res.trajectory.cost_at(cut.abandoned_at) > bound
