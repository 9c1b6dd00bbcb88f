"""Batched root solves: the field's minima and the max rule's crossings."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modesched import (
    InsertionGradientField,
    ModeSchedule,
    OptimizerConfig,
    constant_schedule,
    enforce_dwell,
    gamma_zero,
    insertion_gradient,
    integrate_adjoint,
    integrate_state,
    max_map,
    optimality,
    optimize,
)
from modesched import gradient, projection
from modesched.gradient import ROOT_ROUNDS, ROOT_TOL, _bracketed_root
from modesched.models.vehicle import HORIZON_DEFAULT
from modesched.projection import DWELL_DEFAULT
from conftest import masked_channels, max_rule_crossings, random_schedule


def scalar_roots(brackets, evaluate, single, tol):
    """The reference: one scalar Brent solve per root, far tighter than
    ``tol``, on the same single-point field evaluations."""
    return [_bracketed_root(lambda t, k=k: single(k, t), lo, hi, f_lo, f_hi,
                            1e-3 * tol)
            for k, (lo, hi, f_lo, f_hi, _) in enumerate(brackets)]


def recorded(log, solve=gradient._solve_roots):
    """``solve`` that also logs each ``(lo, hi, root)``."""
    def run(brackets, evaluate, single, tol):
        roots = solve(brackets, evaluate, single, tol)
        log.extend((b[0], b[1], r) for b, r in zip(brackets, roots))
        return roots
    return run


def smooth_field(seed):
    """Random two-frequency channels with their analytic slopes, masked
    to zero where active, on a random schedule."""
    rng = np.random.default_rng(seed)
    horizon = float(rng.uniform(1.0, 10.0))
    sched = random_schedule(rng, horizon, int(rng.integers(2, 5)),
                            int(rng.integers(0, 4)))
    values, slopes = [], []
    for _ in range(sched.num_modes):
        c = rng.normal(0.0, 2.0, 3)
        w = rng.uniform(0.5, 40.0, 2) / horizon
        p = rng.uniform(0.0, 2 * np.pi, 2)
        values.append(lambda t, c=c, w=w, p=p: c[0]
                      + c[1] * np.sin(w[0] * t + p[0])
                      + c[2] * np.cos(w[1] * t + p[1]))
        slopes.append(lambda t, c=c, w=w, p=p:
                      c[1] * w[0] * np.cos(w[0] * t + p[0])
                      - c[2] * w[1] * np.sin(w[1] * t + p[1]))
    return InsertionGradientField.from_callables(
        sched, masked_channels(sched, values),
        channel_slopes=masked_channels(sched, slopes))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       scales=st.lists(st.floats(1.01, 20.0), min_size=1, max_size=3))
def test_batched_roots_match_scalar_brent_and_stay_in_their_brackets(
        seed, scales):
    # minima (roots of the analytic slope) and max-rule crossings (roots
    # of a mode difference) agree with one tight scalar Brent solve per
    # root to ROOT_TOL * horizon, and each lies inside its bracket
    log = []
    with mock.patch.object(gradient, "_solve_roots", recorded(log)):
        field = smooth_field(seed)
    with mock.patch.object(gradient, "_solve_roots", scalar_roots):
        ref = smooth_field(seed)
    tol = ROOT_TOL * field.horizon
    got = sorted((m["segment"], m["mode"], m["time"]) for m in field.minima
                 if m["boundary"] is None)
    want = sorted((m["segment"], m["mode"], m["time"]) for m in ref.minima
                  if m["boundary"] is None)
    assert [g[:2] for g in got] == [w[:2] for w in want]
    for g, w in zip(got, want):
        assert abs(g[2] - w[2]) <= 1.01 * tol
    theta = optimality(field).theta
    if theta < 0.0:
        for scale in scales:
            gamma = gamma_zero(theta) * scale
            with mock.patch.object(projection, "_solve_roots",
                                   recorded(log)):
                cross = max_rule_crossings(field, gamma)
            with mock.patch.object(projection, "_solve_roots",
                                   scalar_roots):
                ref_cross = max_rule_crossings(field, gamma)
            assert [m for _, m in cross] == [m for _, m in ref_cross]
            for (t, _), (r, _) in zip(cross, ref_cross):
                assert abs(t - r) <= 1.01 * tol
    for lo, hi, root in log:
        assert lo <= root <= hi


def test_each_root_group_makes_at_most_its_rounds_of_field_calls(
        vehicle, vehicle_x0, monkeypatch):
    # on the published vehicle start each segment's roots, minima or
    # crossings, are settled together by at most ROOT_ROUNDS batched field
    # calls (one ``rounding`` call each) and no root falls back to Brent
    groups, fallbacks, field_calls = [], [], []
    solve = gradient._solve_roots

    def counted(brackets, evaluate, single, tol):
        group = dict(roots=len(brackets), rounds=0, singles=0)
        groups.append(group)

        def batched(ks, ts):
            group["rounds"] += 1
            return evaluate(ks, ts)

        def one(k, t):
            group["singles"] += 1
            return single(k, t)
        return solve(brackets, batched, one, tol)

    rounded = gradient.InsertionGradientField._rounded

    def rounded_counted(self, *args):
        field_calls.append(args)
        return rounded(self, *args)

    def fallback(*args):
        fallbacks.append(args)
        return _bracketed_root(*args)

    monkeypatch.setattr(gradient, "_solve_roots", counted)
    monkeypatch.setattr(projection, "_solve_roots", counted)
    monkeypatch.setattr(gradient, "_bracketed_root", fallback)
    monkeypatch.setattr(gradient.InsertionGradientField, "_rounded",
                        rounded_counted)
    res = optimize(vehicle, vehicle_x0,
                   constant_schedule(2, HORIZON_DEFAULT, 4),
                   OptimizerConfig(alpha=0.4, beta=0.4, max_iter=3,
                                   theta_stop=0.0))
    assert len(res.iterations) >= 3
    solved = [g for g in groups if g["roots"]]
    assert len(solved) >= 10 and sum(g["roots"] for g in solved) >= 20
    assert all(1 <= g["rounds"] <= ROOT_ROUNDS for g in solved)
    assert fallbacks == [] and all(g["singles"] == 0 for g in groups)
    assert len(field_calls) == sum(g["rounds"] for g in groups)


def test_max_map_skips_segments_that_keep_their_mode(vehicle, vehicle_x0):
    # a segment whose lowest sample is at or above the threshold is kept
    # whole without the max rule's work; the schedule is the full rule's,
    # bit for bit, whichever segments take the short cut
    rng = np.random.default_rng(31)
    sched = random_schedule(rng, 5.0, 4, 5)
    x = integrate_state(vehicle, vehicle_x0, sched)
    field = insertion_gradient(vehicle, sched, x,
                               integrate_adjoint(vehicle, sched, x))
    g0 = gamma_zero(optimality(field).theta)
    floors = [float(low[0].min()) for low in field.lowest]
    mixed = 0
    for scale in (0.5, 1.01, 1.5, 3.0, 10.0, 100.0):
        gamma = scale * g0
        spans = [s for seg in range(sched.n_segments)
                 for s in projection._segment_spans(field, seg, gamma)]
        full = enforce_dwell(
            ModeSchedule(tuple(m for _, _, m in spans),
                         tuple(lo for lo, _, _ in spans[1:]),
                         sched.horizon, sched.num_modes),
            DWELL_DEFAULT * sched.horizon)
        got = max_map(sched, field, gamma)
        assert got.sequence == full.sequence
        assert np.array_equal(got.times, full.times)
        below = [f < -1.0 / gamma for f in floors]
        mixed += any(below) and not all(below)
    assert mixed >= 2


@pytest.mark.parametrize("dx", [0, 1])
def test_rounded_values_are_the_fields_own_bits(vehicle, vehicle_x0, dx):
    # the root solves read a trajectory field through ``rounding``, which
    # must give what ``values_in_segment`` / ``slopes_in_segment`` give, bit
    # for bit, and a bound that is nonnegative and zero on the active mode
    sched = ModeSchedule((2, 1, 3), (2.0, 3.5), HORIZON_DEFAULT, 4)
    x = integrate_state(vehicle, vehicle_x0, sched)
    field = insertion_gradient(vehicle, sched, x,
                               integrate_adjoint(vehicle, sched, x))
    plain = field.slopes_in_segment if dx else field.values_in_segment
    for seg in range(sched.n_segments):
        lo, hi = sched.segment_bounds(seg)
        ts = np.linspace(lo, hi, 7)
        for channels in ([1, 2, 3, 4], [3, 1], [sched.sequence[seg]]):
            f, err = field.rounding(seg, ts, channels, dx)
            assert f.tobytes() == plain(seg, ts, channels).tobytes()
            assert err.shape == f.shape and np.all(err >= 0.0)
            active = channels.index(sched.sequence[seg]) \
                if sched.sequence[seg] in channels else None
            if active is not None:
                assert np.all(err[:, active] == 0.0)
