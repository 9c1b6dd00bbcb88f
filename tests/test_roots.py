"""Batched root solves: the field's minima and the max rule's crossings."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

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
from modesched.gradient import ROOT_ROUNDS, ROOT_TOL
from modesched.models.vehicle import HORIZON_DEFAULT
from modesched.projection import DWELL_DEFAULT
from conftest import masked_channels, max_rule_crossings, random_schedule


def scalar_roots(brackets, evaluate, tol):
    """The reference: one scalar Brent solve per root, far tighter than
    ``tol``, on single-point field evaluations.  The known end values
    stand in for ``f(lo)``/``f(hi)``, so the sign change that chose the
    bracket holds; a zero end value is the root."""
    def root(k, lo, hi, f_lo, f_hi):
        if f_lo == 0.0:
            return lo
        if f_hi == 0.0:
            return hi
        return brentq(lambda t: f_lo if t == lo else f_hi if t == hi
                      else evaluate([k], [t], False)[0][0],
                      lo, hi, xtol=1e-3 * tol)
    return [root(k, *b[:4]) for k, b in enumerate(brackets)]


def recorded(log, solve=gradient._solve_roots):
    """``solve`` that also logs each ``(lo, hi, root)``."""
    def run(brackets, evaluate, tol):
        roots = solve(brackets, evaluate, tol)
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
    # on the published vehicle start the roots are solved in one group per
    # field, all its minima, and one per trial, the crossings of all its
    # segments; each group settles by at most ROOT_ROUNDS batched rounds,
    # each one ``channels_at`` call, so none bisects
    groups, field_calls, fields, trials = [], [], [], []
    solve = gradient._solve_roots
    max_rule = projection.max_map

    def counted(kind):
        def run(brackets, evaluate, tol):
            group = dict(kind=kind, roots=len(brackets), rounds=0, calls=[])
            groups.append(group)

            def batched(ks, ts, bound):
                group["rounds"] += 1
                before = len(field_calls)
                out = evaluate(ks, ts, bound)
                group["calls"].append(len(field_calls) - before)
                return out
            return solve(brackets, batched, tol)
        return run

    init = gradient.InsertionGradientField.__init__

    def init_counted(self, schedule, channels_at, grids):
        def channels_at_counted(*args, **kwargs):
            field_calls.append(args)
            return channels_at(*args, **kwargs)
        fields.append(schedule)
        init(self, schedule, channels_at_counted, grids)

    def max_map_counted(*args, **kwargs):
        trials.append(args)
        return max_rule(*args, **kwargs)

    monkeypatch.setattr(gradient, "_solve_roots", counted("minima"))
    monkeypatch.setattr(projection, "_solve_roots", counted("crossings"))
    monkeypatch.setattr(projection, "max_map", max_map_counted)
    monkeypatch.setattr(gradient.InsertionGradientField, "__init__",
                        init_counted)
    res = optimize(vehicle, vehicle_x0,
                   constant_schedule(2, HORIZON_DEFAULT, 4),
                   OptimizerConfig(alpha=0.4, beta=0.4, max_iter=3,
                                   theta_stop=0.0))
    assert len(res.iterations) >= 3
    assert [g["kind"] for g in groups].count("minima") == len(fields)
    assert [g["kind"] for g in groups].count("crossings") == len(trials)
    solved = [g for g in groups if g["roots"]]
    assert len(solved) >= 10 and sum(g["roots"] for g in solved) >= 20
    assert all(1 <= g["rounds"] <= ROOT_ROUNDS for g in solved)
    assert all(c == 1 for g in groups for c in g["calls"])


def test_a_rejected_newton_step_bisects_in_batched_rounds():
    # a model whose slope points away from the root rejects round 1's
    # Newton step, and the cube root's infinite slope at its root throws
    # the secant steps after it about, so the roots bisect their
    # brackets: still within ``tol`` of the true roots and inside their
    # brackets, in rounds of one batched call each, at most ROOT_ROUNDS
    # + ceil(log2(width / (2 tol))) of them, and only round 1 reads
    # without the rounding bound
    roots = [0.3 + 1e-4 * math.pi, 0.71234567891]
    spans = [(0.25, 0.5), (0.6, 0.9)]
    tol = 1e-12
    fns = [lambda t, r=r: float(np.cbrt(t - r)) for r in roots]
    brackets = [(lo, hi, fns[k](lo), fns[k](hi),
                 lambda t, lo=lo, hi=hi: (0.5 * (lo + hi) - t, -1.0))
                for k, (lo, hi) in enumerate(spans)]
    calls = []

    def evaluate(ks, ts, bound):
        calls.append((list(ks), list(ts), bound))
        return [fns[k](t) for k, t in zip(ks, ts)], [0.0] * len(ks)

    got = gradient._solve_roots(brackets, evaluate, tol)
    width = max(hi - lo for lo, hi in spans)
    assert ROOT_ROUNDS < len(calls) \
        <= ROOT_ROUNDS + math.ceil(math.log2(width / (2 * tol)))
    assert [b for _, _, b in calls] == [False] + [True] * (len(calls) - 1)
    assert calls[0][0] == [0, 0, 1, 1]
    assert all(len(ks) == len(ts) and ks[::2] == ks[1::2]
               for ks, ts, _ in calls)
    for r, g, (lo, hi) in zip(roots, got, spans):
        assert lo <= g <= hi
        assert abs(g - r) <= tol


@pytest.mark.parametrize("fn", [
    lambda t: math.tanh(40.0 * t), lambda t: math.expm1(30.0 * t)],
    ids=["tanh", "expm1"])
def test_a_root_open_after_the_newton_rounds_takes_regula_falsi_steps(fn):
    # the model's slope points away from the root, so the Newton rounds
    # leave these smooth simple roots open; Illinois steps through the
    # narrowed brackets' end values then settle them in a few rounds,
    # where bisection takes over 30
    roots = [0.3 + 1e-4 * math.pi, 0.71234567891]
    spans = [(0.25, 0.5), (0.6, 0.9)]
    tol = 1e-12
    fns = [lambda t, r=r: fn(t - r) for r in roots]
    brackets = [(lo, hi, fns[k](lo), fns[k](hi),
                 lambda t, lo=lo, hi=hi: (0.5 * (lo + hi) - t, -1.0))
                for k, (lo, hi) in enumerate(spans)]
    calls = []

    def evaluate(ks, ts, bound):
        calls.append(list(ks))
        return [fns[k](t) for k, t in zip(ks, ts)], [0.0] * len(ks)

    got = gradient._solve_roots(brackets, evaluate, tol)
    assert ROOT_ROUNDS < len(calls) <= ROOT_ROUNDS + 8
    for r, g, (lo, hi) in zip(roots, got, spans):
        assert lo <= g <= hi
        assert abs(g - r) <= tol


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
        spans = [s for part in projection._segment_spans(
                     field, range(sched.n_segments), gamma) for s in part]
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
    # the root solves read a trajectory field through ``channels_at`` with
    # the rounding bound, which must give what ``values_in_segment`` /
    # ``slopes_in_segment`` give, bit for bit, and a bound that is
    # nonnegative and zero on the active mode; without it the bound is zero
    sched = ModeSchedule((2, 1, 3), (2.0, 3.5), HORIZON_DEFAULT, 4)
    x = integrate_state(vehicle, vehicle_x0, sched)
    field = insertion_gradient(vehicle, sched, x,
                               integrate_adjoint(vehicle, sched, x))
    plain = field.slopes_in_segment if dx else field.values_in_segment
    for seg in range(sched.n_segments):
        lo, hi = sched.segment_bounds(seg)
        ts = np.linspace(lo, hi, 7)
        for channels in ([1, 2, 3, 4], [3, 1], [sched.sequence[seg]]):
            f, err = field.channels_at(seg, ts, channels, dx, True)
            assert f.tobytes() == plain(seg, ts, channels).tobytes()
            assert err.shape == f.shape and np.all(err >= 0.0)
            active = channels.index(sched.sequence[seg]) \
                if sched.sequence[seg] in channels else None
            if active is not None:
                assert np.all(err[:, active] == 0.0)
            f0, err0 = field.channels_at(seg, ts, channels, dx)
            assert f0.tobytes() == f.tobytes() and not err0.any()
