"""Trajectory/adjoint integration against closed forms and quadrature."""
import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.interpolate import CubicHermiteSpline, PPoly
from scipy.linalg import expm

from modesched import (
    ModeSchedule,
    OptimizerConfig,
    SampledCurve,
    SwitchedSystem,
    constant_schedule,
    integrate_adjoint,
    insertion_gradient,
    integrate_state,
    optimality,
    optimize,
    shift_schedule,
)
from modesched import integrate
from modesched import _dop853
from modesched.integrate import Abandoned, _shift_curve
from modesched.models import (
    initial_state,
    load_network,
    power_system,
    vehicle_initial_state,
    vehicle_system,
)
from conftest import (REPO, THREE_MACHINE, count_solves, first_passing_point,
                      random_linear_quadratic, random_schedule, ring_network)


def decay_system():
    """One mode, xdot = -x, running cost 0.5 x^2: everything closed-form."""
    return SwitchedSystem(
        num_modes=1, dim=1,
        mode_field=lambda i, x: -np.asarray(x, float),
        mode_jacobian=lambda i, x: np.full(np.shape(x) + (1,), -1.0),
        running_cost=lambda x: 0.5 * np.asarray(x, float)[..., 0] ** 2,
        running_cost_gradient=lambda x: np.asarray(x, float),
    )


def two_rate_system():
    """Two modes xdot = -x and xdot = -3x, running cost x."""
    rates = {1: -1.0, 2: -3.0}
    return SwitchedSystem(
        num_modes=2, dim=1,
        mode_field=lambda i, x: rates[i] * np.asarray(x, float),
        mode_jacobian=lambda i, x: np.full(np.shape(x) + (1,), rates[i]),
        running_cost=lambda x: np.asarray(x, float)[..., 0],
        running_cost_gradient=lambda x: np.ones(np.shape(x)),
    )


def test_decay_matches_closed_form():
    sys_ = decay_system()
    T = 3.0
    x = integrate_state(sys_, [1.0], constant_schedule(1, T, 1))
    ts = np.linspace(0.0, T, 57)
    np.testing.assert_allclose(x(ts)[:, 0], np.exp(-ts), atol=1e-8)
    # cost accumulator: integral of 0.5 e^{-2t}
    assert x.cost == pytest.approx(0.25 * (1 - math.exp(-2 * T)), abs=1e-9)


def test_decay_adjoint_matches_closed_form():
    # rhodot = rho - x along x(t) = e^{-t}, rho(T) = 0 has the solution
    # rho(t) = (e^{-t} - e^{t-2T}) / 2
    sys_ = decay_system()
    T = 2.0
    sched = constant_schedule(1, T, 1)
    x = integrate_state(sys_, [1.0], sched)
    rho = integrate_adjoint(sys_, sched, x)
    ts = np.linspace(0.0, T, 41)
    expect = 0.5 * (np.exp(-ts) - np.exp(ts - 2 * T))
    np.testing.assert_allclose(rho(ts)[:, 0], expect, atol=1e-8)
    assert abs(rho(T)[0]) <= 1e-12
    # the knot derivatives: rhodot = -(e^{-t} + e^{t-2T}) / 2
    kts, _, fs = rho.knots[0]
    np.testing.assert_allclose(
        fs[:, 0], -0.5 * (np.exp(-kts) + np.exp(kts - 2 * T)), atol=1e-8)


def test_cost_needs_the_accumulator():
    sys_ = decay_system()
    sched = constant_schedule(1, 1.0, 1)
    x = integrate_state(sys_, [1.0], sched)
    rho = integrate_adjoint(sys_, sched, x)   # built without an accumulator
    with pytest.raises(AttributeError, match="accumulator"):
        rho.cost


def power_problem():
    net = load_network(THREE_MACHINE)
    x0 = initial_state(net, magnitude=0.3, seed=0)
    return power_system(net), x0, ModeSchedule((1, 2, 1), (0.3, 0.65), 1.0, 2)


def vehicle_problem():
    sched = ModeSchedule((1, 4, 2), (1.1, 2.3), 3.0, 4)
    return vehicle_system(), vehicle_initial_state(), sched


def one_spacing_problem(t=1.1):
    """The vehicle with a segment one float spacing long, from ``t``."""
    sched = ModeSchedule((1, 4, 2), (t, math.nextafter(t, math.inf)), 3.0, 4)
    return vehicle_system(), vehicle_initial_state(), sched


def tiny_spacing_problem():
    """:func:`one_spacing_problem` at ``t = 1e-150``, where the short
    segment's table would overflow: its coefficients grow as the inverse
    cube of its length."""
    return one_spacing_problem(1e-150)


def three_tiny_spacings_problem():
    """:func:`tiny_spacing_problem` with a segment three float spacings
    long: its Gauss nodes round onto the two spacings inside it, not onto
    its knots, so they are read on its overflowing piece."""
    t = 1e-150
    end = math.nextafter(math.nextafter(math.nextafter(t, 1), 1), 1)
    return vehicle_system(), vehicle_initial_state(), \
        ModeSchedule((1, 4, 2), (t, end), 3.0, 4)


#: switching times of a 12-segment schedule on a horizon of 1, three of
#: its segments one knot interval long
SWITCHING = (0.05, 0.05 + 1e-5, 0.2, 0.31, 0.31 + 2e-5, 0.45, 0.58, 0.6, 0.72,
             0.72 + 1e-5, 0.9)


def switching_schedule():
    """Modes 1 and 2 alternating over the segments of :data:`SWITCHING`."""
    return ModeSchedule(tuple(1 + k % 2 for k in range(len(SWITCHING) + 1)),
                        SWITCHING, 1.0, 2)


def power_switching_problem():
    net = load_network(THREE_MACHINE)
    return (power_system(net), initial_state(net, magnitude=0.3, seed=0),
            switching_schedule())


def ring_switching_problem():
    net = ring_network()
    return (power_system(net), initial_state(net, magnitude=0.1, seed=0),
            switching_schedule())


@pytest.mark.parametrize("problem", [vehicle_problem, power_problem,
                                     power_switching_problem,
                                     ring_switching_problem,
                                     tiny_spacing_problem])
def test_adjoint_knot_derivatives_are_pointwise(problem):
    # the batched knot derivatives equal -(J(x)^T rho) - grad l(x) taken
    # one knot at a time, with the states read from x's own segments
    sys_, x0, sched = problem()
    x = integrate_state(sys_, x0, sched)
    rho = integrate_adjoint(sys_, sched, x)
    for i, (ts, rs, fs) in enumerate(rho.knots):
        m = sched.sequence[i]
        expect = np.array([
            -(sys_.mode_jacobian(m, xk).T @ rk)
            - sys_.running_cost_gradient(xk)
            for xk, rk in zip(x(ts, seg=i), rs)])
        np.testing.assert_allclose(
            fs, expect, rtol=1e-13, atol=1e-13 * np.abs(expect).max())


def ring_problem():
    net = ring_network()
    x0 = initial_state(net, magnitude=0.1, seed=0)
    return power_system(net), x0, ModeSchedule((1, 2, 1), (0.3, 0.65), 1.0, 2)


def reference_adjoint(sys_, sched, x):
    """Per segment, the dense DOP853 solution (rtol 1e-12, atol 1e-14) of
    the adjoint on ``x``'s own segment interpolant, end to start."""
    sols = [None] * sched.n_segments
    rho = np.zeros(sys_.dim)
    for i in range(sched.n_segments - 1, -1, -1):
        m = sched.sequence[i]
        a, b = sched.segment_bounds(i)

        def rhs(t, r, i=i, m=m):
            xt = x(t, seg=i)
            return -(sys_.mode_jacobian(m, xt).T @ r) \
                - sys_.running_cost_gradient(xt)

        sol = solve_ivp(rhs, (b, a), rho, method="DOP853", rtol=1e-12,
                        atol=1e-14, dense_output=True)
        assert sol.success
        sols[i] = sol.sol
        rho = sol.y[:, -1]
    return sols


@pytest.mark.parametrize("problem", [vehicle_problem, power_problem,
                                     ring_problem, power_switching_problem,
                                     ring_switching_problem],
                         ids=["vehicle", "three-machine", "ring12",
                              "three-machine switching", "ring12 switching"])
def test_adjoint_knots_match_a_tight_reference(problem):
    # on the same state curve, so only the adjoint's own error counts
    sys_, x0, sched = problem()
    x = integrate_state(sys_, x0, sched)
    rho = integrate_adjoint(sys_, sched, x)
    err = scale = 0.0
    for sol, (ts, rs, _) in zip(reference_adjoint(sys_, sched, x),
                                rho.knots):
        want = sol(ts).T
        err = max(err, np.abs(rs - want).max())
        scale = max(scale, np.abs(want).max())
    assert err <= 2e-8 * scale


@pytest.mark.parametrize("problem, stacks", [(power_switching_problem, 1),
                                             (ring_switching_problem, 5)],
                         ids=["dimension 6", "dimension 24"])
def test_adjoint_stacks_run_across_segments(problem, stacks, monkeypatch):
    # the switching schedules' Magnus stacks are cut from the last interval
    # back, across segment boundaries: at dimension 6 one stack holds all
    # 12 segments, at dimension 24 stacks of 64 intervals split segments
    # (the tight-reference and pointwise tests above check their answers)
    sys_, x0, sched = problem()
    x = integrate_state(sys_, x0, sched)
    sizes = [len(ts) - 1 for ts, _, _ in x.knots]
    assert sizes.count(1) == 3
    expm_sizes = []
    real = integrate._expm

    def counted(W):
        expm_sizes.append(len(W))
        return real(W)

    monkeypatch.setattr(integrate, "_expm", counted)
    integrate_adjoint(sys_, sched, x)
    size = integrate._stack_intervals(sys_.dim)
    last = sum(sizes)
    assert expm_sizes == [min(size, last - k) for k in range(0, last, size)]
    assert len(expm_sizes) == stacks
    # where one stack starts and the one before it ends: each cut falls
    # inside a segment, at no switch
    cuts = set(range(last - size, 0, -size))
    assert len(cuts) == stacks - 1
    assert not cuts & set(np.cumsum(sizes).tolist())


def test_magnus_stacks_keep_64_intervals_from_dimension_24_up():
    # the stack budget lets stacks grow past 64 intervals below dimension
    # 24 and never shrinks them below 64 above it
    assert integrate._stack_intervals(4) == 1600
    assert integrate._stack_intervals(6) == 816
    assert [integrate._stack_intervals(n) for n in (24, 48, 96, 108)] \
        == [64] * 4


@pytest.mark.parametrize("problem", [vehicle_problem, power_problem,
                                     ring_problem, one_spacing_problem,
                                     tiny_spacing_problem,
                                     three_tiny_spacings_problem],
                         ids=["vehicle", "three-machine", "ring12",
                              "one float spacing", "tiny float spacing",
                              "three tiny float spacings"])
def test_gauss_node_states_are_the_curves_to_the_bit(problem, monkeypatch):
    # the adjoint reads the state at each interval's two Gauss nodes in one
    # read of the curve over every segment at once, one pass on the
    # curve's own table, which a later query of the curve reads again; the
    # states hold the bits of its own query x(t, seg=i)
    sys_, x0, sched = problem()
    x = integrate_state(sys_, x0, sched)
    if problem is three_tiny_spacings_problem:
        # the short segment's nodes fall between its knots, where its
        # piece overflows: the batched read refuses the curve, as the
        # curve's own query does, and neither warns
        ts = x.knots[1][0]
        assert len(ts) == 2 and ts[1] - ts[0] == 3 * np.spacing(ts[0])
        with pytest.raises(ValueError, match="finite"):
            integrate._gauss_states(x)
        with pytest.raises(ValueError, match="finite"):
            x(ts[0] + (ts[1] - ts[0]) * integrate._GAUSS, seg=1)
        with pytest.raises(ValueError, match="finite"):
            integrate_adjoint(sys_, sched, x)
        return
    tables = []
    power_sums = integrate._power_sums

    def recorded(table, i, s, dxs):
        tables.append(table)
        return power_sums(table, i, s, dxs)

    monkeypatch.setattr(integrate, "_power_sums", recorded)
    offs, h, xg = integrate._gauss_states(x)
    table = x._table_of_pieces()[0]
    assert len(tables) == 1 and tables[0] is table
    k = 0
    for i, (ts, ys, _) in enumerate(x.knots):
        hi = np.diff(ts)
        assert offs[i:i + 2] == [k, k + len(hi)]
        rows = slice(2 * k, 2 * (k + len(hi)))
        assert same_bits(h[k:k + len(hi)], hi)
        assert same_bits(
            xg[rows],
            x((ts[:-1, None] + hi[:, None] * integrate._GAUSS).ravel(), seg=i))
        if len(ts) == 2 and ts[1] == math.nextafter(ts[0], math.inf):
            # the nodes round onto the two knots, which the curve reads
            # as its knot data whether or not the piece between them is
            # finite: at 1e-150 it overflows
            assert same_bits(xg[rows], ys + 0.0)
            assert x._table_of_pieces()[1] == (ts[0] > 1e-100)
        k += len(hi)
    assert k == len(h) == offs[-1]
    # the later queries read the table the adjoint's read built
    assert all(t is table for t in tables)
    assert x._table_of_pieces()[0] is table


def test_the_field_builds_on_a_segment_whose_piece_overflows():
    # the short segment of tiny_spacing_problem is one float spacing long
    # at 1e-150, so its piece overflows; no read takes a time between its
    # two knots, so the field's reads, like the curve's queries and the
    # adjoint, read it at its knots, without a warning, and a descent
    # step runs on it
    sys_, x0, sched = tiny_spacing_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = integrate_state(sys_, x0, sched)
        rho = integrate_adjoint(sys_, sched, x)
        field = insertion_gradient(sys_, sched, x, rho)
        assert not x._table_of_pieces()[1]
        opt = optimality(field)
        res = optimize(sys_, x0, sched, OptimizerConfig(max_iter=1))
    assert np.isfinite(opt.theta) and opt.theta < 0.0
    assert res.cost <= x.cost


@st.composite
def linear_quadratic(draw):
    """``x' = A_i x`` on segment ``i`` of 1 to 4 on ``[0, T]``, in its own
    mode, with running cost ``x^T Q x / 2``; each segment at least a
    thirteenth of the horizon.

    Coarse draws solve the state on its solver steps alone and start at a
    null vector of every ``A_i``: the state stands still, so the augmented
    adjoint has constant coefficients on each segment and its Magnus step
    is exact on any knots, which leaves the batched exponential on trial,
    at ``|Omega|_1 > 1``.
    """
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    unit = st.floats(-1.0, 1.0)
    As = [draw(arrays(np.float64, (n, n), elements=unit)) for _ in range(k)]
    B = draw(arrays(np.float64, (n, n), elements=unit))
    x0 = draw(arrays(np.float64, (n,), elements=unit))
    x0[np.argmax(np.abs(x0))] = 1.0
    coarse = draw(st.booleans())
    if coarse:
        As = [A - np.outer(A @ x0, x0) / (x0 @ x0) for A in As]
    # a coarse draw's weight grows with its segment count, which shortens
    # its longest interval
    weight = 10.0 ** draw(st.floats(1.0 + math.log10(k) if coarse else 0.0,
                                    3.0))
    Q = weight * (B @ B.T + np.eye(n))
    T = draw(st.floats(0.5, 2.0))
    lengths = np.cumsum(draw(st.lists(st.floats(1.0, 4.0), min_size=k,
                                      max_size=k)))
    switches = tuple(T * lengths[:-1] / lengths[-1])
    return As, Q, x0, T, switches, coarse


def linear_quadratic_adjoint(As, Q, x0, T, knot_spacing, switches=()):
    """Knot times, adjoint knots and their closed form, per segment, for
    ``x' = A_i x`` on segment ``i`` (switching at ``switches``) with cost
    ``x^T Q x / 2``, the state solved at rtol 1e-12."""
    n = len(x0)
    sys_ = SwitchedSystem(
        num_modes=len(As), dim=n,
        mode_field=lambda i, x: x @ As[i - 1].T,
        mode_jacobian=lambda i, x: np.broadcast_to(As[i - 1],
                                                   np.shape(x) + (n,)),
        running_cost=lambda x: 0.5 * np.sum((x @ Q) * x, axis=-1),
        running_cost_gradient=lambda x: x @ Q,
    )
    sched = ModeSchedule(tuple(range(1, len(As) + 1)), switches, T, len(As))
    x = integrate_state(sys_, x0, sched, rtol=1e-12, atol=1e-14,
                        knot_spacing=knot_spacing)
    rho = integrate_adjoint(sys_, sched, x)
    # [rho; x]' = [[-A_i^T, -Q], [0, A_i]] [rho; x] on segment i, with
    # rho(T) = 0: x(T) forward, then z = [rho; x] back from T, segment by
    # segment, from each segment's end
    bnds = sched.boundaries
    z = x0
    for A, a, b in zip(As, bnds[:-1], bnds[1:]):
        z = expm(A * (b - a)) @ z
    z = np.concatenate([np.zeros(n), z])
    out = [None] * len(As)
    for i in range(len(As) - 1, -1, -1):
        M = np.block([[-As[i].T, -Q], [np.zeros((n, n)), As[i]]])
        ts, rs, _ = rho.knots[i]
        out[i] = (ts, rs, np.array([(expm(M * (t - bnds[i + 1])) @ z)[:n]
                                    for t in ts]))
        z = expm(M * (bnds[i] - bnds[i + 1])) @ z
    return out


@settings(max_examples=40, deadline=None)
@given(lq=linear_quadratic())
def test_linear_quadratic_adjoint_matches_the_closed_form(lq):
    As, Q, x0, T, switches, coarse = lq
    segs = linear_quadratic_adjoint(As, Q, x0, T, T if coarse else None,
                                    switches)
    err = max(np.abs(rs - want).max() for _, rs, want in segs)
    scale = max(np.abs(want).max() for _, _, want in segs)
    tol = 1e-9
    if coarse:
        # the exponent's last row, h g^T, alone bounds its norm from below
        theta = max(np.diff(ts).max() for ts, _, _ in segs) \
            * np.abs(Q @ x0).sum()
        assert theta > 1.0
        tol = 1e-13 * (1.0 + theta)
    assert err <= tol * scale


@pytest.mark.parametrize("seed", range(10))
def test_default_knot_spacing_keeps_the_adjoint_on_the_closed_form(seed):
    # the adjoint runs on the state's knots, so the optimizer's default
    # spacing (horizon / KNOTS_PER_HORIZON) sets every gradient's accuracy;
    # on the same kind of problem knot_spacing = T was off by up to 2.9e-6
    # relative
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    A = rng.uniform(-1.0, 1.0, (n, n))
    B = rng.uniform(-1.0, 1.0, (n, n))
    Q = 10.0 ** rng.uniform(0.0, 3.0) * (B @ B.T + np.eye(n))
    x0 = rng.uniform(-1.0, 1.0, n)
    T = rng.uniform(0.5, 2.0)
    [(_, rs, want)] = linear_quadratic_adjoint(
        [A], Q, x0, T, OptimizerConfig().knot_spacing)
    assert np.abs(rs - want).max() <= 1e-9 * np.abs(want).max()


def test_piecewise_exponential_switching():
    sys_ = two_rate_system()
    sched = ModeSchedule((1, 2, 1), (0.5, 1.25), 2.0, 2)
    x = integrate_state(sys_, [1.0], sched)

    def exact(t):
        if t <= 0.5:
            return math.exp(-t)
        if t <= 1.25:
            return math.exp(-0.5) * math.exp(-3 * (t - 0.5))
        return math.exp(-0.5 - 2.25) * math.exp(-(t - 1.25))

    for t in np.linspace(0.0, 2.0, 33):
        assert x(t)[0] == pytest.approx(exact(t), abs=3e-8)
    # cost is the integral of x itself, segment by segment
    expect = ((1 - math.exp(-0.5))
              + math.exp(-0.5) * (1 - math.exp(-2.25)) / 3
              + math.exp(-2.75) * (1 - math.exp(-0.75)))
    assert x.cost == pytest.approx(expect, abs=3e-8)


def test_derivative_jumps_at_switch():
    sys_ = two_rate_system()
    sched = ModeSchedule((1, 2), (1.0,), 2.0, 2)
    x = integrate_state(sys_, [1.0], sched)
    v = float(x(1.0)[0])
    left = float(x.derivative(1.0, side="left")[0])
    right = float(x.derivative(1.0, side="right")[0])
    assert left == pytest.approx(-v, rel=1e-7)
    assert right == pytest.approx(-3 * v, rel=1e-7)
    # the state itself is continuous across the switch
    assert x(1.0, side="left")[0] == pytest.approx(v, abs=1e-12)


@st.composite
def partitions(draw):
    """Boundaries and ``(ts, ys, fs)`` knots of 1-6 segments with 2-40
    knots each, dimension 1-5, values and derivatives of either sign."""
    n = draw(st.integers(1, 5))
    counts = draw(st.lists(st.integers(2, 40), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    t0 = draw(st.floats(-10.0, 10.0))
    bounds = t0 + np.concatenate(([0.0], np.cumsum(
        rng.uniform(0.01, 3.0, len(counts)))))
    segments = []
    for k, a, b in zip(counts, bounds[:-1], bounds[1:]):
        ts = a + (b - a) * np.sort(rng.uniform(0.0, 1.0, k))
        ts[0], ts[-1] = a, b
        assume(np.all(np.diff(ts) > 0.0))
        scale = 10.0 ** rng.uniform(-3, 3)
        segments.append((ts, scale * rng.standard_normal((k, n)),
                         scale * rng.standard_normal((k, n))))
    return bounds, segments, rng.uniform(bounds[0] - 1.0, bounds[-1] + 1.0,
                                         20)


@settings(max_examples=60, deadline=None)
@given(p=partitions())
def test_curve_matches_per_segment_hermite_splines(p):
    # between knots the curve gives, bit for bit, what one
    # CubicHermiteSpline per segment gives, values as sp(t) and derivatives
    # as sp(t, 1): pick the segment (``seg``, or the one holding t,
    # ``side`` deciding at a boundary) and clamp t to it.  A time clamped
    # to the segment's end reads that end knot's own data.
    bounds, segments, random_ts = p
    # knot times as strided views, which the curve reads as they are
    strided = [np.repeat(ts, 2)[::2] for ts, _, _ in segments]
    assert not strided[0].flags.c_contiguous
    curve = SampledCurve(bounds, [(t, ys, fs) for t, (_, ys, fs)
                                  in zip(strided, segments)])
    splines = [CubicHermiteSpline(ts, ys, fs, axis=0)
               for ts, ys, fs in segments]
    M, n = len(segments), segments[0][1].shape[1]
    inner = bounds[1:-1]
    ts = np.concatenate([
        random_ts, *(s[0] for s in segments), inner,
        np.nextafter(inner, -np.inf), np.nextafter(inner, np.inf),
        [bounds[0] - 0.5, bounds[-1] + 0.5]])

    def reference(nu, t, side, seg):
        if seg is None:
            seg = min(max(int(np.searchsorted(bounds, t, side)) - 1, 0),
                      M - 1)
        t = np.clip(t, bounds[seg], bounds[seg + 1])
        end = segments[seg][1 + nu][-1]
        return np.where((t == bounds[seg + 1])[..., None], end,
                        splines[seg](t, nu))

    for side in ("left", "right"):
        for seg in [None, *range(M)]:
            for evaluate, nu in ((curve, 0), (curve.derivative, 1)):
                want = np.array([reference(nu, t, side, seg) for t in ts])
                got = evaluate(ts, side=side, seg=seg)
                assert got.shape == (len(ts), n)
                np.testing.assert_array_equal(got, want)
                for t in (*bounds, *random_ts[:3]):
                    want = reference(nu, t, side, seg)
                    assert same_bits(evaluate(t, side=side, seg=seg), want)
                    assert same_bits(
                        evaluate(np.array([t]), side=side, seg=seg),
                        want[None])
    # one time with ``seg``, at each of the segment's knots, where the
    # interval changes, and at every boundary and the floats around it
    around = np.concatenate([np.nextafter(bounds, -np.inf), bounds,
                             np.nextafter(bounds, np.inf)])
    for seg in range(M):
        singles = np.concatenate([segments[seg][0], around])
        for evaluate, nu in ((curve, 0), (curve.derivative, 1)):
            want = reference(nu, singles, None, seg)
            for t, w in zip(singles, want):
                assert same_bits(evaluate(t, seg=seg), w)
                assert same_bits(evaluate(np.array([t]), seg=seg), w[None])


@settings(max_examples=60, deadline=None)
@given(p=partitions())
def test_curve_returns_each_knot_exactly(p):
    # at every knot of every segment, its ends included, the curve and its
    # derivative are that knot's value and derivative to the bit: for a
    # scalar, a length-1 array and the segment's knots as one batch, and
    # for a boundary, on the side of the segment it ends or starts
    bounds, segments, _ = p
    curve = SampledCurve(bounds, segments)
    for i, (ts, ys, fs) in enumerate(segments):
        for evaluate, want in ((curve, ys), (curve.derivative, fs)):
            assert same_bits(evaluate(ts, seg=i), want)
            for t, w in zip(ts, want):
                assert same_bits(evaluate(t, seg=i), w)
                assert same_bits(evaluate(np.array([t]), seg=i), w[None])
            assert same_bits(evaluate(ts[0], side="right"), want[0])
            assert same_bits(evaluate(ts[-1], side="left"), want[-1])


@pytest.mark.parametrize("problem", [vehicle_problem, power_problem],
                         ids=["vehicle", "three-machine"])
def test_state_and_adjoint_are_exact_at_switches_and_ends(problem):
    # both sides of a switch read the same knot, the adjoint's terminal
    # condition reads back as exactly 0 and the cost is the accumulator's
    # last knot
    sys_, x0, sched = problem()
    x = integrate_state(sys_, x0, sched)
    rho = integrate_adjoint(sys_, sched, x)
    for curve in (x, rho):
        for b in sched.times:
            assert same_bits(curve(b, side="left"), curve(b, side="right"))
    assert same_bits(rho(sched.horizon), np.zeros(sys_.dim))
    assert x.cost == x.cost_curve.knots[-1][1][-1, 0]


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def three_segment_curve():
    """A curve of ``sin`` on three segments of five knots each, with a
    cost curve on the same knots."""
    ts = np.linspace(0.0, 1.0, 5)
    segs = [(k + ts, np.sin(k + ts)[:, None], np.cos(k + ts)[:, None])
            for k in range(3)]
    return SampledCurve([0.0, 1.0, 2.0, 3.0], segs,
                        cost_curve=SampledCurve([0.0, 1.0, 2.0, 3.0], segs))


def counted_kernel(monkeypatch):
    """Record each kernel pass, ``(table, dxs)``, and each table built."""
    calls, builds = [], []
    power_sums, build = integrate._power_sums, integrate._hermite_table

    def counted_build(*args):
        builds.append(build(*args))
        return builds[-1]

    def counted(table, i, s, dxs):
        calls.append((table, tuple(dxs)))
        return power_sums(table, i, s, dxs)

    monkeypatch.setattr(integrate, "_power_sums", counted)
    monkeypatch.setattr(integrate, "_hermite_table", counted_build)
    return calls, builds


def test_every_query_is_one_kernel_pass_on_the_curves_one_table(
        monkeypatch):
    # a scalar, a length-1 array or a batch, with ``seg`` or ``side``, over
    # any number of segments, is answered by one pass of the numpy kernel
    # on the curve's one table, built on its first read between knots and
    # never again.  Values and derivatives read the same table, with dx 0
    # and 1, and read both in one pass.  A query at knots alone (a time
    # clamped to a segment's end included) reads the knot arrays and makes
    # no pass
    calls, builds = counted_kernel(monkeypatch)
    curve = three_segment_curve()
    queries = [
        (1.0, {}, 0),
        (1.0, {"side": "left"}, 0),
        (np.float64(1.7), {"seg": 0}, 0),
        (np.array([0.3]), {"seg": 2}, 0),
        (0.3, {}, 1),
        (1.1, {}, 1),
        (np.array(0.9), {"side": "left"}, 1),
        (np.array([2.6]), {}, 1),
        (np.array([0.3, 0.4, 2.7]), {}, 1),
        (np.array([2.7, 0.3, 1.0, 2.1]), {"side": "left"}, 1),
        (np.array([0.3, 1.7, 2.5]), {"seg": 1}, 1),
    ]
    for query, dxs in ((curve, (0,)), (curve.derivative, (1,))):
        for t, kw, passes in queries:
            calls.clear()
            query(t, **kw)
            assert len(calls) == passes
            assert all(table is builds[0] and parts == dxs
                       for table, parts in calls)
    assert len(builds) == 1
    # read: both derivatives in one pass, over any mix of segments
    calls.clear()
    curve.read(np.array([2, 0, 1, 0]), np.array([2.7, 0.3, 1.0, 1.2]), (0, 1))
    curve.read(1, np.array([1.0, 1.25]), (0, 1))
    assert len(calls) == 1 and calls[0][0] is builds[0]
    assert calls[0][1] == (0, 1)
    # the cost curve: its total is its last knot, and cost_at off the knots
    # builds its own table once
    calls.clear()
    assert curve.cost == np.sin(3.0) and curve.cost_at(2.0) == np.sin(2.0)
    assert calls == [] and len(builds) == 1
    curve.cost_at(0.3)
    curve.cost_at(2.9)
    assert len(builds) == 2 and builds[1] is not builds[0]
    assert [parts for _, parts in calls] == [(0,)] * 2
    assert all(table is builds[1] for table, _ in calls)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 5), n=st.integers(1, 3))
def test_a_batch_query_holds_each_times_own_bits(data, m, n):
    # whatever segments a batch spans, each row holds the bits of the
    # query of its time alone, for values and derivatives, with ``side``
    # or a ``seg``; knots, switching times and times outside [t0, t1]
    # included
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    b = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, m))])
    segs = []
    for a, c in zip(b[:-1], b[1:]):
        ts = np.concatenate([[a], np.sort(rng.uniform(a, c, 3)), [c]])
        segs.append((ts, rng.standard_normal((5, n)),
                     rng.standard_normal((5, n))))
    cost = SampledCurve(b, [(ts, ys[:, :1], fs[:, :1])
                            for ts, ys, fs in segs])
    curve = SampledCurve(b, segs, cost)
    knots = np.concatenate([k[0] for k in segs])
    t = np.concatenate([rng.uniform(-0.5, b[-1] + 0.5, 6),
                        rng.choice(knots, 3)])
    kw = data.draw(st.sampled_from(
        [{"side": "left"}, {"side": "right"}]
        + [{"seg": i} for i in range(m)]))
    for query in (curve, curve.derivative):
        got = query(t, **kw)
        assert got.shape == (len(t), n)
        for tj, row in zip(t, got):
            assert same_bits(row, query(tj, **kw))
    # cost_at takes times of any shape too, one float per time
    got = curve.cost_at(t.reshape(3, 3))
    assert got.shape == (3, 3)
    for tj, c in zip(t, got.ravel()):
        alone = curve.cost_at(tj)
        assert type(alone) is float and same_bits(c, np.float64(alone))


def test_a_curve_builds_its_one_table_on_its_first_read_between_knots(
        monkeypatch):
    # a curve that is never queried builds no table, and its cost is its
    # accumulator's last knot, read without one; reads at knots build none
    # either, whichever segments they span; the first read between knots
    # builds the table of every segment, and no read builds another
    calls, builds = counted_kernel(monkeypatch)
    curve = three_segment_curve()
    assert curve.cost == np.sin(3.0)
    curve(np.array([2.0, 2.25, 2.5, 0.0, 1.0]))
    curve.derivative(np.array([1.0, 3.0]), side="left")
    curve.read(np.array([0, 2]), np.array([0.75, 2.5]), (0, 1))
    assert builds == [] and calls == []
    curve(2.6)
    assert len(builds) == 1 and curve._table_of_pieces()[0] is builds[0]
    curve(np.array([0.1, 1.1, 2.1]))
    curve.read(np.array([0, 1]), np.array([0.4, 1.4]), (0, 1))
    assert len(builds) == 1 and len(calls) == 3


@pytest.mark.parametrize("segments", [
    [([0.0, 0.5], [1.0, 2.0], [0.0, 0.0])],             # stops short of 1
    [([0.0, 0.5, 0.5, 1.0], [1.0] * 4, [0.0] * 4)],     # repeated knot
    [([0.0, 1.0], [1.0, np.nan], [0.0, 0.0])],          # not finite
    [([0.0, 1.0], [1.0, 2.0], [0.0, 0.0, 0.0])],        # shapes differ
], ids=["short", "repeated", "nan", "shapes"])
def test_curve_rejects_malformed_knots(segments):
    with pytest.raises(ValueError):
        SampledCurve([0.0, 1.0], segments)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("problem", [vehicle_problem, power_problem],
                         ids=["vehicle", "three-machine"])
def test_curve_side_picks_the_schedules_segment(problem, side):
    # the curve's boundary rule is the schedule's, which the field uses
    sys_, x0, sched = problem()
    x = integrate_state(sys_, x0, sched)
    for curve in (x, x.cost_curve):
        for t in sched.boundaries:
            seg = sched.segment_of(t, side)
            np.testing.assert_array_equal(curve(t, side), curve(t, seg=seg))
            np.testing.assert_array_equal(curve.derivative(t, side),
                                          curve.derivative(t, seg=seg))


def test_vehicle_single_mode_closed_form(vehicle, vehicle_x0):
    # mode 3 turns at pi/3 while driving at speed 2 from the origin:
    # psi = (pi/3) t, X = (6/pi) sin psi, Y = (6/pi)(1 - cos psi)
    T = 1.5
    x = integrate_state(vehicle, vehicle_x0, constant_schedule(3, T, 4))
    ts = np.linspace(0.0, T, 25)
    w = math.pi / 3
    np.testing.assert_allclose(x(ts)[:, 0], (6 / math.pi) * np.sin(w * ts),
                               atol=1e-8)
    np.testing.assert_allclose(x(ts)[:, 1],
                               (6 / math.pi) * (1 - np.cos(w * ts)),
                               atol=1e-8)
    np.testing.assert_allclose(x(ts)[:, 2], w * ts, atol=1e-10)
    np.testing.assert_allclose(x(ts)[:, 3], ts, atol=1e-12)


def test_vehicle_cost_matches_quadrature(vehicle, vehicle_x0):
    # independent check of the cost accumulator: Simpson on dense samples
    from scipy.integrate import simpson

    T = 2.0
    sched = ModeSchedule((1, 3, 2), (0.7, 1.4), T, 4)
    x = integrate_state(vehicle, vehicle_x0, sched)
    ts = np.linspace(0.0, T, 4001)
    ref = simpson(vehicle.running_cost(x(ts)), x=ts)
    assert x.cost == pytest.approx(ref, rel=1e-7)


def test_adjoint_terminal_condition_and_jump(vehicle, vehicle_x0):
    sched = ModeSchedule((2, 4), (1.0,), 2.0, 4)
    x = integrate_state(vehicle, vehicle_x0, sched)
    rho = integrate_adjoint(vehicle, sched, x)
    np.testing.assert_allclose(rho(2.0), np.zeros(4), atol=1e-12)
    # the costate is continuous at the switch even though its slope jumps
    np.testing.assert_allclose(rho(1.0, side="left"), rho(1.0, side="right"),
                               atol=1e-10)


def test_adjoint_fd_oracle(vehicle, vehicle_x0):
    # rho(0) is the gradient of J with respect to the initial state
    sched = ModeSchedule((1, 4, 2), (1.1, 2.3), 3.0, 4)
    x = integrate_state(vehicle, vehicle_x0, sched)
    rho = integrate_adjoint(vehicle, sched, x)
    g = rho(0.0)
    eps = 1e-6
    for k in range(4):
        dx = np.zeros(4)
        dx[k] = eps
        jp = integrate_state(vehicle, vehicle_x0 + dx, sched).cost
        jm = integrate_state(vehicle, vehicle_x0 - dx, sched).cost
        fd = (jp - jm) / (2 * eps)
        assert g[k] == pytest.approx(fd, rel=2e-5, abs=1e-8)


def test_tolerance_options_change_accuracy():
    sys_ = decay_system()
    T = 3.0
    loose = integrate_state(sys_, [1.0], constant_schedule(1, T, 1),
                            rtol=1e-4, atol=1e-6)
    tight = integrate_state(sys_, [1.0], constant_schedule(1, T, 1),
                            rtol=1e-12, atol=1e-13)
    err_loose = abs(loose.cost - 0.25 * (1 - math.exp(-2 * T)))
    err_tight = abs(tight.cost - 0.25 * (1 - math.exp(-2 * T)))
    assert err_tight < err_loose
    assert err_tight < 1e-12


def test_knot_spacing_is_respected():
    sys_ = decay_system()
    x = integrate_state(sys_, [1.0], constant_schedule(1, 1.0, 1),
                        knot_spacing=0.01)
    ts = x.knots[0][0]
    assert len(ts) >= 101
    assert np.max(np.diff(ts)) <= 0.01 + 1e-12


def test_segment_count_matches_schedule(vehicle, vehicle_x0):
    sched = ModeSchedule((1, 2, 3, 4), (0.5, 1.0, 1.5), 2.0, 4)
    x = integrate_state(vehicle, vehicle_x0, sched)
    assert x.n_segments == 4
    np.testing.assert_allclose(x.boundaries, sched.boundaries)


@pytest.mark.parametrize("num_modes", [3, 5])
def test_a_schedule_of_another_mode_count_is_refused(vehicle, vehicle_x0,
                                                     num_modes, monkeypatch):
    # the field and the max rule read one channel per mode of the system
    # and of the schedule: with 5 the field failed on a missing column,
    # with 3 the run went on, theta over modes 1-3, the max rule over 1-4
    calls = count_solves(monkeypatch)
    u = constant_schedule(2, 2.0, num_modes)
    for run in (integrate_state, optimize):
        with pytest.raises(ValueError, match=f"the schedule has {num_modes} "
                                             "modes, the system 4"):
            run(vehicle, vehicle_x0, u)
    assert calls == []


# -- reusing an incumbent's prefix -------------------------------------------------

def assert_same_curve(a, b):
    """Knots, cost and the cost accumulator on a grid, bit for bit."""
    assert a.n_segments == b.n_segments
    for ka, kb in zip(a.knots + a.cost_curve.knots,
                      b.knots + b.cost_curve.knots):
        for va, vb in zip(ka, kb):
            assert np.array_equal(va, vb)
    assert a.cost == b.cost
    ts = np.linspace(a.t0, a.t1, 97)
    assert [a.cost_at(t) for t in ts] == [b.cost_at(t) for t in ts]


def shared_segments(a, b):
    """How many leading segments of ``a`` hold ``b``'s very knot arrays."""
    k = 0
    while k < min(a.n_segments, b.n_segments) \
            and a.knots[k][1] is b.knots[k][1]:
        k += 1
    return k


@pytest.mark.parametrize("seed", range(4))
def test_reused_prefix_equals_a_fresh_solve(vehicle, vehicle_x0, seed):
    rng = np.random.default_rng(seed)
    u = random_schedule(rng, 4.0, 4, 3)
    x_u = integrate_state(vehicle, vehicle_x0, u)
    # a trial that keeps u's first j segments and inserts a mode in the next
    j = int(rng.integers(1, u.n_segments))
    lo, hi = u.segment_bounds(j)
    t0 = lo + rng.uniform(0.2, 0.5) * (hi - lo)
    t1 = t0 + rng.uniform(0.1, 0.4) * (hi - lo)
    trial = u.insert(u.sequence[j] % 4 + 1, t0, t1)
    reused = integrate_state(vehicle, vehicle_x0, trial, reuse=x_u)
    assert_same_curve(reused, integrate_state(vehicle, vehicle_x0, trial))
    assert shared_segments(reused, x_u) == j
    # an unchanged schedule is copied whole
    again = integrate_state(vehicle, vehicle_x0, u, reuse=x_u)
    assert_same_curve(again, x_u)
    assert shared_segments(again, x_u) == u.n_segments


def test_a_fully_shared_curve_comes_back_itself(vehicle, vehicle_x0,
                                               monkeypatch):
    u = ModeSchedule((1, 3, 2), (0.8, 1.9), 3.0, 4)
    x_u = integrate_state(vehicle, vehicle_x0, u)
    sys_, x0, sched = power_problem()
    warm = _shift_curve(integrate_state(sys_, x0, sched), 0.1,
                        shift_schedule(sched, 0.1))
    calls = count_solves(monkeypatch)
    assert integrate_state(vehicle, vehicle_x0, u.with_times(u.times),
                           reuse=x_u) is x_u
    assert integrate_state(sys_, warm.knots[0][1][0],
                           shift_schedule(sched, 0.1), reuse=warm) is warm
    assert calls == []


def test_reused_prefix_on_the_power_network():
    net = load_network(THREE_MACHINE)
    sys_ = power_system(net)
    x0 = initial_state(net, magnitude=0.3, seed=0)
    u = ModeSchedule((1, 2, 1), (0.3, 0.6), 1.0, 2)
    trial = u.insert(2, 0.7, 0.8)
    x_u = integrate_state(sys_, x0, u)
    reused = integrate_state(sys_, x0, trial, reuse=x_u)
    assert_same_curve(reused, integrate_state(sys_, x0, trial))
    assert shared_segments(reused, x_u) == 2


def test_nothing_reused_from_other_inputs(vehicle, vehicle_x0):
    u = ModeSchedule((1, 3, 2), (0.8, 1.9), 3.0, 4)
    trial = u.insert(4, 2.2, 2.5)
    x_u = integrate_state(vehicle, vehicle_x0, u)
    other_x0 = vehicle_x0 + np.array([1e-3, 0.0, 0.0, 0.0])
    for x0, kw in ((other_x0, {}), (vehicle_x0, {"rtol": 1e-10}),
                   (vehicle_x0, {"knot_spacing": 0.01})):
        reused = integrate_state(vehicle, x0, trial, reuse=x_u, **kw)
        assert shared_segments(reused, x_u) == 0
        assert_same_curve(reused, integrate_state(vehicle, x0, trial, **kw))
    longer = ModeSchedule((1, 3, 2), (0.8, 1.9), 3.5, 4)
    reused = integrate_state(vehicle, vehicle_x0, longer, reuse=x_u)
    assert shared_segments(reused, x_u) == 0


# -- replaying the incumbent's steps in a segment that ends elsewhere --------

@st.composite
def replays(draw):
    """The vehicle or a random linear-quadratic system, an incumbent
    schedule, and a trial that keeps the incumbent's first ``k``
    segments, runs segment ``k`` to another end (earlier, or past the
    incumbent's next switch), mostly in the incumbent's mode, and then
    other modes to the horizon; where a cost bound should stop the trial:
    nowhere (no bound, or one it meets), inside segment ``k``'s replayed
    steps, or after segment ``k``; and where, as a share."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        sys_, x0, T = vehicle_system(), vehicle_initial_state(), 3.0
    else:
        sys_, x0, u0 = random_linear_quadratic(seed)
        T = u0.horizon
    N = sys_.num_modes
    rng = np.random.default_rng(seed)
    inc = random_schedule(rng, T, N, draw(st.integers(0, 3)))
    k = draw(st.integers(0, inc.n_segments - 1))
    lo = inc.boundaries[k]
    end = lo + draw(st.floats(0.02, 0.98)) * (T - lo)
    assume(end != inc.boundaries[k + 1])
    seq, times = list(inc.sequence[:k + 1]), list(inc.times[:k]) + [end]
    if draw(st.integers(0, 3)) == 0:
        # another mode, which may be segment k - 1's and extend it
        seq[k] = seq[k] % N + 1
    # the modes after it, each unlike the one before
    for _ in range(draw(st.integers(1, 2))):
        seq.append((seq[-1] - 1 + int(rng.integers(1, N))) % N + 1)
    if len(seq) - k == 3:
        times.append(end + draw(st.floats(0.1, 0.9)) * (T - end))
    trial = ModeSchedule(tuple(seq), tuple(times), T, N)
    where = draw(st.sampled_from([None, "met", "replayed", "after"]))
    return sys_, x0, inc, trial, where, draw(st.floats(0.05, 0.95))


def logged_solves(monkeypatch):
    """Route the integrator's ``solve_ivp`` through a logger: per call,
    ``(t_span, result, fun calls made inside the call, every fun call)``,
    each fun call logged as the bits of its state ``x``."""
    real = integrate.solve_ivp
    solves = []

    def logged(fun, t_span, *args, **kwargs):
        calls = []

        def rhs(x):
            calls.append(bits(x))
            return fun(x)

        out = real(rhs, t_span, *args, **kwargs)
        solves.append((t_span, out, len(calls), calls))
        return out

    monkeypatch.setattr(integrate, "solve_ivp", logged)
    return solves


def first_attempts(record):
    """The first attempted step size of each of ``record``'s steps, a
    solve that ran to its end, as scipy's DOP853 derives it: the first
    step's from the first-step selection, ``min(100 h, h1, t1 - t0)`` with
    ``h`` its ``h0`` clipped to the end, each later one the size the step
    before proposed; each raised to ten float spacings at its start."""
    t0, t1 = record.t[0], record.t[-1]
    sizes = [min(100 * min(record.h0, t1 - t0), record.h1, t1 - t0),
             *record.h_next[:-1]]
    return [max(h, 10 * (math.nextafter(t, math.inf) - t))
            for h, t in zip(sizes, record.t)]


def replayed_steps(record, t0, t1):
    """How many of ``record``'s steps a solve from ``t0`` to ``t1`` takes
    as they are: each whose first attempt ends before both ends, after a
    first-step selection whose ``h0`` fits before both; ``None`` when the
    selection does not fit."""
    end = min(t1, record.t[-1])
    if record.h0 > end - t0:
        return None
    first = first_attempts(record)
    r = 0
    while record.t[r] + first[r] < end:
        r += 1
    return r


#: the vehicle from mode 2, whose first step after a first-step selection
#: of h0 = 1e-6 first tries 1e-4: a trial that switches at 5e-5 replays the
#: selection, and its end clips the first step
_CLIPPED_FIRST_STEP = (vehicle_system(), vehicle_initial_state(),
                       constant_schedule(2, 3.0, 4),
                       ModeSchedule((2, 1), (5e-5,), 3.0, 4))


@settings(max_examples=60, deadline=None)
@given(case=replays())
@example(case=(*_CLIPPED_FIRST_STEP, None, 0.5))
@example(case=(*_CLIPPED_FIRST_STEP, "replayed", 0.5))
def test_a_replayed_segment_is_a_fresh_solve_to_the_bit(case):
    sys_, x0, inc, trial, where, share = case
    x_inc = integrate_state(sys_, x0, inc)
    # the segments shared whole, and the steps segment k replays
    k = 0
    while trial.sequence[k] == inc.sequence[k] \
            and trial.boundaries[k + 1] == inc.boundaries[k + 1]:
        k += 1
    lo, end = trial.segment_bounds(k)
    record = r = None
    if trial.sequence[k] == inc.sequence[k]:
        record = x_inc._steps[k]
        r = replayed_steps(record, lo, end)
    fresh = integrate_state(sys_, x0, trial)
    bound = None
    if where == "met":
        bound = 2.0 * fresh.cost + 1.0
    elif where == "replayed":
        upto = end if r is None else record.t[r or 1]
        bound = fresh.cost_at(lo + share * (upto - lo))
    elif where == "after":
        bound = fresh.cost_at(end + share * (trial.horizon - end))
    with pytest.MonkeyPatch.context() as mp:
        solves = logged_solves(mp)
        fresh = integrate_state(sys_, x0, trial, cost_bound=bound)
        fresh_solves = solves[:]
        solves.clear()
        reused = integrate_state(sys_, x0, trial, reuse=x_inc,
                                 cost_bound=bound)
    if isinstance(fresh, Abandoned):
        assert isinstance(reused, Abandoned)
        assert bits(reused.time) == bits(fresh.time)
    else:
        assert reused.n_segments == fresh.n_segments
        for a, b in ((reused, fresh), (reused.cost_curve, fresh.cost_curve)):
            for ka, kb in zip(a.knots, b.knots):
                assert [bits(v) for v in ka] == [bits(v) for v in kb]
        assert bits(reused.cost) == bits(fresh.cost)
        assert shared_segments(reused, x_inc) == k
    # segment k's solve skips what it replays, its other calls the same
    # and in the same order; every later segment is solved alike
    assert [s[0] for s in solves] == [s[0] for s in fresh_solves[k:]]
    saved = []
    for (_, out, made, calls), (_, out0, made0, calls0) in zip(
            solves, fresh_solves[k:]):
        assert out.nfev == made and out0.nfev == made0
        saved.append(out0.nfev - out.nfev)
        assert calls == calls0[saved[-1]:]
    assert not any(saved[1:])
    if r is None:
        assert saved[0] == 0
        return
    # the selection's two calls, and 12 for each step replayed before the
    # solve ended or stopped, more for one that rejected an attempt
    took = min(r, len(solves[0][1].steps.t) - 1)
    assert saved[0] >= 2 + 12 * took and (saved[0] - 2) % 12 == 0
    first = first_attempts(record)
    if all(record.t[j] + first[j] == record.t[j + 1] for j in range(took)):
        assert saved[0] == 2 + 12 * took


# -- warm start of the next planning window ---------------------------------------

@st.composite
def warm_starts(draw):
    """A system, initial state and schedule of 1-4 segments, and a shift:
    at a random time, exactly at a switching time, or the whole window."""
    problem = draw(st.sampled_from([vehicle_problem, power_problem]))
    sys_, x0, sched = problem()
    seed = draw(st.integers(0, 2**32 - 1))
    sched = random_schedule(np.random.default_rng(seed), sched.horizon,
                            sys_.num_modes, draw(st.integers(0, 3)))
    T = sched.horizon
    where = draw(st.sampled_from(["random", "switch", "window"]))
    if where == "switch" and sched.times:
        dt = draw(st.sampled_from(sched.times))
    elif where == "window":
        dt = T
    else:
        dt = draw(st.floats(1e-3 * T, T))
    return sys_, x0, sched, dt


@settings(max_examples=40, deadline=None)
@given(case=warm_starts())
# a shift below the horizon's float spacing, where T - dt rounds to T and
# no tail is left to solve
@example(case=(vehicle_system(), vehicle_initial_state(),
               ModeSchedule((2, 1), (1.5,), 3.0, 4), 1e-17))
def test_shifted_curve_matches_a_fresh_solve(case):
    sys_, x0, sched, dt = case
    x = integrate_state(sys_, x0, sched)
    shifted = shift_schedule(sched, dt)
    warm = _shift_curve(x, dt, shifted)
    # the shift reads x on a temporary curve: nothing is built on x
    for curve in (x, x.cost_curve):
        assert curve._flat is None and curve._coeffs is None
    fresh = integrate_state(sys_, x(dt), shifted)
    # the next window's x0 and schedule, bit for bit, and its accumulator
    # starting from 0
    assert np.array_equal(warm.knots[0][1][0], x(dt))
    assert same_bits(warm.cost_curve.knots[0][1][0], np.zeros(1))
    assert np.array_equal(warm.boundaries, shifted.boundaries)
    assert warm._inputs == fresh._inputs
    ts = np.linspace(0.0, sched.horizon, 401)
    scale = np.abs(fresh(ts)).max()
    assert np.abs(warm(ts) - fresh(ts)).max() <= 100 * 1e-8 * scale
    J = fresh.cost
    assert abs(warm.cost - J) <= 100 * (1e-9 + 1e-8 * abs(J))
    for ts, _, _ in warm.knots:
        assert np.diff(ts).max() <= sched.horizon \
            / integrate.KNOTS_PER_HORIZON * (1.0 + 1e-12)


def test_warm_curve_keeps_the_trials_prefix_reuse(monkeypatch):
    # a trial of the next window that first crosses inside segment j
    # solves only from that segment on; a warm curve naming other inputs
    # or another first knot would be solved again from 0
    sys_, x0, sched = power_problem()
    x = integrate_state(sys_, x0, sched)
    shifted = shift_schedule(sched, 0.1)
    warm = _shift_curve(x, 0.1, shifted)
    assert shifted.n_segments == 3
    calls = count_solves(monkeypatch)
    for j in (1, 2):
        lo, hi = shifted.segment_bounds(j)
        t0, t1 = lo + 0.3 * (hi - lo), lo + 0.6 * (hi - lo)
        trial = shifted.insert(3 - shifted.sequence[j], t0, t1)
        calls.clear()
        reused = integrate_state(sys_, x(0.1), trial, reuse=warm)
        assert calls[0] == (lo, t0)
        assert len(calls) == trial.n_segments - j
        assert shared_segments(reused, warm) == j


# -- abandoning a trial once its cost passes a bound --------------------------

@pytest.mark.parametrize("problem", [vehicle_problem, power_problem],
                         ids=["vehicle", "three-machine"])
def test_unreached_bound_gives_the_same_curve(problem):
    sys_, x0, sched = problem()
    assert sys_.cost_floor == 0.0
    x = integrate_state(sys_, x0, sched)
    # down to the optimizer's slack above the final cost
    for bound in (2.0 * x.cost + 1.0, x.cost + 10.0 * (1e-9 + 1e-8 * x.cost)):
        assert_same_curve(integrate_state(sys_, x0, sched, cost_bound=bound),
                          x)


def test_no_cost_floor_never_abandons():
    sys_ = decay_system()
    assert sys_.cost_floor is None
    sched = constant_schedule(1, 2.0, 1)
    x = integrate_state(sys_, [1.0], sched)
    bounded = integrate_state(sys_, [1.0], sched, cost_bound=-1.0)
    assert not isinstance(bounded, Abandoned)
    assert_same_curve(bounded, x)


def test_abandoned_where_the_floored_cost_crosses_the_bound():
    # xdot = -x with running cost x^2 / 2 + 1, floor 1: acc(t) + (T - t)
    # = (1 - e^{-2t}) / 4 + T reaches the bound T + b at
    # tc = -log(1 - 4 b) / 2, and the integration stops at the end of the
    # solver step that holds tc
    base = decay_system()
    sys_ = SwitchedSystem(
        num_modes=1, dim=1, mode_field=base.mode_field,
        mode_jacobian=base.mode_jacobian,
        running_cost=lambda x: base.running_cost(x) + 1.0,
        running_cost_gradient=base.running_cost_gradient,
        cost_floor=1.0)
    T, b = 3.0, 0.2
    sched = constant_schedule(1, T, 1)
    out = integrate_state(sys_, [1.0], sched, cost_bound=T + b)
    assert isinstance(out, Abandoned) and type(out.time) is float
    steps = integrate_state(sys_, [1.0], sched)._steps[0].t
    k = steps.index(out.time)
    tc = -0.5 * math.log(1.0 - 4.0 * b)
    assert steps[k - 1] + 1e-7 < tc < steps[k] - 1e-7
    # below T the bound fails before anything is integrated
    assert integrate_state(sys_, [1.0], sched, cost_bound=T - 0.1) \
        == Abandoned(0.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_switches=st.integers(0, 3),
       kind=st.sampled_from(["share", "at a point"]),
       share=st.floats(-0.1, 1.2), point=st.integers(0, 10**6))
def test_a_bounded_integration_stops_at_the_first_solved_point_past_it(
        seed, n_switches, kind, share, point):
    # random linear-quadratic systems (cost floor 0) and bounds: a share of
    # the cost, negative ones and ones above it included, or the
    # accumulator at one of the solved points, which it does not pass.
    # The solved points are the segment starts and accepted step ends of
    # the unbounded solve; the bounded one is abandoned at the first where
    # the accumulator passes the bound, and otherwise is that solve
    sys_, x0, u = random_linear_quadratic(seed)
    sched = random_schedule(np.random.default_rng(seed), u.horizon,
                            sys_.num_modes, n_switches)
    full = integrate_state(sys_, x0, sched)
    if kind == "share":
        bound = share * full.cost
    else:
        accs = [float(z[-1]) for r in full._steps for z in r.y]
        bound = accs[point % len(accs)]
    out = integrate_state(sys_, x0, sched, cost_bound=bound)
    want = first_passing_point(full, 0.0, bound)
    if want is None:
        assert not isinstance(out, Abandoned)
        assert_same_curve(out, full)
    else:
        assert isinstance(out, Abandoned) and bits(out.time) == bits(want)


def test_bound_below_the_reused_prefix_abandons_without_a_solve(
        vehicle, vehicle_x0, monkeypatch):
    u = ModeSchedule((1, 3, 2), (0.8, 1.9), 3.0, 4)
    trial = u.insert(4, 2.2, 2.5)   # shares u's first two segments
    x_u = integrate_state(vehicle, vehicle_x0, u)
    calls = count_solves(monkeypatch)
    bound = 0.5 * x_u.cost_at(1.9)
    assert integrate_state(vehicle, vehicle_x0, trial, reuse=x_u,
                           cost_bound=bound) == Abandoned(1.9)
    assert integrate_state(vehicle, vehicle_x0, trial,
                           cost_bound=-1e-3) == Abandoned(0.0)
    assert calls == []
    # past the prefix, the solve stops at the first step end where the
    # accumulator has passed the bound, a step end of the solve from
    # scratch
    full = integrate_state(vehicle, vehicle_x0, trial)
    bound = 0.5 * (full.cost_at(1.9) + full.cost)
    calls.clear()
    out = integrate_state(vehicle, vehicle_x0, trial, reuse=x_u,
                          cost_bound=bound)
    assert isinstance(out, Abandoned) and 1.9 < out.time <= 3.0
    assert out.time == first_passing_point(full, 0.0, bound)
    assert full.cost_at(out.time) > bound
    assert calls[0] == (1.9, 2.2) and calls[-1][0] < out.time


# -- the package's own DOP853 loop, pinned to scipy's ------------------------

def reference_knots(a, b, steps, spacing):
    """Knots of a solve over ``[a, b]`` from its step times: the union of
    the steps and a uniform grid of at most ``spacing``, every point within
    ``1e-14 max(1, |b|)`` of the one before it dropped, ends pinned."""
    n_uni = max(2, int(np.ceil((b - a) / spacing)) + 1)
    ts = np.union1d(np.linspace(a, b, n_uni), steps)
    keep = np.concatenate(([True], np.diff(ts) > 1e-14 * max(1.0, abs(b))))
    ts = ts[keep]
    ts[0], ts[-1] = a, b
    return ts


#: built-in systems for the solver's quadrature path, each with a state
#: to start near
QUAD_MODELS = {
    "vehicle": lambda: (vehicle_system(), vehicle_initial_state()),
    "three-machine": lambda: (power_system(load_network(THREE_MACHINE)),
                              initial_state(load_network(THREE_MACHINE),
                                            seed=1)),
    "ring12": lambda: (power_system(ring_network()),
                       initial_state(ring_network(), seed=1)),
}
_QUAD_BUILT = {}


def full_rhs(fun, quad):
    """The right-hand side ``[fun(x), quad(x)]`` of a solve whose last
    component is the quadrature, both taken on the single state ``x``, as
    scipy's ``fun(t, z)``."""
    return lambda t, z: np.append(fun(z[:-1]), quad(z[:-1]))


@st.composite
def dop853_problems(draw):
    """A small linear ``A x + b`` with the quadrature ``|x|^2 / 2``, a
    built-in system's mode field with its cost accumulator as the
    quadrature, or a system at rest; an interval, tolerances, a knot
    spacing and a crossing time ``tc`` strictly inside the interval.
    ``own`` is the ``(fun, quad)`` the package's loop solves, ``fun`` the
    full right-hand side, which scipy solves."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t0 = draw(st.floats(0.0, 2.0))
    t1 = t0 + draw(st.floats(0.05, 2.0))
    kind = draw(st.sampled_from(["linear", "at rest", *QUAD_MODELS]))
    if kind == "linear":
        n = draw(st.integers(1, 4))
        A, b = rng.normal(0.0, 0.3, (n, n)), rng.normal(0.0, 2.0, n)
        # row-wise, so each row of a stack has the bits of that row alone
        own = (lambda x: A @ x + b,
               lambda xs: 0.5 * np.add.reduce(xs * xs, axis=-1))
        # most components drift through zero, where a step end as the dense
        # output reads it, y_old + (y - y_old), may differ from y
        z0 = np.append(-b * (t1 - t0) * rng.uniform(0.2, 0.8, n),
                       rng.normal(0.0, 1.0))
    elif kind == "at rest":
        # a zero field and a zero quadrature
        own = (lambda x: np.zeros_like(x), lambda xs: 0.0 * xs[..., 0])
        z0 = rng.normal(0.0, 1.0, 3)
    else:
        if kind not in _QUAD_BUILT:
            _QUAD_BUILT[kind] = QUAD_MODELS[kind]()
        sys_, x0 = _QUAD_BUILT[kind]
        m = draw(st.integers(1, sys_.num_modes))
        own = (lambda x: sys_.mode_field(m, x), sys_.running_cost)
        z0 = np.concatenate([x0, [0.0]]) + rng.normal(0.0, 0.3, sys_.dim + 1)
    return dict(
        fun=full_rhs(*own), own=own, z0=z0, t0=t0, t1=t1,
        rtol=10.0 ** draw(st.floats(-10.0, -4.0)),
        atol=10.0 ** draw(st.floats(-11.0, -5.0)),
        spacing=draw(st.floats(0.01, 0.5)),
        tc=t0 + draw(st.floats(0.2, 0.8)) * (t1 - t0))


def bits(a):
    return np.asarray(a, float).tobytes()


@settings(max_examples=80, deadline=None)
@given(p=dop853_problems())
def test_own_dop853_matches_scipy_to_the_bit(p):
    fun, z0, t0, t1, tc = p["fun"], p["z0"], p["t0"], p["t1"], p["tc"]
    own_fun, quad = p["own"]
    tol = dict(rtol=p["rtol"], atol=p["atol"])

    def own_solve(end, **kwargs):
        return integrate.solve_ivp(own_fun, (t0, end), z0, p["rtol"],
                                   p["atol"], quad=quad, **kwargs)

    def own_knots(end, steps):
        # the knots read from the record, and the fun calls the read makes
        calls = []

        def counted(x):
            calls.append(x)
            return own_fun(x)

        grid = np.linspace(t0, end, max(2, int(np.ceil((end - t0)
                                                       / p["spacing"])) + 1))
        return (*integrate.read_knots(counted, quad, steps, grid), len(calls))

    whole = own_solve(t1)
    # the solve to t1; then solves that replay the steps of another solve
    # from t0: to an earlier end, to a later one, and to a later one from
    # a solve too short for the first-step selection's h0, which replays
    # nothing
    for end, replay in ((t1, None), (tc, whole.steps),
                        (t1, own_solve(tc).steps),
                        (t1, own_solve(t0 + 0.5 * whole.steps.h0).steps)):
        ref = solve_ivp(fun, (t0, end), z0, method="DOP853",
                        dense_output=True, **tol)
        assert ref.success
        own = own_solve(end, replay=replay)
        assert own.t_stop is None
        assert bits(own.steps.t) == bits(ref.t)
        own_ts, own_zs, dense_calls = own_knots(end, own.steps)
        assert bits(own_zs[-1]) == bits(ref.y[:, -1])
        ts = reference_knots(t0, end, ref.t, p["spacing"])
        assert bits(own_ts) == bits(ts)
        assert bits(own_zs[0]) == bits(z0)
        if len(ts) > 2:
            assert bits(own_zs[1:-1]) == bits(ref.sol(ts[1:-1]).T)
        # the solve takes no dense stage; the read takes them only on the
        # steps with a knot strictly inside
        steps = len(ref.t) - 1
        bare = sum(not np.any((ts > lo) & (ts < hi))
                   for lo, hi in zip(ref.t[:-1], ref.t[1:]))
        assert dense_calls == 3 * (steps - bare)
        if replay is None or min(end, replay.t[-1]) - t0 < replay.h0:
            assert own.nfev == ref.nfev - 3 * steps
        else:
            assert own.nfev < ref.nfev - 3 * steps

    # a stop that crosses zero mid-interval, through the state and the
    # last component (a system's cost accumulator) as well, in a solve of
    # its own and in one that replays the steps of the solve to t1: the
    # solve takes scipy's steps up to the end of the step where scipy
    # finds the crossing, and stops there
    def stop(t, z):
        return (t - tc) / (t1 - t0) + 0.01 * np.tanh(z[0] - z[-1])
    stop.terminal, stop.direction = True, 1.0
    ref = solve_ivp(fun, (t0, t1), z0, method="DOP853", events=stop, **tol)
    assert ref.status == 1
    for replay in (None, whole.steps):
        own = own_solve(t1, stop=stop, replay=replay)
        own_t = own.steps.t
        # scipy's last time is the root it found inside the crossing step
        assert bits(own_t[:-1]) == bits(ref.t[:-1])
        assert own.t_stop == own_t[-1]
        assert own_t[-2] < ref.t_events[0][0] <= own.t_stop
        assert own.t_stop == whole.steps.t[len(own_t) - 1]
        # scipy takes the crossing step's dense stages, which this skips;
        # a replay saves calls only when its first-step selection's h0
        # fits in the span, as in the solves above
        if replay is None or t1 - t0 < replay.h0:
            assert own.nfev == ref.nfev - 3
        else:
            assert own.nfev < ref.nfev - 3


@pytest.mark.parametrize("t_span", [(1.0, 1.0), (2.0, 1.0)])
def test_an_empty_span_fails_naming_it(t_span):
    with pytest.raises(ValueError,
                       match=re.escape(f"t_span {t_span} is empty")):
        integrate.solve_ivp(lambda x: -x, t_span, [1.0, 0.0], 1e-8, 1e-9,
                            quad=lambda xs: xs[:, 0])


def test_a_blow_up_fails_naming_the_interval():
    # zdot = z^2 from z(0) = 1 blows up at t = 1, inside [0, 2]
    sys_ = SwitchedSystem(
        num_modes=1, dim=1,
        mode_field=lambda i, x: np.asarray(x, float) ** 2,
        mode_jacobian=lambda i, x: 2.0 * np.asarray(x, float)[..., None],
        running_cost=lambda x: 0.0 * np.asarray(x, float)[..., 0],
        running_cost_gradient=lambda x: np.zeros(np.shape(x)))
    with pytest.raises(RuntimeError,
                       match=r"integration failed on \[0\.0, 2\.0\]: "
                             r"Required step size"):
        integrate_state(sys_, [1.0], constant_schedule(1, 2.0, 1))


#: a vehicle run that is not finite at its start: a NaN in ``x0``, for
#: the integration alone and for the descent and receding-horizon drivers,
#: and a mode field that is NaN everywhere, from a start state off the
#: origin (a NaN first step size) and from the origin (a first step of the
#: fixed 1e-6 whose error norm is NaN, which used to shrink until it fell
#: below the float spacing and read as stiffness)
NOT_FINITE_RUNS = {
    "x0": ("x0 = [math.nan, 0.0, 0.0, 0.0]",
           "integrate_state(sys_, x0, sched)", "ValueError: x0 must be"),
    "x0 optimize": ("x0 = [math.nan, 0.0, 0.0, 0.0]",
                    "optimize(sys_, x0, sched)", "ValueError: x0 must be"),
    "x0 horizon": ("x0 = [math.nan, 0.0, 0.0, 0.0]",
                   "receding_horizon(sys_, x0, sched, 2)",
                   "ValueError: x0 must be"),
    "field": ("sys_ = dataclasses.replace(sys_, mode_field=lambda i, x: "
              "np.full(np.shape(x), math.nan)); "
              "x0 = vehicle_initial_state([1.0, 1.0, 0.5])",
              "integrate_state(sys_, x0, sched)",
              "RuntimeError: integration failed on [0.0, 1.0]: the state or "
              "the mode field is not finite at t = 0.0"),
    "field at the origin": (
        "sys_ = dataclasses.replace(sys_, mode_field=lambda i, x: "
        "np.full(np.shape(x), math.nan)); x0 = [0.0, 0.0, 0.0, 0.0]",
        "integrate_state(sys_, x0, sched)",
        "RuntimeError: integration failed on [0.0, 1.0]: the state or the "
        "mode field is not finite at t = 0.0"),
}


@pytest.mark.parametrize("case", sorted(NOT_FINITE_RUNS))
def test_a_run_that_is_not_finite_fails_at_once(case):
    # these used to hang: the first step size was NaN, which no test of
    # the step size ever caught.  The run is a subprocess with a timeout,
    # so a hang fails the test instead of the suite
    setup, call, error = NOT_FINITE_RUNS[case]
    code = "\n".join([
        "import dataclasses, math", "import numpy as np",
        "from modesched import (constant_schedule, integrate_state, "
        "optimize, receding_horizon)",
        "from modesched.models import vehicle_initial_state, vehicle_system",
        "sys_, x0 = vehicle_system(), vehicle_initial_state()",
        "sched = constant_schedule(1, 1.0, 4)", setup, call])
    path = os.pathsep.join(filter(None, [str(REPO / "src"),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 1
    assert run.stderr.strip().splitlines()[-1].startswith(error), run.stderr


def test_the_solver_hook_sees_every_segment_and_rhs_call(vehicle, vehicle_x0,
                                                         monkeypatch):
    # the benchmark's tracer (bench/tracing.py) patches the name
    # modesched.integrate.solve_ivp, times each call and adds up the nfev
    # of what it returns; count_solves reads args[1] as (t0, t1).  Both
    # must keep seeing every segment solve and every right-hand side call
    # a solve makes.  A solve only steps: integrate_state reads its knots
    # from its recorded steps after the call, once every segment is
    # solved, so the dense stages of the inner knots are in neither count.
    real = integrate.solve_ivp
    seen = []

    def counted(fun, t_span, *args, **kwargs):
        calls = 0

        def rhs(x):
            nonlocal calls
            calls += 1
            return fun(x)

        out = real(rhs, t_span, *args, **kwargs)
        seen.append((t_span, out.nfev, calls))
        return out

    monkeypatch.setattr(integrate, "solve_ivp", counted)
    sched = ModeSchedule((1, 3, 2), (0.8, 1.9), 3.0, 4)
    full = integrate_state(vehicle, vehicle_x0, sched)
    b = sched.boundaries
    assert [s for s, _, _ in seen] == list(zip(b[:-1], b[1:]))
    # a stopped solve takes no dense stages and counts every call it made
    out = integrate_state(vehicle, vehicle_x0, sched,
                          cost_bound=0.5 * (full.cost_at(1.9) + full.cost))
    assert isinstance(out, Abandoned) and 1.9 < out.time <= 3.0
    assert len(seen) == 6
    assert all(nfev == calls for _, nfev, calls in seen)
    # a trial that ends segment 1 sooner replays its first steps from the
    # incumbent's: the hook still sees that solve once, with its span, and
    # its nfev is the calls it made, fewer than a solve from scratch makes
    trial = ModeSchedule((1, 3, 4), (0.8, 1.5), 3.0, 4)
    seen.clear()
    integrate_state(vehicle, vehicle_x0, trial)
    [(_, from_scratch, _)] = [s for s in seen if s[0] == (0.8, 1.5)]
    seen.clear()
    integrate_state(vehicle, vehicle_x0, trial, reuse=full)
    out = integrate_state(vehicle, vehicle_x0, trial, reuse=full,
                          cost_bound=full.cost_at(1.0))
    assert isinstance(out, Abandoned) and 0.8 < out.time < 1.5
    assert [s for s, _, _ in seen] == [(0.8, 1.5), (1.5, 3.0), (0.8, 1.5)]
    assert all(nfev == calls for _, nfev, calls in seen)
    assert seen[0][1] < from_scratch

    spans = count_solves(monkeypatch)
    integrate_state(vehicle, vehicle_x0, sched)
    assert spans == list(zip(b[:-1], b[1:]))


@pytest.mark.parametrize("bounded", [False, True])
def test_the_cost_is_called_once_per_attempted_step(vehicle, vehicle_x0,
                                                    monkeypatch, bounded):
    # the stages call the mode field alone; the accumulator's stage
    # derivatives come from one running_cost call per attempted step on
    # its 12 stage inputs, and two single-row calls in the first-step
    # selection.  The knot read after the solve takes one call per step
    # with dense stages on their 3, and the knots' slopes one more, on all
    # the knots at once; a stopped solve is read for neither.
    rows = []

    def cost(x):
        rows.append(np.shape(x))
        return vehicle.running_cost(x)

    sys_ = dataclasses.replace(vehicle, running_cost=cost)
    sched = constant_schedule(1, 3.0, 4)
    bound = None
    if bounded:
        bound = 0.5 * integrate_state(vehicle, vehicle_x0, sched).cost
    real = integrate.solve_ivp
    solves = []

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        solves.append(out)
        return out

    monkeypatch.setattr(integrate, "solve_ivp", counted)
    out = integrate_state(sys_, vehicle_x0, sched, cost_bound=bound)
    (sol,) = solves
    n = sys_.dim
    assert isinstance(out, Abandoned) == bounded
    # the last call: the stopping step's stages, or the knots' slopes
    if bounded:
        assert rows[-1] == (12, n)
    else:
        assert rows.pop() == (len(out.knots[0][0]), n)
    assert rows[:2] == [(1, n), (1, n)]
    attempts, dense = rows.count((12, n)), rows.count((3, n))
    assert attempts + dense == len(rows) - 2
    # the read follows the solve: no attempt after the first dense stage
    if dense:
        assert (12, n) not in rows[rows.index((3, n)):]
    assert attempts >= len(sol.steps.t) - 1 and (dense > 0) != bounded
    assert sol.nfev == 2 + 12 * attempts


def recording_system(sys_, log):
    """``sys_`` with each model callable logging ``(name, shape of its
    state argument)`` to ``log``."""
    def logged(name, fn):
        def call(*args):
            log.append((name, np.shape(args[-1])))
            return fn(*args)
        return call
    names = ("mode_field", "mode_jacobian", "running_cost",
             "running_cost_gradient")
    return dataclasses.replace(
        sys_, **{name: logged(name, getattr(sys_, name)) for name in names})


def test_an_abandoned_integration_reads_no_knots(vehicle, vehicle_x0):
    # segments that a bounded integration completes keep their inner
    # knots' dense stages and knot slopes until the last segment is
    # solved; abandoned in its last segment, it takes neither for them,
    # and none for the step that passes the bound either
    sched = ModeSchedule((1, 3, 2), (0.8, 1.9), 3.0, 4)
    n = vehicle.dim
    log = []
    sys_ = recording_system(vehicle, log)
    full = integrate_state(sys_, vehicle_x0, sched)
    # unbounded, each segment takes dense stages and one slope stack
    assert log.count(("running_cost", (3, n))) > sched.n_segments
    stacks = [s for name, s in log if name == "mode_field" and len(s) == 2]
    assert [k for k, _ in stacks] == [len(ts) for ts, _, _ in full.knots]
    log.clear()
    out = integrate_state(sys_, vehicle_x0, sched,
                          cost_bound=0.5 * (full.cost_at(1.9) + full.cost))
    assert isinstance(out, Abandoned) and 1.9 < out.time <= 3.0
    assert {name for name, _ in log} == {"mode_field", "running_cost"}
    assert all(s == (n,) for name, s in log if name == "mode_field")
    rows = [s for name, s in log if name == "running_cost"]
    assert set(rows) == {(1, n), (12, n)} and rows[-1] == (12, n)


@pytest.mark.parametrize("problem", [vehicle_problem, power_problem],
                         ids=["vehicle", "three-machine"])
def test_a_met_bound_reads_the_same_knots_with_the_same_calls(problem):
    # with a bound it meets, a bounded integration reads its knots after
    # its last segment: the unbounded curve to the bit, knots, slopes and
    # cost curve, from the same model calls in another order
    base, x0, sched = problem()
    assert sched.n_segments >= 3
    log = []
    sys_ = recording_system(base, log)
    x = integrate_state(sys_, x0, sched)
    eager = sorted(log)
    log.clear()
    bounded = integrate_state(sys_, x0, sched, cost_bound=1.001 * x.cost)
    assert sorted(log) == eager
    assert not isinstance(bounded, Abandoned)
    for a, b in ((bounded, x), (bounded.cost_curve, x.cost_curve)):
        assert a.n_segments == b.n_segments
        for ka, kb in zip(a.knots, b.knots):
            assert [bits(v) for v in ka] == [bits(v) for v in kb]
    assert bits(bounded.cost) == bits(x.cost)


@pytest.mark.parametrize("T, L", [(0.01, 5e-15), (1.0, 5e-15),
                                  (100.0, 5e-13), (1e-3, 1e-16),
                                  (1.0, None), (5.5, None), (100.0, None)])
def test_a_short_segment_keeps_its_two_end_knots(vehicle, vehicle_x0, T, L):
    # a segment shorter than the knot merge, 1e-14 max(1, |t1|), used to
    # lose its end knot when it was not below a separate sliver bound;
    # every segment, down to one float spacing long (L None), is now
    # solved by the one step loop and has at least its two ends, and a
    # segment that short changes the trajectory at solver accuracy only
    t1 = math.nextafter(T / 2, math.inf) if L is None else T / 2 + L
    sched = ModeSchedule((1, 2, 1), (T / 2, t1), T, 4)
    x = integrate_state(vehicle, vehicle_x0, sched)
    ts = x.knots[1][0]
    assert len(ts) == 2 and tuple(ts) == sched.segment_bounds(1)
    y = integrate_state(vehicle, vehicle_x0, constant_schedule(1, T, 4))
    assert x.cost == pytest.approx(y.cost, rel=1e-8)
    assert np.allclose(x(T), y(T), rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("seg", [-1, 3])
def test_a_query_of_a_segment_the_curve_lacks_is_refused(seg):
    # seg -1 used to read the last segment's table from the wrong side,
    # and seg 3 ended in a bare IndexError
    sys_, x0, sched = vehicle_problem()
    x = integrate_state(sys_, x0, sched)
    for query in (x, x.derivative):
        with pytest.raises(ValueError, match=r"0 \.\. 2"):
            query(0.5, seg=seg)
    # read names its segments by index, one or one per time: -1 used to
    # read the last segment, 3 to end in a bare IndexError
    for segs in (seg, np.array([0, seg, 1]), [0, seg, 1]):
        with pytest.raises(ValueError, match=r"0 \.\. 2"):
            x.read(segs, np.array([0.5, 0.6, 1.5]))


def test_a_read_takes_its_segments_as_an_array_a_list_or_a_tuple():
    # a list or tuple of segments used to fail the range test with a
    # TypeError, and with it the field's channels_at; a float index is
    # refused, not truncated
    sys_, x0, sched = vehicle_problem()
    x = integrate_state(sys_, x0, sched)
    ts = np.array([0.5, 1.1, 1.5, 2.9])
    segs = [0, 1, 1, 2]
    want = x.read(np.array(segs), ts, (0, 1))
    for given in (segs, tuple(segs)):
        for got, w in zip(x.read(given, ts, (0, 1)), want):
            assert same_bits(got, w)
    field = insertion_gradient(sys_, sched, x,
                               integrate_adjoint(sys_, sched, x))
    want = field.channels_at(np.array(segs), ts)[0]
    for given in (segs, tuple(segs)):
        assert same_bits(field.channels_at(given, ts)[0], want)
    with pytest.raises(TypeError):
        x.read([0.0, 1.0], ts[:2])


@pytest.mark.parametrize("problem", [vehicle_problem, power_problem],
                         ids=["vehicle", "three-machine"])
def test_a_joined_curve_reads_both_curves_to_the_bit(problem):
    # the field reads x and rho as one curve of their columns: each column
    # has its own curve's bits, values and derivatives, at the knots and
    # between them; curves on other knots are refused
    sys_, x0, sched = problem()
    x = integrate_state(sys_, x0, sched)
    rho = integrate_adjoint(sys_, sched, x)
    xr = x.joined(rho)
    for seg, (ts, _, _) in enumerate(x.knots):
        for t in (ts, 0.5 * (ts[1:] + ts[:-1]), ts[[0, -1]]):
            v, d = xr.read(seg, t, (0, 1))
            assert same_bits(v, np.hstack([x(t, seg=seg), rho(t, seg=seg)]))
            assert same_bits(d, np.hstack([x.derivative(t, seg=seg),
                                           rho.derivative(t, seg=seg)]))
            assert same_bits(xr(t, seg=seg), v)
            assert same_bits(xr.derivative(t, seg=seg), d)
    finer = integrate_state(sys_, x0, sched, knot_spacing=1e-3)
    other = integrate_state(sys_, x0, constant_schedule(1, sched.horizon,
                                                         sys_.num_modes))
    for curve in (finer, other):
        with pytest.raises(ValueError, match="different"):
            x.joined(curve)


# -- the pieces of scipy the package owns, pinned to scipy's bits ----------

def test_importing_the_package_loads_no_scipy():
    # scipy is a dependency of the tests and the benchmark only
    code = ("import sys, modesched, modesched.cli; print(sorted(m for m in "
            "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    path = os.pathsep.join(filter(None, [str(REPO / "src"),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_dop853_tableau_is_scipys_to_the_bit():
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(_dop853, name) == getattr(dop853_coefficients, name)
    for name in ("A", "B", "C", "D", "E3", "E5"):
        got, want = getattr(_dop853, name), getattr(dop853_coefficients, name)
        assert got.shape == want.shape and bits(got) == bits(want)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12),
       n=st.integers(1, 3), zeros=st.floats(0.0, 0.5))
def test_power_sums_are_ppolys_kernel_to_the_bit(seed, k, n, zeros):
    # random tables, a share of their entries signed zeros, stored as
    # SampledCurve stores them (coefficient-major, c3, c2, c1, c0 for each
    # piece, the first two plus 0.0) and read as it reads them: the piece
    # of each time clamped to the span, and its offset.  PPoly reads the
    # same pieces.  Values and slopes, alone or together, at random times,
    # at every breakpoint and at the two clamped ends, agree to the bit
    rng = np.random.default_rng(seed)
    x = np.cumsum(np.append(rng.uniform(-2.0, 2.0),
                            10.0 ** rng.uniform(-3.0, 1.0, k)))
    c = rng.standard_normal((4, k, n)) * 10.0 ** rng.uniform(-3.0, 3.0,
                                                               (4, 1, n))
    c[rng.uniform(size=c.shape) < zeros] = 0.0
    c[rng.uniform(size=c.shape) < zeros] = -0.0
    table = c[::-1].copy()
    table[:2] += 0.0
    t = np.concatenate([rng.uniform(x[0] - 1.0, x[-1] + 1.0, 30), x])
    t = np.minimum(np.maximum(t, x[0]), x[-1])
    i = np.minimum(np.searchsorted(x, t, "right") - 1, k - 1)
    s = t - x[i]
    pp = PPoly(c, x)
    want = [bits(pp(t, 0)), bits(pp(t, 1))]
    read = integrate._power_sums
    assert [bits(v) for v in read(table, i, s, (0, 1))] == want
    assert [bits(read(table, i, s, (dx,))[0]) for dx in (0, 1)] == want


@st.composite
def exponent_stacks(draw):
    """A stack of square matrices: small (infinity-norm below 1), large
    (up to 8, so the series scales and squares) or power-like (a Magnus
    exponent's shape, last column zero, with some rows scaled 50-fold)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, p = draw(st.integers(1, 8)), draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["small", "large", "power"]))
    W = rng.standard_normal((k, p, p))
    norm = np.abs(W).sum(axis=-1).max()
    if kind == "small":
        W *= rng.uniform(0.0, 1.0) / norm
    elif kind == "large":
        W *= rng.uniform(1.0, 8.0) / norm
    else:
        W *= 0.02
        W[:, :, -1] = 0.0
        W[:, rng.uniform(size=p) < 0.5] *= 50.0
    return W


@settings(max_examples=100, deadline=None)
@given(W=exponent_stacks())
def test_expm_matches_scipy_on_every_matrix_of_a_stack(W):
    # one batched series for the whole stack, its degree and scaling set
    # by the stack's largest norm, agrees with scipy's Pade expm on each
    # matrix to 1e-11 of its largest entry
    E = integrate._expm(W)
    assert E.shape == W.shape
    for w, e in zip(W, E):
        want = expm(w)
        assert np.abs(e - want).max() <= 1e-11 * np.abs(want).max()
