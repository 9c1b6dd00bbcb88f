"""First-order information of the trajectory cost.

Two gradients live here.  The *switching-time gradient* is the ordinary
derivative of the cost with respect to each existing switching time.  The
*insertion gradient* ``d_a(t)`` is the sensitivity of the cost to a
vanishing-length insertion of mode ``a`` at time ``t``; it is a field of N
scalar channels over the horizon, piecewise smooth on the schedule's
partition with jumps only at switching times.  The most negative value of
the field, ``theta``, is the optimality function: ``theta = 0`` exactly at
schedules satisfying the minimum principle, and ``theta < 0`` points at the
mode/time insertion of steepest descent.

An :class:`InsertionGradientField` is built once per iterate and is plain
data from then on: construction samples each segment at the times its
builder gives, which for the field of a trajectory are the state curve's
own knots (the adjoint's knots too), and solves the interior minima of
all segments; :func:`optimality`, the step events of :mod:`.linesearch`
and the max rule of :mod:`.projection` read those results.  Every query
names, for each of its points, the segment whose branch it reads, so a
value at a switching time is never ambiguous, and one read takes points
of any mix of segments.

The field's interior minima, and the max rule's threshold crossings in
:mod:`.projection`, are found by one mechanism (:func:`_solve_roots`):
all of a field's minima at once, or all of a trial's crossings, whatever
their segments, each in a bracket taken from those samples, on the true
field (the channel's analytic slope for a minimum,
the difference of two modes for a crossing).  Each root is first
estimated from data at hand, a cubic model through its bracket's known
values, then refined in rounds of one batched field call for every root
still open.  A round evaluates each root's function at ``e +- ROOT_TOL *
horizon`` around its estimate ``e``; a sign change there settles the
root as Brent's method would stop, and so does a value within the field's
rounding bound, at which the sign is noise.  Otherwise the bracket
narrows and a Newton step gives the next estimate, with the model's
slope first and then the secant through the last two estimates.  A root
whose step leaves its bracket or points away from the root takes the
midpoint of its narrowed bracket instead.  One still open after
:data:`ROOT_ROUNDS` rounds takes safeguarded Illinois regula-falsi
steps, bisecting whenever its bracket has not halved over two rounds, in
the same batched rounds, until a test settles it or its bracket is ``2
ROOT_TOL * horizon`` wide.
Every read of the field, for its samples and for every round of roots,
is one call of its ``channels_at`` over all the segments it reads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrate import _check_partition, knot_grid

#: root tolerance of minima and threshold crossings, relative to the horizon.
#: On the power models it lies below the field's resolution for about a
#: quarter of the roots (24% on the published receding-horizon run: 14% of
#: the minima, 33% of the crossings): there the field's rounding noise is
#: larger than its change over +- ROOT_TOL * horizon, so a sign test at that
#: width reads noise, and :func:`_solve_roots` settles such a root by its
#: rounding bound instead
ROOT_TOL = 1e-12
#: batched Newton/secant rounds of a group of roots before the ones
#: still open take safeguarded regula-falsi steps.  Most roots settle in the second or third; flat
#: crossings with a poor first estimate need a fourth (on the published
#: receding-horizon run 3 rounds left 17 of 369 roots open, 4 leave 4)
ROOT_ROUNDS = 4
#: unit roundoff of the field's arithmetic
_EPS = float(np.finfo(float).eps)


def switching_time_gradient(sys, schedule, x, rho):
    """Cost derivative with respect to each interior switching time.

    Entry ``i`` is ``rho(T_i)^T (f_before(x(T_i)) - f_after(x(T_i)))``,
    where *before*/*after* are the modes flanking switching time ``T_i``.

    Returns
    -------
    ndarray, shape (M-1,)
    """
    out = np.empty(len(schedule.times))
    for i, t in enumerate(schedule.times):
        xt = np.asarray(x(t), float)
        rt = np.asarray(rho(t), float)
        fb = np.asarray(sys.mode_field(schedule.sequence[i], xt), float)
        fa = np.asarray(sys.mode_field(schedule.sequence[i + 1], xt), float)
        out[i] = rt @ (fb - fa)
    return out


class InsertionGradientField:
    """The N-channel insertion gradient over a schedule's partition.

    Channel ``a`` at time ``t`` is ``rho(t)^T (f_a(x(t)) - f_active(x(t)))``;
    the active channel is identically zero.  Values and slopes are smooth
    inside each segment and may jump at switching times, so every query
    names the segment whose branch it reads, one per point; a minimum
    carries its own.

    The field is plain data, built once: construction samples every
    segment at the times ``grids[seg]`` that its builder gives and solves
    the interior minima of all segments together (:meth:`_scan`), and
    later queries only read these attributes:

    ``grids[seg]``, ``grid_values[seg]``
        Segment ``seg``'s sample times, increasing from its start to its
        end, and all N channels there, shape (len, N).
    ``samples[seg]``
        ``(ts, D)``: the grid and the segment's interior minima, sorted
        and without repeats, and all N channels there; the max rule's
        samples.
    ``lowest[seg]``
        ``(dmin, modes, tie_runs)``: at each of those samples the lowest
        channel value and its mode, and the first index of every three
        samples in a row whose two lowest values tie (within
        ``1e-14 * (1 + |dmin|)``).  None depends on the step size, so the
        max rule's trials only compare ``dmin`` with their threshold.
    ``minima``
        Per-channel local minima of the whole field, one list of dicts
        with keys ``value, time, mode, segment, boundary``; ``boundary``
        is "left"/"right" for the one-sided value at a segment's end or
        start and None for an interior minimum.
    ``norm_inf``
        Max |d| over all channels on the grids.

    ``channels_at(segs, ts, modes=None, dx=0, bound=False)``, the one
    callable the field is built from, evaluates at each time ``ts[i]``
    the branch of segment ``segs[i]`` (``segs`` one index per point, or
    one index for every point): the values (``dx = 0``) or slopes (``dx
    = 1``) of all N channels, or with a sequence of ``modes`` only those
    columns, in that order, as a (len(ts), N) or (len(ts), len(modes))
    matrix ``F``, and a bound ``E`` on their rounding error of the same
    shape.  A point's row does not depend on the other points of the
    read.  ``E`` is zero unless ``bound`` is true, and zero too where the
    builder counts its values exact; ``F`` does not depend on ``bound``.
    The root solves settle a root whose value is within ``E``.
    ``values_in_segment(segs, ts, channels=None)`` and
    ``slopes_in_segment(segs, ts, channels=None)`` return ``F`` alone.

    Instances are built by :func:`insertion_gradient` from a trajectory
    and adjoint, sampled on the state curve's knots, or by
    :meth:`from_callables` from explicit channel functions (synthetic
    fields for studies and tests), sampled on the uniform part of the
    knots a state curve would have (:func:`.integrate.knot_grid`).
    """

    def __init__(self, schedule, channels_at, grids):
        self.schedule = schedule
        self.num_modes = schedule.num_modes
        self.horizon = schedule.horizon
        self.channels_at = channels_at
        self.grids = grids
        sizes = [len(ts) for ts in grids]
        V = self.values_in_segment(np.repeat(np.arange(len(grids)), sizes),
                                   np.concatenate(grids))
        self.grid_values = np.split(V, np.cumsum(sizes)[:-1])
        self._scan()
        self.lowest = [_lowest(D) for _, D in self.samples]
        self.norm_inf = float(np.abs(V).max())

    @classmethod
    def from_callables(cls, schedule, channels, channel_slopes=None):
        """Build a synthetic field from N scalar functions of time.

        ``channels[a-1](t)`` gives channel ``a``; functions must be smooth
        inside each schedule segment, which is sampled on
        :func:`.integrate.knot_grid`, and act on arrays elementwise.  At a
        switch a function of absolute time already gives the next
        segment's branch, so a segment ending there reads its own end at
        the float just below the switch.  Slopes default to a central
        finite difference with step up to ``h = 1e-7 * horizon`` whose
        stencil stays strictly inside the segment.  The values count as
        exact: the rounding bound is zero.
        """
        if len(channels) != schedule.num_modes:
            raise ValueError(
                f"{len(channels)} channel functions for "
                f"{schedule.num_modes} modes"
            )
        # each segment's own branch ends below its switch
        caps = np.append(np.nextafter(schedule.times, -np.inf), np.inf)
        bounds = np.array(schedule.boundaries)
        h = 1e-7 * schedule.horizon

        def columns(fns, ts, cap, modes):
            ts = np.minimum(ts, cap)
            if modes is None:
                modes = range(1, len(fns) + 1)
            return np.column_stack([np.broadcast_to(fns[a - 1](ts), ts.shape)
                                    for a in modes])

        def channels_at(segs, ts, modes=None, dx=0, bound=False):
            ts = np.atleast_1d(np.asarray(ts, float))
            segs = np.broadcast_to(segs, ts.shape)
            cap = caps[segs]
            if not dx or channel_slopes is not None:
                F = columns(channel_slopes if dx else channels, ts, cap,
                            modes)
            else:
                a, b = bounds[segs], bounds[segs + 1]
                hs = np.minimum(h, (b - a) / 4.0)  # stencil in [a+hs, b-hs]
                tc = np.clip(ts, a + 2.0 * hs, b - 2.0 * hs)
                F = (columns(channels, tc + hs, cap, modes)
                     - columns(channels, tc - hs, cap, modes)) \
                    / (2.0 * hs)[:, None]
            return F, np.zeros_like(F)

        grids = [knot_grid(*schedule.segment_bounds(seg), schedule.horizon)
                 for seg in range(schedule.n_segments)]
        return cls(schedule, channels_at, grids)

    def values_in_segment(self, segs, ts, channels=None):
        """Channel values at ``ts``, each on its segment's branch
        (``channels_at``)."""
        return self.channels_at(segs, ts, channels)[0]

    def slopes_in_segment(self, segs, ts, channels=None):
        """Channel slopes at ``ts``, each on its segment's branch
        (``channels_at``)."""
        return self.channels_at(segs, ts, channels, 1)[0]

    def value_channel(self, a, t, side="right"):
        """Channel ``a`` at scalar time ``t``, from the segment that
        ``side`` picks at a switch (the schedule's own rule)."""
        seg = self.schedule.segment_of(float(t), side)
        return float(self.values_in_segment(seg, np.array([float(t)]),
                                            (a,))[0, 0])

    def slopes_and_curvatures(self, segs, ts, modes):
        """Slope and second time-derivative of channel ``modes[i]`` at
        ``ts[i]`` on segment ``segs[i]``'s branch, for every ``i``, as two
        arrays, from one ``channels_at`` call.

        The curvature is a central difference of slopes with step ``1e-5
        *`` (segment length), the stencil clamped inside the segment so
        boundary queries become one-sided automatically.
        """
        segs = np.asarray(segs, int)
        ts = np.asarray(ts, float)
        b = np.array(self.schedule.boundaries)
        lo, hi = b[segs], b[segs + 1]
        h = 1e-5 * (hi - lo)
        tc = np.minimum(np.maximum(ts, lo + h), hi - h)
        cols = sorted(set(modes))
        k = len(ts)
        S = self.slopes_in_segment(np.tile(segs, 3),
                                   np.concatenate([ts, tc - h, tc + h]),
                                   cols)
        at = [cols.index(a) for a in modes]
        rows = np.arange(k)
        return S[rows, at], (S[rows + 2 * k, at] - S[rows + k, at]) / (2.0 * h)

    def _scan(self):
        """Set every segment's samples and the field's minima from the
        grid values.

        Each non-active channel contributes its two one-sided end values
        and its interior minima.  An interior minimum is the root of the
        channel's slope where it turns from negative to nonnegative.
        Brackets are the two cells around each grid node no higher than the
        node before it and lower than the one after it, plus the first and
        last cell, where a minimum hides from the node test; one batched
        slope call at the bracket ends of all segments keeps those whose
        slope changes sign.  Of two equal neighbouring nodes around a
        minimum only the later one passes, so one well gives one bracket;
        a segment of one cell brackets it once.  The field's minima, in
        all segments, are solved together by :func:`_solve_roots` to
        ``ROOT_TOL * horizon``, each estimated from the slope of the cubic
        Hermite through its bracket ends' values and slopes and refined
        by batched slope calls, and one call reads the values at all of
        them.
        """
        sched = self.schedule
        found, brackets = [], []
        for seg, (ts, vals) in enumerate(zip(self.grids, self.grid_values)):
            last = len(ts) - 1
            edges = []
            for a in range(1, self.num_modes + 1):
                if a == sched.sequence[seg]:
                    continue
                v = vals[:, a - 1]
                edges.append(dict(value=float(v[0]), time=float(ts[0]),
                                  mode=a, segment=seg, boundary="right"))
                edges.append(dict(value=float(v[-1]), time=float(ts[-1]),
                                  mode=a, segment=seg, boundary="left"))
                nodes = np.flatnonzero(
                    (v[1:-1] <= v[:-2]) & (v[1:-1] < v[2:])) + 1
                brackets.extend((seg, a, j - 1, j + 1) for j in nodes)
                if 1 not in nodes:
                    brackets.append((seg, a, 0, 1))
                if last > 1 and last - 1 not in nodes:
                    brackets.append((seg, a, last - 1, last))
            found.append(edges)
        # the slopes at every bracket end, all segments in one read
        ends = sorted({(seg, i) for seg, _, lo, hi in brackets
                       for i in (lo, hi)})
        row = {e: k for k, e in enumerate(ends)}
        if ends:
            S = self.slopes_in_segment(
                np.array([seg for seg, _ in ends]),
                np.array([self.grids[seg][i] for seg, i in ends]))
        wells, segs, modes = [], [], []
        for seg, a, lo, hi in brackets:
            s_lo = float(S[row[seg, lo], a - 1])
            s_hi = float(S[row[seg, hi], a - 1])
            if not s_lo < 0.0 <= s_hi:
                continue
            ts, vals = self.grids[seg], self.grid_values[seg]
            t_lo, t_hi = float(ts[lo]), float(ts[hi])
            wells.append((t_lo, t_hi, s_lo, s_hi, _slope_model(
                t_lo, t_hi, float(vals[lo, a - 1]), float(vals[hi, a - 1]),
                s_lo, s_hi)))
            segs.append(seg)
            modes.append(a)

        def evaluate(ks, pts, bound):
            cols = sorted({modes[k] for k in ks})
            F, E = self.channels_at(np.array([segs[k] for k in ks]),
                                    np.array(pts), cols, 1, bound)
            at = (np.arange(len(ks)), [cols.index(modes[k]) for k in ks])
            return F[at].tolist(), E[at].tolist()

        te = np.array(_solve_roots(wells, evaluate, ROOT_TOL * self.horizon))
        segs = np.array(segs, int)
        if wells:
            V = self.values_in_segment(segs, te)
        self.samples, self.minima = [], []
        for seg, (ts, vals) in enumerate(zip(self.grids, self.grid_values)):
            self.minima += found[seg]
            own = np.flatnonzero(segs == seg)
            if not own.size:
                self.samples.append((ts, vals))
                continue
            self.minima += [dict(value=float(V[k, modes[k] - 1]),
                                 time=float(te[k]), mode=modes[k],
                                 segment=seg, boundary=None) for k in own]
            # a minimum on a grid time keeps the grid's row
            ts, first = np.unique(np.concatenate([ts, te[own]]),
                                  return_index=True)
            self.samples.append((ts, np.vstack([vals, V[own]])[first]))


def _lowest(D):
    """``(dmin, modes, tie_runs)`` of :attr:`InsertionGradientField.lowest`
    from the channel values ``D`` at a segment's samples; a single
    channel has no ties."""
    dmin = D.min(axis=1)
    if D.shape[1] < 2:
        return dmin, D.argmin(axis=1) + 1, np.array([], int)
    D2 = np.partition(D, 1, axis=1)
    tied = D2[:, 1] - D2[:, 0] <= 1e-14 * (1.0 + np.abs(dmin))
    return (dmin, D.argmin(axis=1) + 1,
            np.flatnonzero(tied[:-2] & tied[1:-1] & tied[2:]))


def _solve_roots(brackets, evaluate, tol):
    """Roots of a group of functions, each in its own bracket, to ``tol``.

    ``brackets[k]`` is ``(lo, hi, f_lo, f_hi, model)``: function ``k``'s
    known values at its bracket ends, of opposite signs (a zero end is the
    root), and ``model(t) -> (value, slope)``, a model of the function on
    the bracket that takes those end values.  ``evaluate(ks, ts, bound)``
    gives, from one batched field call, function ``ks[i]`` at time
    ``ts[i]`` and a bound on its rounding error, as two lists of floats;
    the bound may be zero when ``bound`` is false, which it is only in
    round 1: no root on the benchmark's three workloads lies within the
    field's resolution at its model root (0 of 182 / 369 / 137 per
    solve), so round 1 would settle none by the bound.  ``evaluate`` is
    the only field access.

    Each root starts at the model's root and is refined in rounds, one
    ``evaluate`` call for all roots still open; a root's rounds do not
    depend on the other roots.  A round evaluates each at ``e - tol`` and
    ``e + tol`` (clamped to the bracket, where the known end values stand
    in) around its estimate ``e``.  The root is ``e`` when the two values
    differ in sign (or one is zero), as Brent's method would stop, or
    when either is within its rounding bound, where the sign is noise.
    Otherwise the two values lie on one side of the root: the bracket
    narrows to the other, and in the first :data:`ROOT_ROUNDS` rounds
    ``e`` takes a Newton step from their mean.  Its slope is the model's
    in the first round and then the secant through the last two
    estimates, which lie far apart next to ``tol``; the secant over ``2
    tol`` would be noise.  After those rounds ``e`` takes an Illinois
    regula-falsi step: the root of the line through the bracket's two end
    values, where an end the bracket kept in two rounds in a row counts
    at half its value, once more for each further round.  When the slope
    points away from the root or a step leaves the bracket, when the
    bracket has not halved over the last two rounds, or when one more
    round that did not narrow it would leave too few rounds to bisect it
    within the bound below, ``e`` is the narrowed bracket's midpoint
    instead: bisection, which at least halves the bracket.  A root whose
    bracket is at most ``2 tol`` wide is its midpoint, so a bracket of
    width ``w`` takes at most ``ROOT_ROUNDS + ceil(log2(w / (2 tol)))``
    rounds.  All bookkeeping is in Python floats; only the field calls
    are batched.
    """
    roots = [None] * len(brackets)
    live = []
    for k, (lo, hi, f_lo, f_hi, model) in enumerate(brackets):
        if f_lo == 0.0:
            roots[k] = lo
        elif f_hi == 0.0:
            roots[k] = hi
        else:
            # the Illinois end values and the end that moved last, the
            # widths after the last two rounds, and the round bound
            live.append((k, lo, hi, f_lo, f_hi,
                         _model_root(model, lo, hi, f_lo, tol), None,
                         (f_lo, f_hi, None), (hi - lo, hi - lo),
                         ROOT_ROUNDS + _halvings(hi - lo, tol)))
    rounds = 0
    while True:
        todo = []
        for r in live:
            if r[2] - r[1] <= 2.0 * tol:
                roots[r[0]] = 0.5 * (r[1] + r[2])
            else:
                todo.append(r)
        if not todo:
            return roots
        pts = []
        for r in todo:
            lo, hi, e = r[1], r[2], r[5]
            pts += (max(e - tol, lo), min(e + tol, hi))
        f, err = evaluate([r[0] for r in todo for _ in (0, 1)], pts,
                          rounds > 0)
        rounds += 1
        live = []
        for i, (k, lo, hi, f_lo, f_hi, e, last, (g_lo, g_hi, moved),
                widths, cap) in enumerate(todo):
            t1, t2 = pts[2 * i], pts[2 * i + 1]
            f1, e1 = (f_lo, 0.0) if t1 == lo else (f[2 * i], err[2 * i])
            f2, e2 = (f_hi, 0.0) if t2 == hi else (f[2 * i + 1],
                                                  err[2 * i + 1])
            if f1 == 0.0 or f2 == 0.0 or (f1 < 0.0) != (f2 < 0.0) \
                    or abs(f1) <= e1 or abs(f2) <= e2:
                roots[k] = e
                continue
            neg = f_lo < 0.0
            if (f2 < 0.0) == neg:
                lo, f_lo = t2, f2
                g_lo = f2
                if moved == "lo":
                    g_hi *= 0.5
                moved = "lo"
            else:
                hi, f_hi = t1, f1
                g_hi = f1
                if moved == "hi":
                    g_lo *= 0.5
                moved = "hi"
            fe = 0.5 * (f1 + f2)
            nxt = 0.5 * (lo + hi)
            if rounds < ROOT_ROUNDS:
                slope = brackets[k][4](e)[1] if last is None \
                    else (fe - last[1]) / (e - last[0])
                if slope != 0.0 and (slope > 0.0) == neg:
                    step = e - fe / slope
                    if lo < step < hi:
                        nxt = step
            elif hi - lo <= 0.5 * widths[0] \
                    and rounds + 1 + _halvings(hi - lo, tol) <= cap:
                step = lo - g_lo * (hi - lo) / (g_hi - g_lo)
                if lo < step < hi:
                    nxt = step
            live.append((k, lo, hi, f_lo, f_hi, nxt, (e, fe),
                         (g_lo, g_hi, moved), (widths[1], hi - lo), cap))


def _halvings(width, tol):
    """Bisection rounds that narrow a bracket of ``width`` to ``2 tol``."""
    return max(0, math.ceil(math.log2(width / (2.0 * tol))))


def _model_root(model, lo, hi, f_lo, tol):
    """Root of ``model`` in ``[lo, hi]``, where it takes the sign of
    ``f_lo`` at ``lo`` and the other at ``hi``: Newton steps on the model,
    bisecting where one leaves the shrinking bracket, until a step is
    below ``tol``."""
    neg = f_lo < 0.0
    t = 0.5 * (lo + hi)
    for _ in range(60):
        p, dp = model(t)
        if p == 0.0:
            return t
        if (p < 0.0) == neg:
            lo = t
        else:
            hi = t
        step = p / dp if dp != 0.0 else math.inf
        nxt = t - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - t) <= tol:
            return nxt
        t = nxt
    return t


def _slope_model(t0, t1, v0, v1, s0, s1):
    """``model(t) -> (slope, its derivative)`` of the cubic Hermite
    through the values ``v0, v1`` and slopes ``s0, s1`` at ``t0 < t1``."""
    h = t1 - t0
    c = 6.0 * ((v1 - v0) / h - 0.5 * (s0 + s1))

    def model(t):
        u = (t - t0) / h
        return (s0 + (s1 - s0 + c) * u - c * u * u,
                (s1 - s0 + c * (1.0 - 2.0 * u)) / h)
    return model


def _interpolant(xs, ys):
    """``model(t) -> (value, slope)`` of the polynomial through the
    points ``(xs[i], ys[i])``, distinct ``xs``, in Newton's form."""
    c = list(ys)
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])

    def model(t):
        p, dp = c[-1], 0.0
        for i in range(n - 2, -1, -1):
            dp = dp * (t - xs[i]) + p
            p = p * (t - xs[i]) + c[i]
        return p, dp
    return model


@dataclass
class OptimalityResult:
    """The optimality function and its minimizer.

    ``theta`` is the most negative insertion-gradient value over all modes
    and times (0 when no insertion can reduce the cost).  ``mode``/``time``
    locate the minimizer; ties go to the earliest time, then the lowest
    mode index.  ``boundary`` is "left"/"right" when the minimum is a
    one-sided segment-end value, None when interior; ``stationary`` marks
    an interior minimum, which is a root of the channel's slope.
    """

    theta: float
    mode: int | None
    time: float | None
    boundary: str | None
    stationary: bool


def insertion_gradient(sys, schedule, x, rho):
    """Build the insertion-gradient field from trajectory and adjoint.

    The field samples every segment at the state curve's knots, where
    ``x`` and ``rho`` (which shares them) return their exact knot values,
    and solves its minima here, so this call does the model evaluations;
    :func:`optimality` only reads them.  ``x`` and ``rho`` are read as one
    curve of their columns (:meth:`.integrate.SampledCurve.joined`): each
    field read, whatever segments its points are in, is one pass of the
    curve's kernel for both, slopes included
    (:meth:`.integrate.SampledCurve.read`), and a read at knots, as the
    samples are, reads their knot arrays.  Each read makes one
    ``mode_field`` call per mode it needs, and for slopes one
    ``mode_jacobian`` call per mode, on a stack of its points.

    Parameters
    ----------
    sys : SwitchedSystem
    schedule : ModeSchedule
    x, rho : SampledCurve
        Forward trajectory and backward adjoint on ``schedule``'s
        partition; ``ValueError`` when ``x``'s segment boundaries are not
        the schedule's (within ``1e-12`` of the horizon).

    Returns
    -------
    InsertionGradientField
    """
    _check_partition(x, schedule)
    N, n = sys.num_modes, sys.dim
    xr = x.joined(rho)
    sequence = np.array(schedule.sequence)

    def channels_at(segs, ts, modes=None, dx=0, bound=False):
        """Values (``dx = 0``) or slopes (``dx = 1``) of the channels of
        ``modes`` (all N by default), each point on its segment's branch,
        and their rounding bound, zero unless ``bound``: ``n eps``, ``n``
        the state dimension, times the sum of each product's factor
        sizes, ``|rho_i| (|f_a,i| + |f_active,i|)`` for a value, and for
        a slope the same with ``rhodot`` plus ``|rho|^T (|J_a| +
        |J_active|) |xdot|``.  The sizes of the factors, not of the
        products, bound it: on the power models the mode fields cancel to
        differences far below their terms, and bounds built from the
        products fell up to 4e6-fold short of the measured noise.

        Every mode of ``modes`` and every active mode of a point is
        evaluated on all the points, one model call each: a call on a
        stack of two or more rows gives each row the bits it has in any
        other such stack, so a point's row does not depend on the read's
        other points."""
        ts = np.atleast_1d(np.asarray(ts, float))
        v, *vd = xr.read(segs, ts, (0, 1) if dx else (0,))
        xs, rs = v[:, :n], v[:, n:]
        if dx:
            xd, rd = vd[0][:, :n], vd[0][:, n:]
        if modes is None:
            modes = range(1, N + 1)
        out = np.zeros((len(ts), len(modes)))
        err = np.zeros_like(out)
        active = np.atleast_1d(sequence.take(segs))
        acts = set(active.tolist())
        # a column is zero on its mode's own points: skipped when that is
        # every point, else zeroed on each active mode's mask
        own = {a: active == a for a in acts} if len(acts) > 1 else {}
        cols = [(col, a) for col, a in enumerate(modes)
                if own or a not in acts]
        if not cols:
            return out, err
        fs = {a: sys.mode_field(a, xs) for a in sorted({*modes, *acts})}
        if dx:
            js = {a: sys.mode_jacobian(a, xs) for a in fs}
        if own:
            fm = np.empty_like(xs)
            Jm = np.empty(xs.shape + (n,)) if dx else None
            for a, on in own.items():
                fm[on] = fs[a][on]
                if dx:
                    Jm[on] = js[a][on]
        else:
            fm = fs[active[0]]
            Jm = js[active[0]] if dx else None
        if bound:
            # the active mode's share of every channel's bound
            ar = np.abs(rd if dx else rs)
            base = np.einsum("ij,ij->i", ar, np.abs(fm))
            if dx:
                ars = np.abs(rs)[:, None, :]
                axd = np.abs(xd)[:, :, None]
                base += (ars @ (np.abs(Jm) @ axd))[:, 0, 0]
        for col, a in cols:
            fa = fs[a]
            if dx:
                Ja = js[a]
                term1 = np.einsum("ij,ij->i", rd, fa - fm)
                # rho^T (J_a - J_active) xdot per point, as stacked
                # matmuls: each point keeps the BLAS arithmetic of the
                # unbatched product
                dJxd = (Ja - Jm) @ xd[:, :, None]
                term2 = (rs[:, None, :] @ dJxd)[:, 0, 0]
                out[:, col] = term1 + term2
            else:
                out[:, col] = np.einsum("ij,ij->i", rs, fa - fm)
            if bound:
                size = base + np.einsum("ij,ij->i", ar, np.abs(fa))
                if dx:
                    size += (ars @ (np.abs(Ja) @ axd))[:, 0, 0]
                err[:, col] = (n * _EPS) * size
            if a in own:
                out[own[a], col] = err[own[a], col] = 0.0
        return out, err

    return InsertionGradientField(schedule, channels_at,
                                  [ts for ts, _, _ in x.knots])


def optimality(field):
    """Locate ``theta``, the global minimum of the insertion gradient.

    Ties (within ``1e-12`` of the minimum, relatively) resolve to the
    earliest time and then the lowest mode index.  When every channel is
    nonnegative the schedule already satisfies the optimality condition
    and the result carries ``theta = 0`` with no minimizer.  The
    candidates are ``field.minima``; no channel is evaluated.
    """
    cands = field.minima
    vmin = min((c["value"] for c in cands), default=0.0)
    if vmin >= 0.0:
        return OptimalityResult(0.0, None, None, None, False)
    tie = 1e-12 * (1.0 + abs(vmin))
    best = min((c for c in cands if c["value"] <= vmin + tie),
               key=lambda c: (c["time"], c["mode"]))
    return OptimalityResult(
        theta=float(best["value"]), mode=best["mode"], time=best["time"],
        boundary=best["boundary"], stationary=best["boundary"] is None,
    )
