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
own knots (the adjoint's knots too), and solves the segment's interior
minima; :func:`optimality`, the step events of :mod:`.linesearch` and the
max rule of :mod:`.projection` read those results.  Every query names the
segment whose branch it reads, so a value at a switching time is never
ambiguous.

The field's interior minima, and the max rule's threshold crossings in
:mod:`.projection`, are found by one mechanism: a bracketed root solve
(:func:`_bracketed_root`, Brent's method) on the true field, with the
bracket taken from those samples.  A minimum is the root of the
channel's analytic slope, so it is exact to the root tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .integrate import knot_grid

#: root tolerance of minima and threshold crossings, relative to the horizon
ROOT_TOL = 1e-12


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
    names the segment whose branch it reads; a minimum carries its own.

    The field is plain data, built once: construction samples every
    segment at the times ``grids[seg]`` that its builder gives and solves
    its interior minima (:meth:`_scan`), and later queries only read these
    attributes:

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

    ``values_in_segment(seg, ts, channels=None)`` and
    ``slopes_in_segment(seg, ts, channels=None)`` evaluate segment
    ``seg``'s branch at times ``ts``: a (len(ts), N) matrix, or with a
    sequence of modes ``channels`` only those columns, in that order.

    Instances are built by :func:`insertion_gradient` from a trajectory
    and adjoint, sampled on the state curve's knots, or by
    :meth:`from_callables` from explicit channel functions (synthetic
    fields for studies and tests), sampled on the uniform part of the
    knots a state curve would have (:func:`.integrate.knot_grid`).
    """

    def __init__(self, schedule, values_in_segment, slopes_in_segment, grids):
        self.schedule = schedule
        self.num_modes = schedule.num_modes
        self.horizon = schedule.horizon
        self.values_in_segment = values_in_segment
        self.slopes_in_segment = slopes_in_segment
        self.grids = grids
        self.grid_values, self.samples, self.minima = [], [], []
        for seg in range(schedule.n_segments):
            self._scan(seg)
        self.lowest = [_lowest(D) for _, D in self.samples]
        self.norm_inf = max(float(np.abs(v).max()) for v in self.grid_values)

    @classmethod
    def from_callables(cls, schedule, channels, channel_slopes=None):
        """Build a synthetic field from N scalar functions of time.

        ``channels[a-1](t)`` gives channel ``a``; functions must be smooth
        inside each schedule segment, which is sampled on
        :func:`.integrate.knot_grid`.  At a switch a function of absolute
        time already gives the next segment's branch, so a segment ending
        there reads its own end at the float just below the switch.  Slopes
        default to a central finite difference with step up to
        ``h = 1e-7 * horizon`` whose stencil stays strictly inside the
        segment.
        """
        if len(channels) != schedule.num_modes:
            raise ValueError(
                f"{len(channels)} channel functions for "
                f"{schedule.num_modes} modes"
            )
        switches = schedule.times
        value_fns = channels

        def columns(fns, seg, ts, modes):
            ts = np.atleast_1d(np.asarray(ts, float))
            if seg < len(switches):  # own branch, below the switch
                ts = np.minimum(ts, np.nextafter(switches[seg], -np.inf))
            if modes is None:
                modes = range(1, len(fns) + 1)
            return np.column_stack([np.broadcast_to(fns[a - 1](ts), ts.shape)
                                    for a in modes])

        def values_in_segment(seg, ts, channels=None):
            return columns(value_fns, seg, ts, channels)

        if channel_slopes is not None:
            def slopes_in_segment(seg, ts, channels=None):
                return columns(channel_slopes, seg, ts, channels)
        else:
            h = 1e-7 * schedule.horizon

            def slopes_in_segment(seg, ts, channels=None):
                a, b = schedule.segment_bounds(seg)
                hs = min(h, (b - a) / 4.0)  # stencil in [a + hs, b - hs]
                tc = np.clip(np.atleast_1d(np.asarray(ts, float)),
                             a + 2.0 * hs, b - 2.0 * hs)
                return (columns(value_fns, seg, tc + hs, channels)
                        - columns(value_fns, seg, tc - hs, channels)) \
                    / (2.0 * hs)

        grids = [knot_grid(*schedule.segment_bounds(seg), schedule.horizon)
                 for seg in range(schedule.n_segments)]
        return cls(schedule, values_in_segment, slopes_in_segment, grids)

    def value_channel(self, a, t, side="right"):
        """Channel ``a`` at scalar time ``t``, from the segment that
        ``side`` picks at a switch (the schedule's own rule)."""
        seg = self.schedule.segment_of(float(t), side)
        return float(self.values_in_segment(seg, np.array([float(t)]),
                                            (a,))[0, 0])

    def curvature(self, seg, a, t):
        """Second time-derivative of channel ``a`` at ``t`` on segment
        ``seg``'s branch, by differencing slopes.

        Central difference with step ``1e-5 *`` (segment length), the
        evaluation stencil clamped inside the segment so boundary queries
        become one-sided automatically.
        """
        lo, hi = self.schedule.segment_bounds(seg)
        h = 1e-5 * (hi - lo)
        tc = min(max(float(t), lo + h), hi - h)
        sl = self.slopes_in_segment(seg, np.array([tc - h, tc + h]), (a,))
        return float((sl[1, 0] - sl[0, 0]) / (2.0 * h))

    def _scan(self, seg):
        """Sample segment ``seg`` at ``grids[seg]`` and append its values,
        samples and minima.

        Each non-active channel contributes its two one-sided end values
        and its interior minima.  An interior minimum is the root of the
        channel's slope where it turns from negative to nonnegative, solved
        by :func:`_bracketed_root` to ``ROOT_TOL * horizon``.  Brackets are
        the two cells around each grid node no higher than the node before
        it and lower than the one after it, plus the first and last cell,
        where a minimum hides from the node test; one batched slope call at
        the bracket ends keeps those whose slope changes sign.  Of two equal
        neighbouring nodes around a minimum only the later one passes, so
        one well gives one bracket; a segment of one cell brackets it once.
        """
        ts = self.grids[seg]
        vals = self.values_in_segment(seg, ts)
        self.grid_values.append(vals)
        last = len(ts) - 1
        active = self.schedule.sequence[seg]
        found = self.minima
        brackets = []
        for a in range(1, self.num_modes + 1):
            if a == active:
                continue
            v = vals[:, a - 1]
            found.append(dict(value=float(v[0]), time=float(ts[0]),
                              mode=a, segment=seg, boundary="right"))
            found.append(dict(value=float(v[-1]), time=float(ts[-1]),
                              mode=a, segment=seg, boundary="left"))
            nodes = np.flatnonzero(
                (v[1:-1] <= v[:-2]) & (v[1:-1] < v[2:])) + 1
            brackets.extend((a, j - 1, j + 1) for j in nodes)
            if 1 not in nodes:
                brackets.append((a, 0, 1))
            if last > 1 and last - 1 not in nodes:
                brackets.append((a, last - 1, last))
        roots = []
        if brackets:
            ends = np.unique([i for _, lo, hi in brackets for i in (lo, hi)])
            S = self.slopes_in_segment(seg, ts[ends])
            row = {int(i): k for k, i in enumerate(ends)}
            xtol = ROOT_TOL * self.horizon
            for a, lo, hi in brackets:
                s_lo, s_hi = S[row[lo], a - 1], S[row[hi], a - 1]
                if not s_lo < 0.0 <= s_hi:
                    continue
                slope = lambda t, a=a: float(self.slopes_in_segment(
                    seg, np.array([t]), (a,))[0, 0])
                roots.append((_bracketed_root(slope, ts[lo], ts[hi],
                                             s_lo, s_hi, xtol), a))
        if not roots:
            self.samples.append((ts, vals))
            return
        te = np.array([t for t, _ in roots])
        V = self.values_in_segment(seg, te)
        found.extend(dict(value=float(V[k, a - 1]), time=t, mode=a,
                          segment=seg, boundary=None)
                     for k, (t, a) in enumerate(roots))
        # a minimum on a grid time keeps the grid's row
        ts, first = np.unique(np.concatenate([ts, te]), return_index=True)
        self.samples.append((ts, np.vstack([vals, V])[first]))


def _lowest(D):
    """``(dmin, modes, tie_runs)`` of :attr:`InsertionGradientField.lowest`
    from the channel values ``D`` at a segment's samples."""
    dmin = D.min(axis=1)
    D2 = np.partition(D, 1, axis=1)
    tied = D2[:, 1] - D2[:, 0] <= 1e-14 * (1.0 + np.abs(dmin))
    return (dmin, D.argmin(axis=1) + 1,
            np.flatnonzero(tied[:-2] & tied[1:-1] & tied[2:]))


def _bracketed_root(f, lo, hi, f_lo, f_hi, xtol):
    """Root of ``f`` in ``[lo, hi]`` from end values of opposite signs.

    The known end values stand in for ``f(lo)``/``f(hi)``: a batched and a
    single-point evaluation of the field may differ in the last bit, and a
    re-evaluated end could then lose the sign change that chose the
    bracket.  A zero end value is the root.
    """
    if f_lo == 0.0:
        return float(lo)
    if f_hi == 0.0:
        return float(hi)
    return brentq(lambda t: f_lo if t == lo else f_hi if t == hi else f(t),
                  lo, hi, xtol=xtol)


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
    :func:`optimality` only reads them.

    Parameters
    ----------
    sys : SwitchedSystem
    schedule : ModeSchedule
    x, rho : SampledCurve
        Forward trajectory and backward adjoint on the same partition.

    Returns
    -------
    InsertionGradientField
    """
    N = sys.num_modes

    def values_in_segment(seg, ts, channels=None):
        ts = np.atleast_1d(np.asarray(ts, float))
        xs = x(ts, seg=seg)
        rs = rho(ts, seg=seg)
        active = schedule.sequence[seg]
        modes = range(1, N + 1) if channels is None else channels
        fm = sys.mode_field(active, xs)
        out = np.empty((len(ts), len(modes)))
        for col, a in enumerate(modes):
            if a == active:
                out[:, col] = 0.0
            else:
                out[:, col] = np.einsum(
                    "ij,ij->i", rs, sys.mode_field(a, xs) - fm)
        return out

    def slopes_in_segment(seg, ts, channels=None):
        ts = np.atleast_1d(np.asarray(ts, float))
        xs = x(ts, seg=seg)
        rs = rho(ts, seg=seg)
        xd = x.derivative(ts, seg=seg)
        rd = rho.derivative(ts, seg=seg)
        active = schedule.sequence[seg]
        modes = range(1, N + 1) if channels is None else channels
        out = np.zeros((len(ts), len(modes)))
        if any(a != active for a in modes):
            fm = sys.mode_field(active, xs)
            Jm = sys.mode_jacobian(active, xs)
        for col, a in enumerate(modes):
            if a == active:
                continue
            fa = sys.mode_field(a, xs)
            term1 = np.einsum("ij,ij->i", rd, fa - fm)
            # rho^T (J_a - J_active) xdot per point, as stacked matmuls:
            # each point keeps the BLAS arithmetic of the unbatched product
            dJxd = (sys.mode_jacobian(a, xs) - Jm) @ xd[:, :, None]
            term2 = (rs[:, None, :] @ dJxd)[:, 0, 0]
            out[:, col] = term1 + term2
        return out

    return InsertionGradientField(schedule, values_in_segment,
                                  slopes_in_segment,
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
