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

The field's interior minima, and the max rule's threshold crossings in
:mod:`.projection`, are found by one mechanism: a bracketed root solve
(:func:`_bracketed_root`, Brent's method) on the true field, with the
bracket taken from a fixed sampling grid.  A minimum is the root of the
channel's analytic slope, so it is exact to the root tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

#: default minimum-search sampling: grid step = horizon / GRID_DENOM,
#: never fewer than GRID_MIN_PTS points per segment
GRID_DENOM = 2048
GRID_MIN_PTS = 64
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
    takes a ``side`` ("left"/"right") that picks the one-sided limit; the
    default is the right limit, matching the schedule's right-continuity.

    Instances are built by :func:`insertion_gradient` from a trajectory
    and adjoint, or by :meth:`from_callables` from explicit channel
    functions (synthetic fields for studies and tests).
    """

    def __init__(self, schedule, values_fn, slopes_fn):
        self.schedule = schedule
        self.num_modes = schedule.num_modes
        self.horizon = schedule.horizon
        # (seg, ts, channels=None) -> (len(ts), N), or the listed
        # channels' (len(ts), len(channels))
        self._values_fn = values_fn
        # (seg, ts, channel=None) -> (len(ts), N), or channel a's (len(ts),)
        self._slopes_fn = slopes_fn
        self._grids = {}
        self._grid_vals = {}
        self._samples = {}
        self._minima = None
        self._norm_inf = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_callables(cls, schedule, channels, channel_slopes=None):
        """Build a synthetic field from N scalar functions of time.

        ``channels[a-1](t)`` gives channel ``a``; functions must be smooth
        inside each schedule segment.  At a switch a function of absolute
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

        def values_fn(seg, ts, channels=None):
            return columns(value_fns, seg, ts, channels)

        if channel_slopes is not None:
            def slope_columns(seg, ts, modes):
                return columns(channel_slopes, seg, ts, modes)
        else:
            h = 1e-7 * schedule.horizon

            def slope_columns(seg, ts, modes):
                a, b = schedule.segment_bounds(seg)
                hs = min(h, (b - a) / 4.0)  # stencil in [a + hs, b - hs]
                tc = np.clip(np.atleast_1d(np.asarray(ts, float)),
                             a + 2.0 * hs, b - 2.0 * hs)
                return (columns(value_fns, seg, tc + hs, modes)
                        - columns(value_fns, seg, tc - hs, modes)) \
                    / (2.0 * hs)

        def slopes_fn(seg, ts, channel=None):
            if channel is None:
                return slope_columns(seg, ts, None)
            return slope_columns(seg, ts, (channel,))[:, 0]

        return cls(schedule, values_fn, slopes_fn)

    # -- evaluation ---------------------------------------------------

    def value(self, t, side="right"):
        """All N channels at scalar time ``t``; shape (N,)."""
        seg = self.schedule.segment_of(float(t), side)
        return self._values_fn(seg, np.array([float(t)]))[0]

    def value_channel(self, a, t, side="right"):
        return float(self.value(t, side)[a - 1])

    def slope(self, a, t, side="right"):
        """One-sided time-derivative of channel ``a`` at ``t``."""
        seg = self.schedule.segment_of(float(t), side)
        return float(self._slopes_fn(seg, np.array([float(t)]), a)[0])

    def curvature(self, a, t, side="right"):
        """Second time-derivative of channel ``a`` by differencing slopes.

        Central difference with step ``1e-5 *`` (segment length), the
        evaluation stencil clamped inside the segment so boundary queries
        become one-sided automatically.
        """
        seg = self.schedule.segment_of(float(t), side)
        lo, hi = self.schedule.segment_bounds(seg)
        h = 1e-5 * (hi - lo)
        tc = min(max(float(t), lo + h), hi - h)
        sl = self._slopes_fn(seg, np.array([tc - h, tc + h]), a)
        return float((sl[1] - sl[0]) / (2.0 * h))

    def values_in_segment(self, seg, ts, channels=None):
        """Channel matrix (len(ts), N) using segment ``seg``'s branch;
        with a sequence of modes ``channels``, only those columns."""
        return self._values_fn(seg, np.asarray(ts, float), channels)

    # -- sampling and minima -------------------------------------------

    def grid(self, seg):
        """Master sample times for segment ``seg`` (endpoints included)."""
        if seg not in self._grids:
            a, b = self.schedule.segment_bounds(seg)
            n = max(GRID_MIN_PTS,
                    int(np.ceil((b - a) / (self.horizon / GRID_DENOM))))
            self._grids[seg] = np.linspace(a, b, n)
        return self._grids[seg]

    def grid_values(self, seg):
        if seg not in self._grid_vals:
            self._grid_vals[seg] = self._values_fn(seg, self.grid(seg))
        return self._grid_vals[seg]

    @property
    def norm_inf(self):
        """Max |d| over all channels on the master grids."""
        if self._norm_inf is None:
            self._norm_inf = max(
                float(np.abs(self.grid_values(s)).max())
                for s in range(self.schedule.n_segments)
            )
        return self._norm_inf

    def samples(self, seg):
        """``(ts, D)``: segment ``seg``'s grid and interior minima, sorted
        and without repeats, and all N channels there, as :meth:`grid_values`
        and :meth:`local_minima` computed them; the max rule's samples."""
        self.local_minima()
        return self._samples[seg]

    def local_minima(self):
        """Per-channel local minima, one list for the whole field.

        Returns a list of dicts with keys ``value, time, mode, segment,
        boundary`` where ``boundary`` is "left"/"right" when the minimum
        sits on a segment end (one-sided) and None when interior.  An
        interior minimum is the root of the channel's slope where it turns
        from negative to nonnegative, solved by :func:`_bracketed_root` to
        ``ROOT_TOL * horizon``.  Brackets are the two cells around each grid
        node no higher than its neighbours, plus the first and last cell,
        where a minimum hides from the node test; one batched slope call at
        the bracket ends keeps those whose slope changes sign.
        """
        if self._minima is not None:
            return self._minima
        sched = self.schedule
        xtol = ROOT_TOL * self.horizon
        found = []
        for seg in range(sched.n_segments):
            ts = self.grid(seg)
            vals = self.grid_values(seg)
            last = len(ts) - 1
            active = sched.sequence[seg]
            self._samples[seg] = ts, vals
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
                    (v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:])) + 1
                brackets.extend((a, j - 1, j + 1) for j in nodes)
                if 1 not in nodes:
                    brackets.append((a, 0, 1))
                if last - 1 not in nodes:
                    brackets.append((a, last - 1, last))
            if not brackets:
                continue
            ends = np.unique([i for _, lo, hi in brackets for i in (lo, hi)])
            S = self._slopes_fn(seg, ts[ends])
            row = {int(i): k for k, i in enumerate(ends)}
            roots = []
            for a, lo, hi in brackets:
                s_lo, s_hi = S[row[lo], a - 1], S[row[hi], a - 1]
                if not s_lo < 0.0 <= s_hi:
                    continue
                slope = lambda t, a=a: float(
                    self._slopes_fn(seg, np.array([t]), a)[0])
                roots.append((_bracketed_root(slope, ts[lo], ts[hi],
                                             s_lo, s_hi, xtol), a))
            if roots:
                te = np.array([t for t, _ in roots])
                V = self._values_fn(seg, te)
                found.extend(dict(value=float(V[k, a - 1]), time=t, mode=a,
                                  segment=seg, boundary=None)
                             for k, (t, a) in enumerate(roots))
                # a minimum on a grid time keeps the grid's row
                ts, first = np.unique(np.concatenate([ts, te]),
                                      return_index=True)
                self._samples[seg] = ts, np.vstack([vals, V])[first]
        self._minima = found
        return found


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
    norm_inf: float


def insertion_gradient(sys, schedule, x, rho):
    """Build the insertion-gradient field from trajectory and adjoint.

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

    def values_fn(seg, ts, channels=None):
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

    def slopes_fn(seg, ts, channel=None):
        ts = np.atleast_1d(np.asarray(ts, float))
        xs = x(ts, seg=seg)
        rs = rho(ts, seg=seg)
        xd = x.derivative(ts, seg=seg)
        rd = rho.derivative(ts, seg=seg)
        active = schedule.sequence[seg]
        modes = range(1, N + 1) if channel is None else (channel,)
        out = np.zeros((len(ts), len(modes)))
        if channel != active:
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
        return out if channel is None else out[:, 0]

    return InsertionGradientField(schedule, values_fn, slopes_fn)


def optimality(field):
    """Locate ``theta``, the global minimum of the insertion gradient.

    Ties (within ``1e-12`` of the minimum, relatively) resolve to the
    earliest time and then the lowest mode index.  When every channel is
    nonnegative the schedule already satisfies the optimality condition
    and the result carries ``theta = 0`` with no minimizer.
    """
    cands = field.local_minima()
    if not cands:
        return OptimalityResult(0.0, None, None, None, False, field.norm_inf)
    vmin = min(c["value"] for c in cands)
    norm_inf = field.norm_inf
    if vmin >= 0.0:
        return OptimalityResult(0.0, None, None, None, False, norm_inf)
    tie = 1e-12 * (1.0 + abs(vmin))
    best = min((c for c in cands if c["value"] <= vmin + tie),
               key=lambda c: (c["time"], c["mode"]))
    return OptimalityResult(
        theta=float(best["value"]), mode=best["mode"], time=best["time"],
        boundary=best["boundary"], stationary=best["boundary"] is None,
        norm_inf=norm_inf,
    )
