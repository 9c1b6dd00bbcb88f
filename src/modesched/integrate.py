"""Trajectory, adjoint, and cost integration for switched systems.

Integration is restarted exactly at each switching time, so no solver step
ever straddles a vector-field discontinuity.  Each segment of the state is
solved by the package's own adaptive step loop, :func:`solve_ivp`: the
explicit Runge-Kutta method DOP853 (Dormand-Prince 8(5,3)) with scipy's
tableau, step control and operation order, so it takes scipy's steps to
the bit.  The running cost rides along as a quadrature: the stages call
the mode field alone, on the state alone (a system is autonomous, so no
stage reads a time), and the accumulator's stage derivatives come from
one batched ``running_cost`` call per attempted step.  The loop only
steps: it keeps its accepted steps, stage rows included, as a
:class:`Steps` record, and chooses no knot.  Once every segment of an
integration is solved, each segment's solution is read from its record
(:func:`read_knots`) on (time, value, derivative) knots, the solver's
steps merged with a uniform grid of spacing ``horizon /
KNOTS_PER_HORIZON`` or a finer ``knot_spacing`` (:func:`knot_grid`); the
three extra stages of DOP853's dense output are taken only on steps that
hold a knot inside them.  A segment of any length, one float spacing
included, is solved and read the same way.  An integration with a cost
bound is abandoned at the first point it solves (a segment start or an
accepted step end) where its cost can no longer come in under the bound,
and it stops there, having read no knot.
A curve keeps each segment's solver steps, stage rows included.  An
integration that reuses an earlier curve copies the whole leading
segments the two schedules share; the next segment, when it starts in the
same mode but ends elsewhere, replays the earlier solve's steps until an
end would clip one, and is solved live from there.  Both give the bits of
a solve from scratch.
A :class:`SampledCurve` keeps the cubic Hermite interpolant through a
curve's knots as one table of four coefficients per knot, over all its
segments, built on the curve's first read between knots, in which every
knot starts a piece, so a read at a knot returns that knot's value and
derivative exactly.  Each time is read on one segment's branch, so a
switching time has exact one-sided limits: ``side`` picks the earlier or
later segment, or ``seg`` names it; :meth:`SampledCurve.read`, which
every query ends in, names one segment per time and reads times of any
mix of segments in one pass.  It is the only code that evaluates a
curve's pieces: the adjoint's Gauss nodes and a warm start's first
knot are read through it too.

No scipy module is imported.  The package owns the two pieces of scipy
whose bits it keeps: DOP853's tableau (:mod:`._dop853`) and the power sums
of ``PPoly``'s evaluation kernel (:func:`_power_sums`).

The adjoint is linear in the costate, so it is not solved adaptively: it
is propagated backward on the state curve's own knots, one fourth-order
Magnus step per knot interval.  Its work is batched over the horizon, not
per segment: the states at every interval's Gauss nodes are one
:meth:`SampledCurve.read` of the state curve, and the intervals are cut,
from the last one back, into stacks that run across switching times,
sized by a budget of :data:`MAGNUS_STACK` entries and at least 64
intervals long; each stack takes its matrix exponentials in one batched
Taylor series.  Its accuracy follows the state's knots.  The
insertion-gradient field (:mod:`.gradient`) is sampled on the same knots,
so they are the one time discretization of state, adjoint and field.
"""
from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from . import _dop853

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-9
#: default number of Hermite knots per horizon (spacing horizon / 256):
#: the one time grid of state, adjoint and field.  It is the coarsest power
#: of two at which three descent steps on the built-in systems stay within
#: 100 ``rtol`` of a reference at tolerances 1e-12 / 1e-13 on a grid 16
#: times finer, in every iterate's theta and cost and in the final
#: switching times (``tests/test_accuracy.py``); at 128 theta and cost
#: leave that budget by up to fourfold
KNOTS_PER_HORIZON = 256
#: entries, ``intervals * (n+1)**2``, of each batched Magnus stack of the
#: adjoint, which is filled from the last knot interval back across
#: segment boundaries.  It bounds the ``(intervals, n+1, n+1)`` exponents
#: and the Taylor series' products on them (the stack's Gauss-node
#: Jacobians are twice as many) below dimension 24, where it lets stacks
#: grow past 64 intervals: at dimension 6 a stack holds 816, so a
#: three-machine window (about 280) is one stack and pays its per-call
#: overhead once.  From dimension 24 up a stack keeps 64 intervals
#: (:func:`_stack_intervals`): there the products, not the per-call cost,
#: set the time, stacks of 15 intervals were slower at dimension 24, and
#: no other length was measured above it
MAGNUS_STACK = 64 * 25 ** 2
#: Gauss-Legendre nodes on ``[0, 1]``, where each Magnus step samples
_GAUSS = 0.5 + np.array([-1.0, 1.0]) * (np.sqrt(3.0) / 6.0)
_UNIT_ROUNDOFF = 2.0 ** -53
#: knots closer than this times ``max(1, |t1|)`` to the one before them
#: are dropped
_KNOT_MERGE = 1e-14


@dataclass
class SwitchedSystem:
    """A finite family of smooth vector fields sharing one state space.

    Parameters
    ----------
    num_modes : int
        Number of modes ``N``; modes are indexed ``1..N``.
    dim : int
        State dimension ``n``.
    mode_field : callable
        ``mode_field(i, x) -> xdot`` for mode ``i`` at state ``x``.
    mode_jacobian : callable
        ``mode_jacobian(i, x) -> (n, n)`` Jacobian of mode ``i``.
    running_cost : callable
        ``running_cost(x)`` integrand of the trajectory cost: a float at
        one state, ``(k,)`` on a stack of ``k``, the only form the solvers
        call.
    running_cost_gradient : callable
        ``running_cost_gradient(x) -> (n,)`` gradient of the integrand.
    cost_floor : float or None
        A lower bound on ``running_cost`` over the whole state space, or
        ``None`` (the default) when none is known.  With a floor ``f`` the
        accumulated cost at time ``t`` plus ``f (T - t)`` bounds a
        trajectory's total cost from below, which lets a bounded
        :func:`integrate_state` abandon a trial that can no longer come in
        under its bound, before it has read any knot.  A sum of squares
        has the floor ``0.0``; a model with a signed running cost leaves it
        ``None`` and never has a trial abandoned.

    Each of the four callables takes either a single state ``x`` of shape
    ``(n,)``, giving the shapes above, or a stack of ``k`` states of shape
    ``(k, n)``, giving one result per state: ``mode_field`` ``(k, n)``,
    ``mode_jacobian`` ``(k, n, n)``, ``running_cost`` ``(k,)`` and
    ``running_cost_gradient`` ``(k, n)``.

    The forward solver calls ``mode_field`` once per Runge-Kutta stage, on
    a single ``(n,)`` state: about 20.0k stages in the 50-window power
    receding-horizon run, where the three dense-output stages of a step
    are only taken when a knot lies inside it, and only once the
    integration has solved every segment.  Per-call overhead
    dominates there, so a model should compute whatever does not depend on
    the state once, when it builds the callables, rather than inside them.
    The cost accumulator is a quadrature that no derivative reads, so
    ``running_cost`` is called once per attempted step, on the stack of
    its 12 stage inputs (and once on the 3 of a step's dense stages).  The
    solve is then scipy's DOP853 solve of the full right-hand side
    ``[mode_field(m, x), running_cost(x)]`` to the bit, provided that each
    row of a stacked ``running_cost`` call holds the bits of the call on
    that row alone (as row-wise numpy reductions do).  Every other call is
    on a stack: the knots of a segment, the Gauss nodes of one of the
    adjoint's stacks, which run across segments (see
    :data:`MAGNUS_STACK`; the Jacobian takes those of one mode at a
    time), or the points where the insertion gradient is sampled;
    ``mode_jacobian``, ``running_cost`` and ``running_cost_gradient`` see
    only stacks.  A read of the field stacks points of several segments,
    and each keeps its bits only if the callables are row-stable: in any
    stack of two or more states a row gets the same bits, whatever the
    other rows are, as the built-in models' row-wise numpy and matrix
    products give it.  A one-row call may differ in bits from the same
    state in a stack (a BLAS product takes the matrix-vector path for
    one row and the matrix-matrix path for more).
    """

    num_modes: int
    dim: int
    mode_field: callable
    mode_jacobian: callable
    running_cost: callable
    running_cost_gradient: callable
    cost_floor: float | None = None


class SampledCurve:
    """Piecewise cubic-Hermite curve built from per-segment knots.

    Knots are ``(t, value, derivative)`` triples; the derivative data come
    from the ODE right-hand side, so between knots the interpolant and its
    derivative are both third/second-order accurate and no finite
    differencing is ever needed.  The curve is continuous across segment
    boundaries (each boundary sample is shared), while the derivative may
    jump there.

    The curve is one table, of the four coefficients ``c3, c2, c1, c0``
    of each piece, over every segment's knots in order, in which every
    knot starts a piece.  Each piece is the Hermite cubic to the next knot
    of its segment, in powers of ``s = t - t_i`` (``c[k]`` multiplies the
    power ``3 - k``), with the arithmetic of scipy's cubic Hermite spline,
    so between knots values agree with it to the bit; a segment's last
    knot starts a piece that no read takes past the knot.  Every query
    maps each time to a segment, ``seg`` when given, else the one
    containing ``t``, where ``side`` picks the earlier (``"left"``) or
    later (``"right"``) segment at a boundary and times outside ``[t0,
    t1]`` go to the first or last, and then makes one :meth:`read`: each
    time clamped to its segment's span and read on its piece.  The value
    is the power sum ``((c3 + c2 s) + c1 s^2) + c0 s^3`` and the
    derivative ``(c2 + 2 c1 s) + 3 c0 s^2``, in the operation order of
    scipy's ``PPoly`` kernel, so the bits are PPoly's; a query, one time
    or a batch over any number of segments, values and derivatives
    together, is one numpy pass.  A query whose times are all knots is
    read from the knot arrays, as the table would give them, and builds
    no table: every knot, a segment's ends included, reads back its own
    value and derivative exactly.  The table is built on the first read
    elsewhere, once: many curves are never read between knots (a trial's
    cost accumulator is read only at its last knot, through
    :attr:`cost`).  The knots are checked when the curve is made, but
    for the solvers' own curves, whose knots pass the checks by
    construction.

    Parameters
    ----------
    boundaries : array_like, shape (M+1,)
        Segment boundaries, strictly increasing.
    segments : list of (ts, ys, fs)
        Per-segment knot data: ``ts`` shape ``(k,)``, strictly increasing
        from the segment's first boundary to its last, ``ys`` and ``fs``
        shape ``(k, n)``.
    cost_curve : SampledCurve, optional
        Scalar running-cost accumulator riding along the same partition.
    """

    def __init__(self, boundaries, segments, cost_curve=None):
        boundaries = np.asarray(boundaries, float)
        if len(segments) != len(boundaries) - 1:
            raise ValueError(
                f"{len(segments)} segments for {len(boundaries)} boundaries"
            )
        knots = []
        for i, (ts, ys, fs) in enumerate(segments):
            ts = np.asarray(ts, float)
            ys = np.asarray(ys, float)
            fs = np.asarray(fs, float)
            if ys.ndim == 1:
                ys = ys[:, None]
            if fs.ndim == 1:
                fs = fs[:, None]
            a, b = boundaries[i], boundaries[i + 1]
            if len(ts) < 2 or ts[0] != a or ts[-1] != b \
                    or ys.shape != fs.shape or len(ys) != len(ts):
                raise ValueError(
                    f"segment {i}: need at least two knots from {a} to {b} "
                    f"with values and derivatives of one shape")
            knots.append((ts, ys, fs))
        ts, ys, fs = zip(*knots)
        # all segments at once: a segment's last knot is the next one's
        # first, so the step across each join is 0 and not checked
        steps = np.diff(np.concatenate(ts))
        steps[np.cumsum([len(t) for t in ts[:-1]], dtype=int) - 1] = 1.0
        if not np.all(steps > 0.0):
            raise ValueError("knot times must increase")
        if not np.all(np.isfinite(np.concatenate(ys + fs))):
            raise ValueError("knot data must be finite")
        self._init(boundaries, knots, cost_curve)

    @classmethod
    def _trusted(cls, boundaries, knots, cost_curve=None):
        """A curve of the solvers' own knots, ``(ts, ys, fs)`` float
        arrays with 2-D ``ys`` and ``fs``, which pass the constructor's
        checks by construction: none is made again."""
        curve = cls.__new__(cls)
        curve._init(np.asarray(boundaries, float), knots, cost_curve)
        return curve

    def _init(self, boundaries, knots, cost_curve):
        self.boundaries = boundaries
        self.knots = knots
        # every segment's knots as one array each, built on the first read,
        # and their table, built on the first read between knots
        self._flat = self._coeffs = None
        # searchsorted in the inner boundaries is the segment rule
        self._inner = boundaries[1:-1]
        self.dim = knots[0][1].shape[1]
        self.t0 = float(boundaries[0])
        self.t1 = float(boundaries[-1])
        self.cost_curve = cost_curve
        # what integrate_state solved this curve from, and each segment's
        # solver steps (or None), for prefix reuse
        self._inputs = None
        self._steps = None

    @property
    def n_segments(self):
        return len(self.knots)

    @property
    def cost(self):
        """Total accumulated running cost (requires a cost accumulator)."""
        if self.cost_curve is None:
            raise AttributeError("curve was built without a cost accumulator")
        # the accumulator's last knot, which the curve returns at t1
        return float(self.cost_curve.knots[-1][1][-1, 0])

    def cost_at(self, t):
        """Accumulated running cost at ``t``, a time or an array of times,
        each read as ``curve(t)`` reads it: a float for a scalar ``t``,
        else an array of ``t``'s shape, from one :meth:`read` (requires a
        cost accumulator)."""
        if self.cost_curve is None:
            raise AttributeError("curve was built without a cost accumulator")
        c = self.cost_curve(t)[..., 0]
        return float(c) if c.ndim == 0 else c

    def __call__(self, t, side="right", seg=None):
        """Curve value(s) at ``t``: shape ``(n,)`` for a scalar ``t``,
        ``(k, n)`` for ``k`` times; segment ``seg``'s piece if given."""
        return self._evaluate(t, side, seg, (0,))[0]

    def derivative(self, t, side="right", seg=None):
        """Interpolant time-derivative at ``t``; one-sided at boundaries."""
        return self._evaluate(t, side, seg, (1,))[0]

    def joined(self, other):
        """The curve of this curve's columns and then ``other``'s, two
        curves on the same knot times (a state and its adjoint).  Each
        column keeps its own curve's bits, and one table answers both."""
        if other.n_segments != self.n_segments:
            raise ValueError("the curves have different segments")
        knots = []
        for (ts, ys, fs), (ts2, ys2, fs2) in zip(self.knots, other.knots):
            if ts2 is not ts and not np.array_equal(ts, ts2):
                raise ValueError("the curves have different knot times")
            knots.append((ts, np.concatenate((ys, ys2), axis=1),
                          np.concatenate((fs, fs2), axis=1)))
        return SampledCurve._trusted(self.boundaries, knots)

    def read(self, segs, t, dxs=(0,)):
        """Derivatives ``dxs`` (0 for the value, 1 for the slope) of the
        curve at the times ``t``, shape ``(k,)``, each on the branch of
        its segment ``segs`` (``(k,)`` integers, an array, list or tuple,
        or one index for every time) and clamped to that segment's span,
        each result ``(k, n)``.

        One kernel pass reads them all, whichever segments they are in,
        on the curve's table, built on its first read between knots.  A
        read at knots alone takes the knot arrays and makes no pass.
        ``ValueError`` for a segment the curve lacks, and for a time
        between the knots of a piece that is not finite (a few float
        spacings long, its coefficients overflow); a time at a knot
        reads that knot's data."""
        ts, ys, fs, lo, hi, last = self._knot_arrays()
        if isinstance(segs, int):
            known = 0 <= segs < len(lo)
        else:
            # integers of any array, list or tuple; a float is refused,
            # not truncated
            segs = np.asarray(segs).astype(np.intp, casting="same_kind",
                                           copy=False)
            # one test for both ends: a negative index is a huge unsigned
            known = segs.view(np.uintp).max(initial=0) < len(lo)
        if not known:
            raise ValueError(f"seg {segs} is not a segment of the curve: "
                             f"0 .. {len(lo) - 1}")
        t = np.minimum(np.maximum(t, lo[segs]), hi[segs])
        # the last knot at or before each time, within its segment
        i = np.minimum(ts[1:].searchsorted(t, "right"), last[segs])
        s = t - ts[i]
        if not np.count_nonzero(s):
            # all at knots, where the power sums reduce to 0.0 + c3 and
            # 0.0 + c2: the knot data, with a zero's sign as PPoly gives it
            return [(fs if dx else ys).take(i, 0) + 0.0 for dx in dxs]
        table, finite = self._table_of_pieces()
        if finite:
            return _power_sums(table, i, s, dxs)
        with np.errstate(over="ignore", invalid="ignore"):
            outs = _power_sums(table, i, s, dxs)
        knot = s == 0.0
        for dx, out in zip(dxs, outs):
            out[knot] = (fs if dx else ys)[i[knot]] + 0.0
            if not np.isfinite(out).all():
                raise ValueError("knot data must be finite")
        return outs

    def _evaluate(self, t, side, seg, dxs):
        """Derivatives ``dxs`` of the curve at ``t``, by the segment rule
        of the class, in one :meth:`read`."""
        t = np.asarray(t, float)
        flat = t.reshape(-1)
        if seg is None:
            seg = self._inner.searchsorted(flat, side)
        shape = t.shape + (self.dim,)
        return [out.reshape(shape) for out in self.read(seg, flat, dxs)]

    def _knot_arrays(self):
        """``(ts, ys, fs, lo, hi, last)``: every segment's knots as one
        array each, one row per knot, a segment's last knot and the next
        one's first each kept; and per segment, its first and last knot
        times and the index of its last knot."""
        if self._flat is None:
            ts, ys, fs = (np.concatenate(k) for k in zip(*self.knots))
            ends = np.array([0, *accumulate(len(k[0]) for k in self.knots)])
            last = ends[1:] - 1
            self._flat = ts, ys, fs, ts[ends[:-1]], ts[last], last
        return self._flat

    def _table_of_pieces(self):
        """The curve's table, ``(4, K, n)`` over all ``K`` knots, and
        whether it is finite: see :func:`_hermite_table`."""
        if self._coeffs is None:
            ts, ys, fs, _, _, last = self._knot_arrays()
            table = _hermite_table(ts, ys, fs, last)
            self._coeffs = table, bool(np.isfinite(table).all())
        return self._coeffs


def _hermite_table(ts, ys, fs, last):
    """The table of the knot arrays ``ts, ys, fs``, ``(4, K, n)``,
    coefficient-major: the coefficients ``c3, c2, c1, c0`` of ``s^0 ..
    s^3`` in the notation of :class:`SampledCurve`, each for the piece
    that starts at each knot.  Each piece runs to the next knot; those at
    a segment's last knot, the indices ``last``, run to the next
    segment's first knot at the same time, and are read at their knot
    alone, so their ``c1`` and ``c0`` are 0.  ``c3`` and ``c2`` hold the
    knot data plus ``0.0``, the start of PPoly's sums.  Built without a
    warning: a piece whose knots are a few float spacings apart may not
    be finite."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h = (ts[1:] - ts[:-1])[:, None]
        slope = (ys[1:] - ys[:-1]) / h
        f0 = fs[:-1]
        d = (f0 + fs[1:] - 2 * slope) / h
        table = np.zeros((4, len(ts), ys.shape[1]))
        np.add(ys, 0.0, out=table[0])
        np.add(fs, 0.0, out=table[1])
        np.subtract((slope - f0) / h, d, out=table[2, :-1])
        np.divide(d, h, out=table[3, :-1])
    table[2:, last] = 0.0
    return table


def _power_sums(table, i, s, dxs):
    """Derivatives ``dxs`` (0 for the value, 1 for the slope) of the
    pieces ``i`` of a :func:`_hermite_table` at their offsets ``s``,
    ``i`` of ``s``'s shape or of one that broadcasts against it: the
    curve's kernel, one pass for all of them, each result of shape
    ``s.shape + (n,)``.

    A piece's value is ``((c3 + c2 s) + c1 s^2) + c0 s^3`` and its slope
    ``(c2 + (c1 s) 2) + (c0 s^2) 3``.  These are the operations of scipy's
    ``PPoly`` kernel in its order: ``s^2 = s s`` and ``s^3 = s^2 s``, each
    term a coefficient times its power and then times the power's
    derivative factor (1 in a value, which is exact), summed from the
    lowest power up, starting from the ``0.0`` that ``c3`` and ``c2`` hold
    already.  A slope's last term in PPoly, ``0 s^3``, adds ``+0.0`` to a
    sum that is never ``-0.0``, and is left out."""
    c3, c2, c1, c0 = table.take(i, 1)
    s = s[..., None]
    s2 = s * s
    return [(c2 + c1 * s * 2.0) + c0 * s2 * 3.0 if dx
            else ((c3 + c2 * s) + c1 * s2) + c0 * (s2 * s) for dx in dxs]


@dataclass(frozen=True)
class Abandoned:
    """A bounded :func:`integrate_state` that stopped at ``time``: the
    first segment start or accepted solver step end where the trajectory's
    cost could no longer come in under the bound."""

    time: float


def integrate_state(sys, x0, schedule, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                    knot_spacing=None, reuse=None, cost_bound=None):
    """Integrate the switched system forward over a schedule.

    The running cost rides along as an extra accumulator state, so the
    returned curve exposes ``.cost`` and ``.cost_at`` with solver accuracy.

    With a ``cost_bound`` and a system whose ``cost_floor`` ``f`` is known,
    the integration is abandoned at the first point ``t`` it solves where
    the accumulated cost ``acc(t)`` gives ``acc(t) + f (T - t) >
    cost_bound``: the total cost would then exceed the bound too.  The
    points are every segment start (``t = 0``, or the end of a reused
    prefix, included) and every accepted solver step end, where
    :func:`solve_ivp`'s ``stop`` runs the same test, so the result's
    ``time`` is where the integration really stopped.  Nothing is tested
    between accepted steps, so an integration that is not abandoned takes
    the same steps, and gives the same bits, as one without a bound.  An
    integration reads its knots only once every segment is solved, from
    each segment's recorded steps (:func:`read_knots`, then the knot
    slopes), so an abandoned one takes no dense stage and no slope.

    Parameters
    ----------
    sys : SwitchedSystem
    x0 : array_like, shape (n,)
        Initial state; ``ValueError`` unless it is finite.
    schedule : ModeSchedule
        ``ValueError`` unless its ``num_modes`` is ``sys.num_modes``: the
        field and the max rule read one channel per mode of both.
    rtol, atol : float
        Solver tolerances (applied to state and accumulator alike).
    knot_spacing : float, optional
        Maximum spacing of interpolation knots; default
        ``horizon / KNOTS_PER_HORIZON``.
    reuse : SampledCurve, optional
        An earlier result of this function, or a warm start built from
        one.  The leading segments it shares with ``schedule`` (same mode,
        same end times) are copied rather than solved again, which gives
        the same bits, since each segment restarts from the previous one's
        pinned end knot; a curve sharing every segment is returned itself.
        When the next segment has ``reuse``'s mode there but another end
        time, it starts from the same state at the same time, and its
        solve replays the solver steps that ``reuse``'s solve of that
        segment took before either end clipped a step (:func:`solve_ivp`'s
        ``replay``), with the same bits again; a warm start keeps no steps
        to replay.  Nothing is copied or replayed from a curve solved from
        another system, ``x0``, horizon or settings.
    cost_bound : float, optional
        Cost above which the trajectory is of no use to the caller; ignored
        when ``sys.cost_floor`` is ``None``.

    Returns
    -------
    SampledCurve or Abandoned
        State trajectory on ``[0, T]`` with segment boundaries at the
        switching times and a scalar cost accumulator attached; or, for an
        abandoned integration, the time where it stopped.
    """
    x0 = np.asarray(x0, float)
    if x0.shape != (sys.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({sys.dim},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be finite, got {x0}")
    if schedule.num_modes != sys.num_modes:
        raise ValueError(f"the schedule has {schedule.num_modes} modes, "
                         f"the system {sys.num_modes}")
    n = sys.dim
    inputs = (sys, schedule, rtol, atol, knot_spacing)
    x_segs, c_segs, steps, replay = _shared_prefix(inputs, x0, reuse)
    k = len(x_segs)
    if k == schedule.n_segments:
        return reuse
    if x_segs:
        z = np.concatenate([x_segs[-1][1][-1], c_segs[-1][1][-1]])
    else:
        z = np.concatenate([x0, [0.0]])
    bnds = schedule.boundaries
    floor, T = sys.cost_floor, schedule.horizon
    stop = None
    if cost_bound is not None and floor is not None:
        def stop(t, zz):
            return zz[n] + floor * (T - t) - cost_bound
    for i in range(k, schedule.n_segments):
        if stop is not None and stop(bnds[i], z) > 0.0:
            return Abandoned(float(bnds[i]))
        sol = solve_ivp(partial(sys.mode_field, schedule.sequence[i]),
                        (bnds[i], bnds[i + 1]), z, rtol, atol, stop,
                        quad=sys.running_cost, replay=replay)
        if sol.t_stop is not None:
            return Abandoned(float(sol.t_stop))
        steps.append(sol.steps)
        z = sol.steps.y[-1]
        replay = None
    # every segment is solved: only now are the knots read
    for i in range(k, schedule.n_segments):
        ts, zs, fs = _read_segment(sys, schedule.sequence[i], steps[i], T,
                                   knot_spacing)
        x_segs.append((ts, zs[:, :n], fs[:, :n]))
        c_segs.append((ts, zs[:, n:], fs[:, n:]))
    return _state_curve(inputs, x_segs, c_segs, steps)


def _state_curve(inputs, x_segs, c_segs, steps):
    """:func:`integrate_state`'s curve for ``inputs``, ``(sys, schedule,
    rtol, atol, knot_spacing)``, from per-segment state and cost knots and
    the :class:`Steps` each segment was solved in (``None`` where it is
    not known)."""
    bnds = inputs[1].boundaries
    x = SampledCurve._trusted(bnds, x_segs,
                              SampledCurve._trusted(bnds, c_segs))
    x._inputs = inputs
    x._steps = steps
    return x


def _shared_prefix(inputs, x0, curve):
    """What a solve of ``inputs`` from ``x0`` would repeat from ``curve``:
    the state knots, cost knots and :class:`Steps` of the leading segments
    it shares (same mode, same end), and the steps of the next segment if
    the solve starts it as ``curve`` did (same mode, same start, so the
    same start state) but ends it elsewhere, for :func:`solve_ivp` to
    replay; three empty lists and ``None`` if nothing is shared.  The
    curve's first knot is its pinned initial state."""
    if curve is None or curve._inputs is None:
        return [], [], [], None
    sys, sched, *settings = inputs
    sys1, sched1, *settings1 = curve._inputs
    if sys1 is not sys or settings1 != settings \
            or sched1.horizon != sched.horizon \
            or not np.array_equal(curve.knots[0][1][0], x0):
        return [], [], [], None
    b, b1 = sched.boundaries, sched1.boundaries
    k, shared = 0, min(sched.n_segments, sched1.n_segments)
    while k < shared and sched.sequence[k] == sched1.sequence[k] \
            and b[k + 1] == b1[k + 1]:
        k += 1
    replay = None
    if k < shared and sched.sequence[k] == sched1.sequence[k]:
        replay = curve._steps[k]
    return (curve.knots[:k], curve.cost_curve.knots[:k], curve._steps[:k],
            replay)


def _shift_curve(x, dt, schedule):
    """The state curve ``x`` slid earlier by ``dt`` onto ``schedule``, its
    schedule shifted by ``dt`` with the final mode held on the tail.

    ``x`` is an :func:`integrate_state` result.  On ``[dt, T]`` it already
    solves the shifted schedule's ODE from ``x(dt)``, so its knots there
    are kept, moved to ``t - dt``, with ``x.cost_at(dt)`` taken off the
    accumulator.  Knots within :func:`read_knots`'s knot merging distance
    of ``dt`` give way to a new first knot at ``x(dt)``.  ``x(dt)`` and
    ``x.cost_at(dt)``, to the bit, come from one read of the temporary
    curve ``x.joined(x.cost_curve)``, so the read builds nothing that
    ``x`` or its cost curve keeps.  Only the padded tail ``[T - dt, T]``
    is solved, in the held final mode, from the pinned end knot, and none
    where ``T - dt`` rounds to ``T``.  The result names
    ``schedule`` and ``x(dt)`` as its inputs, so it stands in for
    ``integrate_state(sys, x(dt), schedule, ...)`` (to solver tolerance):
    passed to that call as ``reuse``, it comes back itself, and the trials'
    prefix reuse applies to it.  ``dt`` lies in ``(0, T]``.
    """
    sys, sched, rtol, atol, knot_spacing = x._inputs
    T = sched.horizon
    i0 = sched.segment_of(dt)
    z0 = x.joined(x.cost_curve).read(i0, [dt])[0][0]
    c_dt = z0[-1]
    z0[-1] = 0.0
    segs = [(ts - dt, np.hstack([ys, cs - c_dt]), np.hstack([fs, gs]))
            for (ts, ys, fs), (_, cs, gs)
            in zip(x.knots[i0:], x.cost_curve.knots[i0:])]
    ts, zs, fs = segs[0]
    keep = ts > _KNOT_MERGE * max(1.0, T)
    keep[-1] = ts[-1] > 0.0  # a segment end past dt is a boundary
    f0 = _knot_slopes(sys, sched.sequence[i0], z0[None])
    segs[0] = (np.concatenate([[0.0], ts[keep]]), np.vstack([z0, zs[keep]]),
               np.vstack([f0, fs[keep]]))
    ts, zs, fs = segs[-1]
    if ts[-1] < T:  # a dt below T's float spacing leaves no tail
        m = sched.sequence[-1]
        sol = solve_ivp(partial(sys.mode_field, m), (float(ts[-1]), T),
                        zs[-1], rtol, atol, quad=sys.running_cost)
        tts, tzs, tfs = _read_segment(sys, m, sol.steps, T, knot_spacing)
        segs[-1] = (np.concatenate([ts, tts[1:]]), np.vstack([zs, tzs[1:]]),
                    np.vstack([fs, tfs[1:]]))
    n = sys.dim
    # the moved knots no longer lie on the steps a solve would take
    return _state_curve((sys, schedule, rtol, atol, knot_spacing),
                        [(t, z[:, :n], f[:, :n]) for t, z, f in segs],
                        [(t, z[:, n:], f[:, n:]) for t, z, f in segs],
                        [None] * len(segs))


def _knot_slopes(sys, m, zs):
    """Mode ``m``'s derivative of the state with its running-cost
    accumulator appended, on a stack ``zs`` of ``(n+1,)`` knots."""
    xs = zs[:, :sys.dim]
    return np.column_stack([sys.mode_field(m, xs), sys.running_cost(xs)])


def knot_grid(t0, t1, horizon, knot_spacing=None):
    """Evenly spaced times from ``t0`` to ``t1``, both included, at most
    ``knot_spacing`` (default ``horizon / KNOTS_PER_HORIZON``) apart and
    never fewer than two: the uniform part of every segment's knots."""
    h = horizon / KNOTS_PER_HORIZON if knot_spacing is None else knot_spacing
    return np.linspace(t0, t1, max(2, int(np.ceil((t1 - t0) / h)) + 1))


def _read_segment(sys, m, steps, horizon, knot_spacing):
    """The knots ``(ts, zs, fs)`` of a segment solved in mode ``m`` with
    the running-cost accumulator as its quadrature, from its
    :class:`Steps`: :func:`read_knots` on :func:`knot_grid`, and the knot
    slopes from one :func:`_knot_slopes` call."""
    ts, zs = read_knots(partial(sys.mode_field, m), sys.running_cost, steps,
                        knot_grid(steps.t[0], steps.t[-1], horizon,
                                  knot_spacing))
    return ts, zs, _knot_slopes(sys, m, zs)


# DOP853 (Hairer, Norsett & Wanner, Solving Ordinary Differential Equations
# I, II.5) with scipy's coefficients and step-size control
_S = _dop853.N_STAGES  # 12 stages; the 13th row of K is f at the step end
_A = _dop853.A
_B = _dop853.B
_E3, _E5 = _dop853.E3, _dop853.E5
_D = _dop853.D
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order + 1)
_EPS = np.finfo(float).eps


class Steps(NamedTuple):
    """The accepted steps of a :func:`solve_ivp` solve.  Those of a solve
    that ran to its end are what its knots are read from
    (:func:`read_knots`) and what another solve of the same problem from
    the same start replays (its ``replay``).  ``t``, ``y`` and ``K`` are
    shared with the solves that replay them, and never written."""

    #: the first-step selection's ``h0`` before it is clipped to the end,
    #: and ``h1``
    h0: float
    h1: float
    #: step times from ``t0`` to ``t1`` (or to the step end where the
    #: solve stopped), and the solution there
    t: list
    y: list
    #: per step: the ``h_abs`` it proposes for the next step, and its
    #: stage rows ``K[:_S + 1]`` (the stages and the end slope), which its
    #: dense output is built from
    h_next: list
    K: list


class Solution(NamedTuple):
    """A :func:`solve_ivp` result."""

    #: the accepted steps, up to ``t_stop`` for a stopped solve
    steps: Steps
    #: the step end where ``stop`` first passed zero, or ``None``
    t_stop: float | None
    #: ``fun`` calls made inside the call: the first-step selection's and
    #: the stages of every attempted step
    nfev: int


def solve_ivp(fun, t_span, y0, rtol, atol, stop=None, *, quad, replay=None):
    """The package's own DOP853 solve of the autonomous ``y' = [fun(x),
    quad(x)]`` over ``t_span = (t0, t1)``, where ``y = [x, q]``;
    ``ValueError`` naming ``t_span`` unless ``t0 < t1``.

    The last component of ``y`` is a quadrature ``q`` of the others,
    ``x``, which no derivative reads.  ``fun(x)`` takes a state ``(n-1,)``
    and returns a float array ``(n-1,)``, with no time: no stage reads
    one, as no model of the package does; ``quad(xs)`` takes a
    stack ``(k, n-1)`` and returns ``(k,)``.  The stages call ``fun`` only;
    the quadrature's stage derivatives come from one ``quad`` call on the
    stacked stage inputs per attempted step, the first-step selection's
    from two single-row calls.  When each row of a stacked ``quad`` call
    holds the bits of a call on that row alone, this takes the steps, and
    gives the bits, of ``scipy.integrate.solve_ivp`` with
    ``method="DOP853"``, ``rtol`` and ``atol`` on the full right-hand
    side: the same first-step selection (one extra call), Runge-Kutta
    stages, error norm and step-size control, in the same operation
    order.  The solve only steps: its accepted steps, stage rows
    included, are its :class:`Steps`, from which :func:`read_knots` reads
    the solution anywhere in ``t_span`` once it has ended.

    ``stop(t, y)``, if given, is tested at each accepted step end, ``t1``
    included, and the solve stops at the first end where it is positive:
    ``t_stop`` is that end.  Where ``stop`` is negative at the ends before
    it, a terminal rising scipy event would find its root inside the step
    that ends there.  ``nfev`` counts the ``fun`` calls made inside the
    call.

    ``replay`` is the :class:`Steps` of a solve of the same ``fun``,
    ``quad``, tolerances and ``y0`` from the same ``t0`` to another end.
    The two solves take the same steps for as long as neither end clips
    one, so they are not taken again: the recorded first-step selection
    when its ``h0`` fits before both ends, and then each recorded step
    whose first attempt ends before both, are copied, stage rows
    included, and the solve goes on live from the last of them.  No
    first attempt is recorded: a step's is the one before's proposed
    ``h_abs`` at the same ``t``, and the first step's, when it ends
    before both ends, is clipped by neither, so the live attempt ending
    before both is the recorded one.  The ``stop`` test runs on the
    copied steps as on its own, so the result holds the bits of a solve
    without ``replay``, and only ``nfev`` is lower.

    Raises ``RuntimeError`` naming ``t_span`` when the step size falls
    below ten spacings of floating-point numbers at ``t``, and at once,
    saying that the state or the mode field is not finite, when a step's
    size or error norm is not a number.
    """
    t, t1 = map(float, t_span)
    if not t < t1:
        raise ValueError(f"t_span {t_span} is empty: need t0 < t1")
    y = np.asarray(y0, float)
    n = len(y)
    m = n - 1  # the components fun sees
    if rtol < 100 * _EPS:
        warnings.warn(f"rtol {rtol} is too small; using {100 * _EPS}",
                      stacklevel=2)
        rtol = 100 * _EPS
    # a step's stage rows: its stages and its end slope, K[_S]
    K = np.zeros((_S + 1, n))
    Z = np.empty((_S, n))
    stages = _stages(K, Z, range(1, _S))
    KT_b, KT_e = K[:_S].T, K.T
    # the quadrature's stage inputs and derivatives (its last column)
    xq, kq = Z[:, :m], K[1:, -1]

    # a replayed step ends before both ends, so neither clipped it
    end = t1 if replay is None else min(t1, replay.t[-1])
    if replay is not None and replay.h0 <= end - t:
        h0, h1 = replay.h0, replay.h1
        h = h0
        K[_S] = replay.K[0][0]  # the slope at t0
        nfev = 0
    else:
        replay = None
        K[_S] = f = np.append(fun(y[:-1]), quad(y[None, :-1]))
        # first step (Hairer, Norsett & Wanner, II.4); h is h0 clipped to
        # the end
        scale = atol + np.abs(y) * rtol
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h = min(h0, t1 - t)
        y1 = y + h * f
        f1 = np.append(fun(y1[:-1]), quad(y1[None, :-1]))
        nfev = 2
        d2 = _rms((f1 - f) / scale) / h
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h, h1, t1 - t)
    record = Steps(h0, h1, [t], [y], [], [])

    while t < t1:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        if replay is not None and t + h_abs < end:
            # the recorded step, stage rows included, which first tried
            # this h_abs too; any attempts it rejected were as short and
            # were not clipped either
            j = len(record.h_next)
            K[:] = rows = replay.K[j]
            t, y, h_abs = replay.t[j + 1], replay.y[j + 1], replay.h_next[j]
        else:
            replay = None
            K[0] = K[_S]  # the slope at the step start
            rejected = False
            while True:
                if h_abs < min_step:
                    raise RuntimeError(
                        f"integration failed on [{t_span[0]}, {t_span[1]}]: "
                        "Required step size is less than spacing between "
                        "numbers.")
                if h_abs != h_abs:  # from a field that is not finite at t0
                    raise _not_finite(t_span, t)
                t_new = min(t + h_abs, t1)
                h = h_abs = t_new - t
                for k, KT, a, z, x in stages:
                    np.add(y, np.dot(KT, a) * h, z)
                    k[:] = fun(x)
                y_new = y + h * np.dot(KT_b, _B)
                K[_S, :m] = fun(y_new[:m])
                nfev += _S
                Z[_S - 1] = y_new
                kq[:] = quad(xq)
                # the same first m columns; the quadrature's is now right
                y_new = y + h * np.dot(KT_b, _B)
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                err5 = np.dot(KT_e, _E5) / scale
                err3 = np.dot(KT_e, _E3) / scale
                # squared np.linalg.norm, which is sqrt(x @ x)
                err5_2 = math.sqrt(err5 @ err5) ** 2
                err3_2 = math.sqrt(err3 @ err3) ** 2
                if err5_2 == 0 and err3_2 == 0:
                    error_norm = 0.0
                else:
                    error_norm = h * err5_2 / math.sqrt(
                        (err5_2 + 0.01 * err3_2) * n)
                if error_norm < 1:
                    if error_norm == 0:
                        factor = _MAX_FACTOR
                    else:
                        factor = min(_MAX_FACTOR,
                                     _SAFETY * error_norm ** _ERROR_EXPONENT)
                    if rejected:
                        factor = min(1, factor)
                    h_abs *= factor
                    break
                if error_norm != error_norm:
                    # no shorter step mends a NaN stage
                    raise _not_finite(t_span, t)
                h_abs *= max(_MIN_FACTOR,
                             _SAFETY * error_norm ** _ERROR_EXPONENT)
                rejected = True
            rows = K.copy()
            t, y = t_new, y_new
        record.t.append(t)
        record.y.append(y)
        record.h_next.append(h_abs)
        record.K.append(rows)
        if stop is not None and stop(t, y) > 0.0:
            return Solution(record, t, nfev)
    return Solution(record, None, nfev)


def _not_finite(t_span, t):
    """:func:`solve_ivp`'s error for a step whose size or error norm is not
    a number, at ``t``: no step size mends that."""
    return RuntimeError(
        f"integration failed on [{t_span[0]}, {t_span[1]}]: the state or "
        f"the mode field is not finite at t = {t}")


def read_knots(fun, quad, steps, grid):
    """The knots ``(ts, zs)`` of a :func:`solve_ivp` solve of ``fun(x)``
    and ``quad`` that ran to its end, read from its :class:`Steps`
    ``steps``.

    The knots are the step times and the points of the sorted ``grid``
    strictly inside a step, with every point that lies within ``1e-14
    max(1, |t1|)`` of the one before it dropped, and the last knot moved
    to ``t1``; ``t1`` itself is kept when every knot after ``t0`` was
    dropped, so a solve has at least its two ends.  A knot at a step time
    is the step's end point as scipy's dense output gives it there,
    ``y_old + (y - y_old)``; a knot inside a step is read from the step's
    dense output, whose three extra stages are taken only on such steps,
    with one ``fun`` call each and one ``quad`` call on the three.  The
    values are those of scipy's ``sol(ts)``, except that the first and
    last knots hold ``y0`` and the end state.
    """
    t, y = steps.t, steps.y
    merge = _KNOT_MERGE * max(1.0, abs(t[-1]))
    grid = np.asarray(grid, float).tolist()
    # the dense output's stage rows: a step's 13, then its 3 extra stages
    K = np.zeros((_dop853.N_STAGES_EXTENDED, len(y[0])))
    Z = np.empty((len(K) - 1, len(y[0])))
    extra = _stages(K, Z, range(_S + 1, len(K)))
    xq, kq = Z[_S:, :-1], K[_S + 1:, -1]
    ts, zs = [t[0]], [y[0]]
    for j in range(len(t) - 1):
        t_old, t_end, y_old, y_end = t[j], t[j + 1], y[j], y[j + 1]
        # grid points inside the step, each kept if clear of the point
        # before it; the step end likewise
        inside = grid[bisect.bisect_right(grid, t_old):
                      bisect.bisect_left(grid, t_end)]
        kept = [p for p, q in zip(inside, [t_old] + inside[:-1])
                if p - q > merge]
        if kept:
            h = t_end - t_old
            K[:_S + 1] = steps.K[j]
            for k, KT, a, z, x in extra:
                np.add(y_old, np.dot(KT, a) * h, z)
                k[:] = fun(x)
            kq[:] = quad(xq)
            ts += kept
            zs.extend(_interpolant(K, t_old, y_old, y_end, h, np.array(kept)))
        if t_end - (inside[-1] if inside else t_old) > merge:
            ts.append(t_end)
            zs.append(y_old + (y_end - y_old))  # the dense output at x = 1
    if len(ts) == 1:  # every knot after t0 merged: keep the end
        ts.append(t[-1])
        zs.append(y[-1])
    ts[-1], zs[-1] = t[-1], y[-1]
    return np.array(ts), np.array(zs)


def _stages(K, Z, ss):
    """Per stage ``s`` of ``ss``, of a step whose stage rows are ``K``:
    ``(k, KT, a, z, x)``, its row ``k`` of ``K`` in the ``m`` columns
    ``fun`` gives, the rows before it transposed (each stage combines them
    as scipy does), its tableau row ``a``, and its input row ``z = Z[s -
    1]`` with ``x`` the ``m`` columns ``fun`` reads.  Those ``m`` columns
    never read ``K``'s quadrature column, which is filled once all the
    stage inputs are known.  ``fun`` takes no time: no stage node is
    needed."""
    m = K.shape[1] - 1
    return [(K[s, :m], K[:s].T, _A[s, :s], Z[s - 1], Z[s - 1, :m])
            for s in ss]


def _rms(x):
    """Root-mean-square norm, as scipy's solvers take it."""
    return np.linalg.norm(x) / x.size ** 0.5


def _interpolant(K, t_old, y_old, y, h, t):
    """scipy's ``Dop853DenseOutput`` of the step from ``(t_old, y_old)``
    to ``y`` over ``h``, from its 16 stage rows ``K``, at the times ``t``,
    shape ``(k,)``: ``(k, len(y))``."""
    F = np.empty((_dop853.INTERPOLATOR_POWER, len(y)))
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (K[_S] + f_old)
    F[3:] = h * np.dot(_D, K)
    x = ((t - t_old) / h)[:, None]
    out = np.zeros((len(x), len(y)))
    for i, row in enumerate(F[::-1]):
        out += row
        out *= x if i % 2 == 0 else 1 - x
    return out + y_old


def _check_partition(x, schedule):
    """Raise ``ValueError`` unless the curve ``x`` has the segment
    boundaries of ``schedule``, each within ``1e-12`` of its horizon."""
    b = schedule.boundaries
    if len(x.boundaries) != len(b) or np.abs(
            x.boundaries - b).max() > 1e-12 * schedule.horizon:
        raise ValueError("state curve and schedule have different segment "
                         "boundaries")


def integrate_adjoint(sys, schedule, x):
    """Integrate the first-order adjoint backward from rho(T) = 0.

    The adjoint ``rhodot = -Df_sigma(x(t))^T rho - Dl(x(t))^T`` is linear in
    rho.  Augmented to ``z = [rho; 1]`` it reads ``zdot = A(t) z`` with
    ``A = [[-J^T, -g], [0, 0]]``, which is propagated backward from ``T``
    with one fourth-order Magnus step across each interval between ``x``'s
    own knots: no adaptive solve.  Each step reads the state at the
    interval's two Gauss nodes from ``x``'s Hermite interpolant, so the
    adjoint shares the state curve's knots and its accuracy follows them
    (their spacing and the state solver's tolerances).

    The work is batched over the whole horizon, not per segment: the
    Gauss-node states of every interval come from one read of ``x``
    (:func:`_gauss_states`); the intervals are cut, from the last
    one back, into stacks of :func:`_stack_intervals` intervals that run
    across segment boundaries, and each stack's propagators take one
    Jacobian call per mode it holds, one cost-gradient call and one
    exponential; the knot derivatives take one call of each per segment.

    Parameters
    ----------
    sys : SwitchedSystem
    schedule : ModeSchedule
    x : SampledCurve
        State trajectory from :func:`integrate_state` over ``schedule``;
        the adjoint's knots and accuracy come from it.  ``ValueError``
        when its segment boundaries are not the schedule's (within
        ``1e-12`` of the horizon).

    Returns
    -------
    SampledCurve
        Adjoint on the same partition and knots as ``x``; continuous, with
        derivative jumps at switching times.
    """
    _check_partition(x, schedule)
    n = sys.dim
    seq = schedule.sequence
    offs, h, xg = _gauss_states(x)
    last = offs[-1]
    ws = np.empty((last + 1, n + 1))
    ws[last, :n] = 0.0
    ws[last, n] = 1.0  # [rho(T)^T, 1]
    # stacks of intervals from the last one back, each propagated from its
    # right end across the segments it holds
    size = _stack_intervals(n)
    for hi in range(last, 0, -size):
        lo = max(0, hi - size)
        rows = {}  # per mode, the stack's Gauss-node rows in it
        for i in range(bisect.bisect_right(offs, lo) - 1,
                       bisect.bisect_left(offs, hi)):
            rows.setdefault(seq[i], []).append(
                slice(2 * (max(offs[i], lo) - lo),
                      2 * (min(offs[i + 1], hi) - lo)))
        W = _magnus_exponents(sys, rows, xg[2 * lo:2 * hi], h[lo:hi])
        ws[lo:hi] = _sweep(_expm(W), ws[hi])
    # knot derivatives, one batch per segment (one per mode, over all its
    # segments, ran slower at dimension 24 and no faster at 6); the stacked
    # matmul runs one BLAS product per knot, the same as a pointwise
    # J^T @ rho
    rhos = [ws[a:b + 1, :n] for a, b in zip(offs, offs[1:])]
    slopes = []
    for m, (_, xs, _), rs in zip(seq, x.knots, rhos):
        slopes.append(-(rs[:, None, :] @ sys.mode_jacobian(m, xs))[:, 0]
                      - sys.running_cost_gradient(xs))
    return SampledCurve._trusted(
        schedule.boundaries,
        [(k[0], r, f) for k, r, f in zip(x.knots, rhos, slopes)])


def _stack_intervals(n):
    """Knot intervals per Magnus stack of the adjoint at state dimension
    ``n``: :data:`MAGNUS_STACK` entries, and never fewer than 64."""
    return max(64, MAGNUS_STACK // (n + 1) ** 2)


def _gauss_states(x):
    """The knot intervals of the curve ``x``, over all its segments in
    order: ``offs``, where segment ``i``'s intervals are ``offs[i] ..
    offs[i + 1] - 1``, their lengths ``h``, shape ``(L,)``, and the state
    at each interval's two Gauss nodes, two rows per interval, ``(2 L,
    n)``.

    The states are one :meth:`SampledCurve.read` of ``x``, each node on
    its interval's segment, so each holds the bits of ``x(t, seg=i)``, a
    node that rounds onto a knot reads that knot's value, and a node
    between the knots of a piece that overflows (an interval a few float
    spacings long) raises the read's ``ValueError``."""
    ts, _, _, _, _, last = x._knot_arrays()
    offs = [0, *(last - np.arange(len(last))).tolist()]
    # every knot but a segment's last starts an interval
    a = np.delete(np.arange(len(ts)), last)
    t0 = ts[a]
    h = ts[a + 1] - t0
    segs = np.repeat(np.arange(len(last)), 2 * np.diff(offs))
    xg = x.read(segs, (t0[:, None] + h[:, None] * _GAUSS).ravel())[0]
    return offs, h, xg


def _magnus_exponents(sys, rows, xg, h):
    """Magnus exponents of the adjoint's backward propagators over
    intervals of lengths ``h``.

    In row form the augmented adjoint ``w = [rho^T, 1]`` solves
    ``wdot = -w U`` with ``U = [[J, 0], [g^T, 0]]``, the transpose of the
    column form ``[[-J^T, -g], [0, 0]]``.  Across an interval ``[t, t + h]``
    in mode ``m``, ``w(t) = w(t + h) exp(W)`` with the fourth-order Magnus
    exponent ``W = h/2 (U1 + U2) + sqrt(3) h^2/12 [U2, U1]``, where ``U1``,
    ``U2`` are taken at the states ``xg`` at the two Gauss nodes (two rows
    per interval); this is ``-Omega`` of the column form, transposed.
    ``rows`` maps each mode to the slices of ``xg`` in it.  The Jacobians
    come from one batched call per mode, the cost gradients from one call.
    Returns the ``W``, whose exponentials :func:`_expm` takes after ``U``
    is freed.
    """
    n = sys.dim
    U = np.empty((len(xg), n + 1, n + 1))
    for m, parts in rows.items():
        sel = parts[0] if len(parts) == 1 else np.r_[tuple(parts)]
        U[sel, :n, :n] = sys.mode_jacobian(m, xg[sel])
    U[:, n, :n] = sys.running_cost_gradient(xg)
    U[:, :, n] = 0.0
    V = U.reshape(len(h), 2, n + 1, n + 1)  # an interval's two nodes
    U1, U2 = V[:, 0], V[:, 1]
    h = h[:, None, None]
    # in place: no more than one temporary the size of W beside U
    W = U2 @ U1
    W -= U1 @ U2
    W *= np.sqrt(3.0) / 12.0 * h * h
    S = V.sum(axis=1)  # U1 + U2, with no buffered strided add
    S *= 0.5 * h
    W += S
    return W


def _taylor_plan(theta):
    """``(squarings, degree)`` of a Taylor series for ``exp(W)`` with
    ``|W| <= theta``: the fewest matrix products whose remainder bound at
    ``theta / 2**s`` is below unit roundoff."""
    s0 = max(0, int(np.ceil(np.log2(theta)))) if theta > 0.0 else 0
    plans = []
    for s in range(s0, s0 + 4):
        t = theta / 2.0 ** s  # <= 1
        m, term = 1, t * t / 2.0  # term = t^(m+1) / (m+1)!
        while term / (1.0 - t / (m + 2)) > _UNIT_ROUNDOFF:
            m += 1
            term *= t / (m + 1)
        plans.append((m + s, s, m))
    return min(plans)[1:]


def _expm(W):
    """``exp`` of each matrix in the stack ``W``, shape ``(k, p, p)``.

    A Taylor series in Horner form, batched over the stack, with scaling
    and squaring.  Degree and scaling come from the largest infinity-norm
    in the stack (the 1-norm of the column-form exponent), so that the
    series' remainder is below double rounding for every matrix, however
    coarse the knots.  ``scipy.linalg.expm`` would loop over the stack.
    """
    p = W.shape[-1]
    theta = float((np.abs(W) @ np.ones(p)).max(initial=0.0))
    if not np.isfinite(theta):
        raise RuntimeError("adjoint propagation failed: non-finite "
                           "Jacobian or cost gradient")
    s, m = _taylor_plan(theta)
    if s:
        W = W * 2.0 ** -s
    E = W * (1.0 / math.factorial(m))
    # each E is a fresh C-ordered stack: its rows of p*p entries, strided
    # by p + 1, are views of the diagonals
    E.reshape(len(E), -1)[:, ::p + 1] += 1.0 / math.factorial(m - 1)
    for k in range(m - 2, -1, -1):
        E = W @ E
        E.reshape(len(E), -1)[:, ::p + 1] += 1.0 / math.factorial(k)
    for _ in range(s):
        E = E @ E
    return E


def _sweep(N, w):
    """Row vectors ``w_k = w_{k+1} N_k`` for ``k = L-1 .. 0`` from
    ``w_L = w``; returns ``w_0 .. w_{L-1}``, shape ``(L, p)``."""
    out = np.empty((len(N), len(w)))
    for k in range(len(N) - 1, -1, -1):
        w = w @ N[k]
        out[k] = w
    return out
