"""Trajectory, adjoint, and cost integration for switched systems.

Integration is restarted exactly at each switching time, so no solver step
ever straddles a vector-field discontinuity.  Each segment is solved with an
adaptive high-order explicit Runge-Kutta method (Dormand-Prince 8) and
resampled onto (time, value, derivative) knots; a cubic Hermite interpolant
through those knots makes both the curve and its time derivative cheaply
evaluable anywhere, with one-sided limits at segment boundaries.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

log = logging.getLogger(__name__)

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-9
#: default number of Hermite knots per unit horizon (spacing = horizon/512)
KNOTS_PER_HORIZON = 512


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
        ``running_cost(x) -> float`` integrand of the trajectory cost.
    running_cost_gradient : callable
        ``running_cost_gradient(x) -> (n,)`` gradient of the integrand.
    vectorized : bool
        When True, all four callables also accept stacked states of shape
        ``(k, n)``: ``mode_field`` returns ``(k, n)``, ``mode_jacobian``
        ``(k, n, n)``, ``running_cost`` ``(k,)`` and
        ``running_cost_gradient`` ``(k, n)``.  A single state ``(n,)``
        still gives the unstacked shapes above.
    name : str
        Label used in logs and run manifests.

    The solvers call ``mode_field`` and ``running_cost`` (forward) or
    ``mode_jacobian`` and ``running_cost_gradient`` (adjoint) once per
    Runge-Kutta stage, on a single ``(n,)`` state: about 80k stages in the
    50-window power receding-horizon run.  Per-call overhead dominates
    there, so a model should compute whatever does not depend on the state
    once, when it builds the callables, rather than inside them.
    """

    num_modes: int
    dim: int
    mode_field: callable
    mode_jacobian: callable
    running_cost: callable
    running_cost_gradient: callable
    vectorized: bool = False
    name: str = "system"

    def field_at(self, i, xs):
        """Mode-``i`` field at stacked states ``xs`` of shape ``(k, n)``."""
        xs = np.asarray(xs, float)
        if self.vectorized:
            return np.asarray(self.mode_field(i, xs), float)
        return np.array([self.mode_field(i, x) for x in xs], float)

    def cost_at(self, xs):
        xs = np.asarray(xs, float)
        if self.vectorized:
            return np.asarray(self.running_cost(xs), float)
        return np.array([self.running_cost(x) for x in xs], float)

    def jacobian_at(self, i, xs):
        """Mode-``i`` Jacobians at stacked states; shape ``(k, n, n)``."""
        xs = np.asarray(xs, float)
        if self.vectorized:
            return np.asarray(self.mode_jacobian(i, xs), float)
        return np.array([self.mode_jacobian(i, x) for x in xs], float)

    def cost_gradient_at(self, xs):
        """Running-cost gradients at stacked states; shape ``(k, n)``."""
        xs = np.asarray(xs, float)
        if self.vectorized:
            return np.asarray(self.running_cost_gradient(xs), float)
        return np.array([self.running_cost_gradient(x) for x in xs], float)


class SampledCurve:
    """Piecewise cubic-Hermite curve built from per-segment knots.

    Knots are ``(t, value, derivative)`` triples; the derivative data come
    from the ODE right-hand side, so between knots the interpolant and its
    derivative are both third/second-order accurate and no finite
    differencing is ever needed.  The curve is continuous across segment
    boundaries (each boundary sample is shared), while the derivative may
    jump there; ``side`` selects the one-sided limit.

    Parameters
    ----------
    boundaries : array_like, shape (M+1,)
        Segment boundaries, strictly increasing.
    segments : list of (ts, ys, fs)
        Per-segment knot data: ``ts`` shape ``(k,)``, ``ys`` and ``fs``
        shape ``(k, n)``.
    cost_curve : SampledCurve, optional
        Scalar running-cost accumulator riding along the same partition.
    """

    def __init__(self, boundaries, segments, cost_curve=None):
        self.boundaries = np.asarray(boundaries, float)
        if len(segments) != len(self.boundaries) - 1:
            raise ValueError(
                f"{len(segments)} segments for {len(self.boundaries)} boundaries"
            )
        self.knots = []
        self._splines = []
        self._dsplines = []
        for ts, ys, fs in segments:
            ts = np.asarray(ts, float)
            ys = np.asarray(ys, float)
            fs = np.asarray(fs, float)
            if ys.ndim == 1:
                ys = ys[:, None]
            if fs.ndim == 1:
                fs = fs[:, None]
            sp = CubicHermiteSpline(ts, ys, fs, axis=0)
            self.knots.append((ts, ys, fs))
            self._splines.append(sp)
            self._dsplines.append(sp.derivative())
        self.dim = self.knots[0][1].shape[1]
        self.t0 = float(self.boundaries[0])
        self.t1 = float(self.boundaries[-1])
        self.cost_curve = cost_curve
        # what integrate_state solved this curve from, for prefix reuse
        self._inputs = None

    @property
    def n_segments(self):
        return len(self._splines)

    @property
    def cost(self):
        """Total accumulated running cost (requires a cost accumulator)."""
        if self.cost_curve is None:
            raise AttributeError("curve was built without a cost accumulator")
        return float(self.cost_curve(self.t1)[0])

    def cost_at(self, t):
        if self.cost_curve is None:
            raise AttributeError("curve was built without a cost accumulator")
        return float(self.cost_curve(t)[0])

    def segment_of(self, t, side="right"):
        """Segment index whose interpolant governs ``t``.

        ``side="right"`` resolves an interior boundary to the later
        segment, ``side="left"`` to the earlier one.
        """
        which = "right" if side == "right" else "left"
        i = int(np.searchsorted(self.boundaries, t, side=which)) - 1
        return min(max(i, 0), self.n_segments - 1)

    def __call__(self, t, side="right"):
        """Curve value(s) at ``t`` (scalar or array)."""
        if np.ndim(t) == 0:
            i = self.segment_of(float(t), side)
            return self._splines[i](np.clip(t, self.t0, self.t1))
        return self._eval_many(np.asarray(t, float), self._splines, side)

    def derivative(self, t, side="right"):
        """Interpolant time-derivative at ``t``; one-sided at boundaries."""
        if np.ndim(t) == 0:
            i = self.segment_of(float(t), side)
            return self._dsplines[i](np.clip(t, self.t0, self.t1))
        return self._eval_many(np.asarray(t, float), self._dsplines, side)

    def eval_in_segment(self, i, t):
        """Evaluate segment ``i``'s interpolant (clamped to its span)."""
        a, b = self.boundaries[i], self.boundaries[i + 1]
        return self._splines[i](np.clip(t, a, b))

    def derivative_in_segment(self, i, t):
        a, b = self.boundaries[i], self.boundaries[i + 1]
        return self._dsplines[i](np.clip(t, a, b))

    def _eval_many(self, ts, splines, side):
        which = "right" if side == "right" else "left"
        idx = np.searchsorted(self.boundaries, ts, side=which) - 1
        idx = np.clip(idx, 0, self.n_segments - 1)
        tc = np.clip(ts, self.t0, self.t1)
        out = np.empty((len(ts), self.dim))
        for i in np.unique(idx):
            sel = idx == i
            out[sel] = np.atleast_2d(splines[i](tc[sel]))
        return out


def _knot_times(a, b, sol_ts, horizon, knot_spacing):
    """Union of solver steps and a uniform grid, deduplicated."""
    h = knot_spacing if knot_spacing is not None else horizon / KNOTS_PER_HORIZON
    n_uni = max(2, int(np.ceil((b - a) / h)) + 1)
    ts = np.union1d(np.linspace(a, b, n_uni), np.asarray(sol_ts, float))
    keep = np.concatenate(([True], np.diff(ts) > 1e-14 * max(1.0, abs(b))))
    ts = ts[keep]
    ts[0], ts[-1] = a, b
    return ts


def integrate_state(sys, x0, schedule, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                    knot_spacing=None, reuse=None):
    """Integrate the switched system forward over a schedule.

    The running cost rides along as an extra accumulator state, so the
    returned curve exposes ``.cost`` and ``.cost_at`` with solver accuracy.

    Parameters
    ----------
    sys : SwitchedSystem
    x0 : array_like, shape (n,)
        Initial state.
    schedule : ModeSchedule
    rtol, atol : float
        Solver tolerances (applied to state and accumulator alike).
    knot_spacing : float, optional
        Maximum spacing of interpolation knots; default ``horizon/512``.
    reuse : SampledCurve, optional
        An earlier result of this function.  The leading segments it
        shares with ``schedule`` (same mode, same end times) are copied
        rather than solved again, which gives the same bits, since each
        segment restarts from the previous one's pinned end knot.  Nothing
        is copied from a curve solved from another system, ``x0``,
        horizon or settings.

    Returns
    -------
    SampledCurve
        State trajectory on ``[0, T]`` with segment boundaries at the
        switching times and a scalar cost accumulator attached.
    """
    x0 = np.asarray(x0, float)
    if x0.shape != (sys.dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({sys.dim},)")
    n = sys.dim
    inputs = (sys, schedule, rtol, atol, knot_spacing)
    x_segs, c_segs = _shared_prefix(inputs, x0, reuse)
    if x_segs:
        z = np.concatenate([x_segs[-1][1][-1], c_segs[-1][1][-1]])
    else:
        z = np.concatenate([x0, [0.0]])
    bnds = schedule.boundaries
    field, cost = sys.mode_field, sys.running_cost
    for i in range(len(x_segs), schedule.n_segments):
        m = schedule.sequence[i]

        def rhs(t, zz, m=m):
            x = zz[:n]
            dz = np.empty(n + 1)
            dz[:n] = field(m, x)
            dz[n] = cost(x)
            return dz

        def fs_batch(ts, zs, m=m):
            return np.column_stack(
                [sys.field_at(m, zs[:, :n]), sys.cost_at(zs[:, :n])]
            )

        ts, zs, fs, z = _solve_segment(rhs, fs_batch, bnds[i], bnds[i + 1],
                                       z, rtol, atol, schedule.horizon,
                                       knot_spacing)
        x_segs.append((ts, zs[:, :n], fs[:, :n]))
        c_segs.append((ts, zs[:, n:], fs[:, n:]))
    cost_curve = SampledCurve(bnds, c_segs)
    x = SampledCurve(bnds, x_segs, cost_curve=cost_curve)
    x._inputs = inputs
    return x


def _shared_prefix(inputs, x0, curve):
    """State and cost knots of the leading segments that a solve of
    ``inputs`` from ``x0`` would repeat from ``curve``; two empty lists if
    none.  The curve's first knot is its pinned initial state."""
    if curve is None or curve._inputs is None:
        return [], []
    sys, sched, *settings = inputs
    sys1, sched1, *settings1 = curve._inputs
    if sys1 is not sys or settings1 != settings \
            or sched1.horizon != sched.horizon \
            or not np.array_equal(curve.knots[0][1][0], x0):
        return [], []
    b, b1 = sched.boundaries, sched1.boundaries
    k = 0
    while k < min(sched.n_segments, sched1.n_segments) \
            and sched.sequence[k] == sched1.sequence[k] \
            and b[k + 1] == b1[k + 1]:
        k += 1
    return curve.knots[:k], curve.cost_curve.knots[:k]


def _solve_segment(rhs, fs_batch, t0, t1, z0, rtol, atol, horizon,
                   knot_spacing):
    """One smooth segment from ``t0`` to ``t1``, forward or backward in time.

    Solves, then resamples onto Hermite knots in increasing time, with the
    knot derivatives from one ``fs_batch(ts, zs)`` call.  Returns
    ``(ts, zs, fs, z1)`` where ``z1`` is the solution at ``t1``.
    """
    a, b = min(t0, t1), max(t0, t1)
    if b - a < 1e-13 * horizon:  # degenerate sliver: one explicit step
        z1 = z0 + (t1 - t0) * rhs(t0, z0)
        ts = np.array([a, b])
        zs = np.empty((2, len(z0)))
    else:
        sol = solve_ivp(rhs, (t0, t1), z0, method="DOP853",
                        dense_output=True, rtol=rtol, atol=atol)
        if not sol.success:
            raise RuntimeError(
                f"integration failed on [{a}, {b}]: {sol.message}")
        z1 = sol.y[:, -1]
        ts = _knot_times(a, b, sol.t, horizon, knot_spacing)
        zs = sol.sol(ts).T
    zs[0], zs[-1] = (z0, z1) if t0 < t1 else (z1, z0)
    return ts, zs, fs_batch(ts, zs), z1


def integrate_adjoint(sys, schedule, x, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                      knot_spacing=None):
    """Integrate the first-order adjoint backward from rho(T) = 0.

    Solves ``rhodot = -Df_sigma(x(t))^T rho - Dl(x(t))^T`` segment by
    segment in reverse order, reading the state from ``x``'s own segment
    interpolants so boundary lookups stay one-sided.

    Returns
    -------
    SampledCurve
        Adjoint on the same partition as the schedule; continuous, with
        derivative jumps at switching times.
    """
    if abs(x.t1 - schedule.horizon) > 1e-12 * schedule.horizon:
        raise ValueError("state curve and schedule cover different horizons")
    bnds = schedule.boundaries
    rho = np.zeros(sys.dim)
    segs = [None] * schedule.n_segments
    jac, grad = sys.mode_jacobian, sys.running_cost_gradient
    for i in range(schedule.n_segments - 1, -1, -1):
        a, b = bnds[i], bnds[i + 1]
        m = schedule.sequence[i]
        # the state on this segment, clamped to its span as in
        # eval_in_segment, without a lookup and np.clip per stage
        spline = x._splines[i]
        lo, hi = float(x.boundaries[i]), float(x.boundaries[i + 1])

        def rhs(t, r, m=m, spline=spline, lo=lo, hi=hi):
            xt = spline(min(max(t, lo), hi))
            return -(jac(m, xt).T @ r) - grad(xt)

        # knot derivatives in one batch; the stacked matmul runs the same
        # BLAS kernel per knot as rhs's J^T @ r, so they match it bitwise
        def fs_batch(ts, rs, i=i, m=m):
            xs = x.eval_in_segment(i, ts)
            return -(rs[:, None, :] @ sys.jacobian_at(m, xs))[:, 0] \
                - sys.cost_gradient_at(xs)

        ts, rs, fs, rho = _solve_segment(rhs, fs_batch, b, a, rho, rtol,
                                         atol, schedule.horizon,
                                         knot_spacing)
        segs[i] = (ts, rs, fs)
    return SampledCurve(bnds, segs)


def evaluate_cost(sys, x):
    """Total cost of a trajectory: the integral of the running cost.

    Reads the accumulator that :func:`integrate_state` attaches; a curve
    built without one raises ``AttributeError``.
    """
    return x.cost
