"""Max-projection of descent-direction signals onto feasible schedules.

The relaxed signal ``u - gamma*d`` (one-hot control minus a scaled
insertion-gradient field) generally leaves the set of vertex-valued
controls.  The max-projection picks at every instant the mode of largest
component, which reduces to a simple threshold rule: the active mode
changes to ``argmin_a d_a(t)`` wherever ``min_a d_a(t) < -1/gamma`` and
stays with the incumbent elsewhere.  Projecting is therefore a matter of
locating the threshold crossings, assembling the new schedule, and
re-integrating.  Each crossing is a bracketed root of the field; the
crossings of all segments are solved together, as the field's minima
are (:func:`.gradient._solve_roots`): estimated from the cubic through
the neighbouring samples, then refined by batched reads of the field's
values, one ``channels_at`` call per round for every open crossing
whatever its segment, in Newton/secant rounds and then by bisection.  A
segment with no sample below the threshold keeps its mode without that
work.
Applied to an already-feasible pair (``gamma = 0`` or a one-hot signal)
the map is the identity, which makes it a projection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gradient import ROOT_TOL, _interpolant, _solve_roots
from .integrate import Abandoned, integrate_state, DEFAULT_RTOL, DEFAULT_ATOL
from .signals import ModeSchedule, enforce_dwell

#: default minimum dwell, relative to the horizon
DWELL_DEFAULT = 1e-6


class DegenerateTieError(RuntimeError):
    """Two channels tie at the minimum over an interval of times."""


def gamma_zero(theta):
    """Largest step size for which the projection is still the identity.

    ``None`` when ``theta >= 0`` (no insertion helps; every step size
    projects back to the current schedule).
    """
    if theta >= 0.0:
        return None
    return -1.0 / theta


def _winners(lowest, inc, threshold, ts, seg):
    """Active-mode choice of the max rule at the sample times ``ts`` of
    segment ``seg``, from the field's ``lowest[seg]``."""
    dmin, modes, tie_runs = lowest
    below = dmin < threshold
    if tie_runs.size:
        # an exact tie at the minimum over three samples in a row while
        # below threshold breaks the argmax's uniqueness assumption
        runs = tie_runs[below[tie_runs] & below[tie_runs + 1]
                        & below[tie_runs + 2]]
        if runs.size:
            j = runs[0]
            raise DegenerateTieError(
                f"degenerate argmax tie below threshold on "
                f"[{ts[j]:.6g}, {ts[j + 2]:.6g}] (segment {seg})")
    return np.where(below, modes, inc)


def _segment_spans(field, segs, gamma):
    """(start, end, mode) spans of each segment of ``segs`` under the max
    rule, one list per segment, in the order of ``segs``.

    Winners are taken on the field's ``samples[seg]``, its grid and
    interior minima, from the lowest channel there (``lowest[seg]``, kept
    by the field for every trial); each change of winner between two
    adjacent samples is the root of ``E_new - E_old``, where ``E_a = d_a``
    for a challenger and the incumbent's ``E`` is ``min(d_inc, -1/gamma)``,
    so that the max rule is ``argmin E``.  Every interval where a
    challenger beats the threshold holds a local minimum of its channel,
    and the field's minima are samples, so no such interval hides between
    two samples.  The crossings of all the segments are solved together
    by :func:`.gradient._solve_roots` to ``ROOT_TOL * horizon``, each
    estimated from the cubic through ``E_new - E_old`` at the four
    samples around its bracket (fewer at the segment's ends) and refined
    by batched ``channels_at`` value calls, one per round for the
    crossings of every segment, each with the rounding bounds of its two
    channels summed.
    """
    sched = field.schedule
    threshold = -1.0 / gamma

    def gap(d_new, d_old, new, old, inc):
        """``E_new - E_old`` from the two channels' values."""
        e = lambda v, m: min(v, threshold) if m == inc else v
        return e(d_new, new) - e(d_old, old)

    tol = ROOT_TOL * sched.horizon
    # per segment its first winner and where its crossings start; per
    # crossing its bracket and (seg, new, old, inc)
    firsts, offs, brackets, crossings = [], [], [], []
    for seg in segs:
        offs.append(len(crossings))
        inc = sched.sequence[seg]
        ts, D = field.samples[seg]
        w = _winners(field.lowest[seg], inc, threshold, ts, seg)
        firsts.append(int(w[0]))
        for j in np.flatnonzero(w[1:] != w[:-1]).tolist():
            new, old = int(w[j + 1]), int(w[j])
            near = range(max(j - 1, 0), min(j + 3, len(ts)))
            g = [gap(float(D[i, new - 1]), float(D[i, old - 1]), new, old,
                     inc) for i in near]
            at = j - near.start
            brackets.append((float(ts[j]), float(ts[j + 1]), g[at],
                             g[at + 1],
                             _interpolant([float(ts[i]) for i in near], g)))
            crossings.append((seg, new, old, inc))

    def evaluate(ks, pts, bound):
        cols = sorted({m for k in ks for m in crossings[k][1:3]})
        V, E = field.channels_at(np.array([crossings[k][0] for k in ks]),
                                 np.array(pts), cols, 0, bound)
        V, E = V.tolist(), E.tolist()
        f, err = [], []
        for i, k in enumerate(ks):
            _, new, old, inc = crossings[k]
            a, b = cols.index(new), cols.index(old)
            f.append(gap(V[i][a], V[i][b], new, old, inc))
            err.append(E[i][a] + E[i][b])
        return f, err

    roots = _solve_roots(brackets, evaluate, tol)
    offs.append(len(crossings))
    spans = []
    for seg, first, lo, hi in zip(segs, firsts, offs, offs[1:]):
        a, b = sched.segment_bounds(seg)
        cuts = [a, *roots[lo:hi], b]
        modes = [first] + [new for _, new, _, _ in crossings[lo:hi]]
        spans.append([(t0, t1, m) for t0, t1, m
                      in zip(cuts[:-1], cuts[1:], modes) if t1 - t0 > tol])
    return spans


def max_map(u, field, gamma, dwell=None):
    """Project the signal ``u - gamma*d`` onto a feasible schedule.

    In each segment of ``u`` the max rule is evaluated on the field's
    sampling grid and its interior minima; every change of winner between
    two samples is cut at the root of the two modes' difference, solved
    on the field to ``ROOT_TOL * horizon`` together with the crossings of
    every other segment, one field read per round
    (:func:`_segment_spans`).  A segment whose lowest sample value
    (``field.lowest[seg]``) is at or above ``-1/gamma`` has no winner but
    its incumbent, so it is kept whole without that work, as the span
    :func:`_segment_spans` would give it.

    Parameters
    ----------
    u : ModeSchedule
        Incumbent feasible schedule.
    field : InsertionGradientField or None
        Insertion-gradient field of the incumbent; ``None`` means a pure
        vertex signal (the map is then the identity on ``u``).
    gamma : float or None
        Step size; ``None`` or ``<= 0`` gives the identity.
    dwell : float, optional
        Minimum segment length of the output; shorter segments are merged
        into their longer neighbor (:func:`.enforce_dwell`).  Default
        ``1e-6 * horizon``.

    Returns
    -------
    ModeSchedule
    """
    if field is None or gamma is None or gamma <= 0.0:
        return u
    if dwell is None:
        dwell = DWELL_DEFAULT * u.horizon
    sched = field.schedule
    threshold = -1.0 / gamma
    tol = ROOT_TOL * sched.horizon
    crossed = [seg for seg in range(u.n_segments)
               if field.lowest[seg][0].min() < threshold]
    below = dict(zip(crossed, _segment_spans(field, crossed, gamma)))
    spans = []
    for seg in range(u.n_segments):
        if seg in below:
            spans.extend(below[seg])
            continue
        a, b = sched.segment_bounds(seg)
        if b - a > tol:
            spans.append((a, b, sched.sequence[seg]))
    seq = tuple(m for _, _, m in spans)
    times = tuple(lo for lo, _, _ in spans[1:])
    out = ModeSchedule(seq, times, u.horizon, u.num_modes)
    return enforce_dwell(out, dwell)


@dataclass
class ProjectionResult:
    """A projected schedule with its re-integrated trajectory and cost.

    An abandoned integration (see :func:`project`) has ``trajectory=None``,
    ``cost=inf`` and the time where it stopped in ``abandoned_at``: the
    first segment start or accepted solver step end where its cost was
    sure to exceed the bound.
    """

    schedule: ModeSchedule
    trajectory: object
    cost: float
    abandoned_at: float | None = None


def project(sys, x0, u, field, gamma, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
            knot_spacing=None, reuse=None, cost_bound=None):
    """Full projection: threshold the signal, then re-integrate.

    Composition of :func:`max_map` and trajectory integration; the
    returned cost comes from the integrator's running-cost accumulator.
    ``reuse`` is the incumbent's trajectory: the projected schedule agrees
    with ``u`` up to its first crossing, and :func:`integrate_state`
    copies the whole segments before it from ``reuse`` and replays the
    solver steps that the segment ending at the crossing shares with its
    incumbent solve, instead of solving them again.
    ``cost_bound`` is passed to :func:`integrate_state`: once the
    projected schedule's cost is sure to exceed it (which needs a
    ``cost_floor`` on ``sys``), the integration stops early and the result
    is marked abandoned, with an infinite cost, at the segment start or
    solver step end where it stopped.
    """
    sched = max_map(u, field, gamma)
    x = integrate_state(sys, x0, sched, rtol=rtol, atol=atol,
                        knot_spacing=knot_spacing, reuse=reuse,
                        cost_bound=cost_bound)
    if isinstance(x, Abandoned):
        return ProjectionResult(sched, None, math.inf, abandoned_at=x.time)
    return ProjectionResult(sched, x, x.cost)
