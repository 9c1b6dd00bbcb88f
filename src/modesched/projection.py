"""Max-projection of descent-direction signals onto feasible schedules.

The relaxed signal ``u - gamma*d`` (one-hot control minus a scaled
insertion-gradient field) generally leaves the set of vertex-valued
controls.  The max-projection picks at every instant the mode of largest
component, which reduces to a simple threshold rule: the active mode
changes to ``argmin_a d_a(t)`` wherever ``min_a d_a(t) < -1/gamma`` and
stays with the incumbent elsewhere.  Projecting is therefore a matter of
locating the threshold crossings, assembling the new schedule, and
re-integrating.  Each crossing is a bracketed root of the field, solved
as the field's minima are (see :mod:`.gradient`).  Applied to an
already-feasible pair (``gamma = 0`` or a one-hot signal) the map is the
identity, which makes it a projection.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradient import ROOT_TOL, _bracketed_root
from .integrate import integrate_state, DEFAULT_RTOL, DEFAULT_ATOL
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


def _winners_from_values(D, inc, gamma, ts=None, seg=None):
    """Active-mode choice of the max rule given channel values ``D``."""
    dmin = D.min(axis=1)
    amin = D.argmin(axis=1) + 1
    w = np.where(dmin < -1.0 / gamma, amin, inc)
    # flag exact ties at the minimum while below threshold: a tie that
    # persists over an interval breaks the argmax's uniqueness assumption
    if ts is not None and len(ts) >= 3:
        D2 = np.partition(D, 1, axis=1)
        tied = (D2[:, 1] - D2[:, 0] <= 1e-14 * (1.0 + np.abs(dmin))) \
            & (dmin < -1.0 / gamma)
        run = 0
        for j, flag in enumerate(tied):
            run = run + 1 if flag else 0
            if run >= 3:
                raise DegenerateTieError(
                    f"degenerate argmax tie below threshold on "
                    f"[{ts[j - 2]:.6g}, {ts[j]:.6g}] (segment {seg})"
                )
    return w


def _segment_spans(field, seg, gamma):
    """(start, end, mode) spans for one segment under the max rule.

    Winners are taken on the grid and the segment's interior minima; each
    change of winner between two adjacent samples is the root of
    ``E_new - E_old``, where ``E_a = d_a`` for a challenger and the
    incumbent's ``E`` is ``min(d_inc, -1/gamma)``, so that the max rule is
    ``argmin E``.  Every interval where a challenger beats the threshold
    holds a local minimum of its channel, and the field's minima are
    samples, so no such interval hides between two samples.
    """
    sched = field.schedule
    a, b = sched.segment_bounds(seg)
    inc = sched.sequence[seg]
    threshold = -1.0 / gamma
    ts = field.grid(seg)
    D = field.grid_values(seg)
    extra = [m["time"] for m in field.local_minima()
             if m["segment"] == seg and m["boundary"] is None]
    if extra:
        te = np.asarray(extra, float)
        De = field.values_in_segment(seg, te)
        ts = np.concatenate([ts, te])
        D = np.vstack([D, De])
        order = np.argsort(ts, kind="stable")
        ts, D = ts[order], D[order]
        keep = np.concatenate(([True], np.diff(ts) > 0))
        ts, D = ts[keep], D[keep]
    w = _winners_from_values(D, inc, gamma, ts=ts, seg=seg)

    def gap(row, new, old):
        """``E_new - E_old`` from one row of channel values."""
        e = lambda m: min(row[m - 1], threshold) if m == inc else row[m - 1]
        return e(new) - e(old)

    tol = ROOT_TOL * sched.horizon
    cuts, modes = [a], [int(w[0])]
    for j in np.flatnonzero(w[1:] != w[:-1]):
        new, old = int(w[j + 1]), int(w[j])
        f = lambda t, new=new, old=old: gap(
            field.values_in_segment(seg, np.array([t]))[0], new, old)
        cuts.append(_bracketed_root(f, ts[j], ts[j + 1], gap(D[j], new, old),
                                    gap(D[j + 1], new, old), tol))
        modes.append(new)
    cuts.append(b)
    return [(lo, hi, m) for lo, hi, m in zip(cuts[:-1], cuts[1:], modes)
            if hi - lo > tol]


def crossing_times(field, gamma):
    """Times where the max rule changes the active mode, with new modes.

    Returns a list of ``(t, mode)`` pairs in increasing time order; empty
    when ``gamma`` never pushes any channel past the ``-1/gamma``
    threshold.
    """
    if gamma is None or gamma <= 0.0:
        return []
    sched = field.schedule
    out = []
    prev_mode = None
    for seg in range(sched.n_segments):
        for lo, hi, m in _segment_spans(field, seg, gamma):
            if prev_mode is None:
                prev_mode = m
                continue
            if m != prev_mode:
                out.append((lo, m))
                prev_mode = m
    return out


def max_map(u, field, gamma, dwell=None):
    """Project the signal ``u - gamma*d`` onto a feasible schedule.

    In each segment of ``u`` the max rule is evaluated on the field's
    sampling grid and its interior minima; every change of winner between
    two samples is cut at the root of the two modes' difference, found by
    a bracketed root solve on the field to ``ROOT_TOL * horizon``.

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
        into their longer neighbor with a logged warning.  Default
        ``1e-6 * horizon``.

    Returns
    -------
    ModeSchedule
    """
    if field is None or gamma is None or gamma <= 0.0:
        return u
    if dwell is None:
        dwell = DWELL_DEFAULT * u.horizon
    spans = []
    for seg in range(u.n_segments):
        spans.extend(_segment_spans(field, seg, gamma))
    seq = tuple(m for _, _, m in spans)
    times = tuple(lo for lo, _, _ in spans[1:])
    out = ModeSchedule(seq, times, u.horizon, u.num_modes)
    return enforce_dwell(out, dwell)


@dataclass
class ProjectionResult:
    """A projected schedule with its re-integrated trajectory and cost."""

    schedule: ModeSchedule
    trajectory: object
    cost: float


def project(sys, x0, u, field, gamma, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
            knot_spacing=None, reuse=None):
    """Full projection: threshold the signal, then re-integrate.

    Composition of :func:`max_map` and trajectory integration; the
    returned cost comes from the integrator's running-cost accumulator.
    ``reuse`` is the incumbent's trajectory: the projected schedule agrees
    with ``u`` up to its first crossing, and :func:`integrate_state`
    copies that prefix from it instead of solving it again.
    """
    sched = max_map(u, field, gamma)
    x = integrate_state(sys, x0, sched, rtol=rtol, atol=atol,
                        knot_spacing=knot_spacing, reuse=reuse)
    return ProjectionResult(sched, x, x.cost)
