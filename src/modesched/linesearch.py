"""Step-size selection along the negative insertion gradient.

Just past the threshold step ``gamma0`` the projection moves a switching
time at every local minimum of the insertion gradient that attains
``theta``: a new pair at an interior minimum, one new or re-typed existing
switch at a segment end.  Their motion in ``gamma`` is predictable from
one-sided derivatives of the field at those times.  Each moving switch is
classified by type: a type-1 time moves linearly in
``(gamma - gamma0)`` at rate ``theta^2/slope``, a type-2 time (born at a
stationary interior minimum) moves like ``sqrt(gamma - gamma0)``.  Summing
the per-event cost rates gives a negative descent slope ``s`` that turns
the usual sufficient-descent test into
``J(gamma) - J(0) < alpha * s * (gamma - gamma0)^(1/mbar)``, checked by
backtracking from a fixed upper step ``gamma3`` toward ``gamma0``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .gradient import STATIONARY_TOL, CURVATURE_TOL

#: default backtracking contraction and iteration cap
BETA_DEFAULT = 0.4
JMAX_DEFAULT = 40
#: monitor floors: flagged when (gamma1-gamma0)/|theta| or
#: min_curvature/|theta| fall below these
FLOOR_GAMMA_GAP = 1e-3
FLOOR_CURVATURE = 1e-3


class LineSearchError(RuntimeError):
    """The step-size search cannot certify a descent step."""


@dataclass
class SwitchEvent:
    """One switching time of the just-projected schedule and how it moves.

    ``omega = 0`` means the time increases with the step size, ``omega = 1``
    that it decreases.  ``channel`` is the mode whose insertion-gradient
    channel pins the time (the inserted/extended mode); ``slope`` and
    ``curvature`` are that channel's one-sided first and second time
    derivatives at the event.  ``event_type`` is 0 for a stationary
    existing switch, 1/2 for the admissible moving kinds, 3 for anything
    the one-sided data cannot classify (slope and curvature both
    vanishing).
    """

    time: float
    omega: int
    channel: int | None
    event_type: int
    slope: float = 0.0
    curvature: float = 0.0
    is_new: bool = False


def _classify(field, time, omega, channel, side, is_new):
    slope = field.slope(channel, time, side=side)
    curv = field.curvature(channel, time, side=side)
    slope_tol = STATIONARY_TOL * (1.0 + field.norm_inf / field.horizon)
    curv_tol = CURVATURE_TOL * (1.0 + field.norm_inf)
    # A first-order event needs the channel rising away from the moving
    # end: positive slope when the time moves right, negative when left.
    # A clear slope of the wrong sign means the minimum actually sits a
    # hair inside the segment, so fall through to the curvature model.
    sign_ok = slope > 0.0 if omega == 0 else slope < 0.0
    if abs(slope) > slope_tol and sign_ok:
        kind = 1
    elif curv > curv_tol:
        kind = 2
    else:
        kind = 3
    return SwitchEvent(time=time, omega=omega, channel=channel,
                       event_type=kind, slope=slope, curvature=curv,
                       is_new=is_new)


def initial_switch_events(field, opt):
    """Switching-time events of the projection just past ``gamma0``.

    Every local minimum of the field within ``1e-9 (1 + |theta|)`` of
    ``theta`` starts moving.  An interior minimum opens a new interval
    whose edges move apart (``omega = 1`` and ``0``).  A minimum on a
    segment's end moves left (``omega = 1``), one on a segment's start
    moves right (``omega = 0``); it is the existing switch, re-typed,
    when its channel is the mode on the far side of that switch, and a
    new event otherwise (the horizon ends have no far side).  Existing
    switches that nothing re-types stay put (type 0).

    Parameters
    ----------
    field : InsertionGradientField
    opt : OptimalityResult
        Only ``theta`` is read; ``theta >= 0`` gives no events.

    Returns
    -------
    list of SwitchEvent
    """
    theta = opt.theta
    if theta >= 0.0:
        return []
    sched = field.schedule
    match_tol = 1e-9 * (1.0 + abs(theta))
    events, retyped = [], set()
    for m in field.local_minima():
        if m["value"] > theta + match_tol:
            continue
        t, a, seg = m["time"], m["mode"], m["segment"]
        if m["boundary"] is None:
            events += [_classify(field, t, 1, a, "right", True),
                       _classify(field, t, 0, a, "right", True)]
            continue
        # index of the switch at t and the segment on its far side
        if m["boundary"] == "left":
            omega, i, far = 1, seg, seg + 1
        else:
            omega, i, far = 0, seg - 1, seg - 1
        is_new = not (0 <= far < sched.n_segments
                      and sched.sequence[far] == a)
        if not is_new:
            retyped.add(i)
        events.append(_classify(field, t, omega, a, m["boundary"], is_new))
    events += [SwitchEvent(time=t, omega=0, channel=None, event_type=0)
               for i, t in enumerate(sched.times) if i not in retyped]
    return events


def max_type(events):
    """Greatest type among moving events (0 when nothing moves)."""
    return max((e.event_type for e in events if e.event_type != 0),
               default=0)


def descent_slope(events, theta, mbar):
    """Coefficient ``s`` of the local cost model past ``gamma0``.

    For ``mbar = 1`` sums ``(-1)^omega * theta^3 / slope`` over type-1
    events; for ``mbar = 2`` sums ``-sqrt(2) * theta^2 / sqrt(curvature)``
    over type-2 events.  Every admissible event contributes a negative
    term, so ``s < 0``; a nonnegative result means the event data are
    inconsistent and is raised as an error.
    """
    if mbar not in (1, 2):
        raise ValueError(f"mbar must be 1 or 2, got {mbar}")
    chosen = [e for e in events if e.event_type == mbar]
    if not chosen:
        raise ValueError(f"no type-{mbar} events")
    s = 0.0
    for e in chosen:
        if mbar == 1:
            term = (-1.0) ** e.omega * theta**3 / e.slope
        else:
            term = -math.sqrt(2.0) * theta**2 / math.sqrt(e.curvature)
        if term >= 0.0:
            raise LineSearchError(
                f"event at t={e.time:.6g} contributes nonnegative descent "
                f"rate {term:.3g}; slope/curvature signs are inconsistent"
            )
        s += term
    return s


def gamma_three(gamma0, alpha):
    """Fixed upper end of the backtracking interval.

    ``gamma3 = gamma0 * (2 - cbrt(alpha*3*sqrt(2)/2)/3)``; the multiplier
    lies in (1.5717, 2) for ``alpha`` in (0, 1).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    kappa = 2.0 - (alpha * 3.0 * math.sqrt(2.0) / 2.0) ** (1.0 / 3.0) / 3.0
    return gamma0 * kappa


def backtrack(cost_fn, cost0, s, mbar, gamma0, gamma3, alpha,
              beta=BETA_DEFAULT, j_max=JMAX_DEFAULT):
    """Find the first backtracked step satisfying sufficient descent.

    Tries ``gamma(j) = (gamma3 - gamma0) * beta^j + gamma0`` for
    ``j = 0, 1, ...`` and returns ``(gamma, j)`` for the first ``j`` with
    ``cost_fn(gamma) - cost0 < alpha * s * (gamma - gamma0)^(1/mbar)``.

    Raises
    ------
    LineSearchError
        If no admissible step is found within ``j_max`` trials, or as soon
        as a trial repeats ``gamma0``: once ``beta**j * (gamma3 - gamma0)``
        falls below an ulp of ``gamma0`` every later trial is that same
        step, which has already failed the strict test.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0,1), got {beta}")
    if s >= 0.0:
        raise LineSearchError(f"descent slope must be negative, got {s}")
    last = None
    for j in range(j_max + 1):
        gamma = (gamma3 - gamma0) * beta**j + gamma0
        if gamma == last == gamma0:
            raise LineSearchError(
                f"no distinct step remains after {j} backtracking trials: "
                f"gamma has reached gamma0={gamma0:.6g} "
                f"(gamma3={gamma3:.6g})"
            )
        last = gamma
        drop = cost_fn(gamma) - cost0
        if drop < alpha * s * (gamma - gamma0) ** (1.0 / mbar):
            return gamma, j
    raise LineSearchError(
        f"no sufficient-descent step in {j_max} backtracking trials "
        f"(gamma0={gamma0:.6g}, gamma3={gamma3:.6g})"
    )


def gamma_one_estimate(field, gamma0):
    """Sampled estimate of the next step size that changes the schedule's
    crossing structure: the smallest ``-1/v > gamma0`` over sampled local
    minima and one-sided boundary values ``v < 0`` of the field.

    Monitoring only; never used for step acceptance.  ``None`` when no
    further structure change is visible in the samples.
    """
    cands = [-1.0 / c["value"] for c in field.local_minima()
             if c["value"] < 0.0 and -1.0 / c["value"] > gamma0 * (1 + 1e-9)]
    return min(cands, default=None)


def monitor_assumptions(theta, gamma0, gamma1_est, events,
                        floor_gamma_gap=FLOOR_GAMMA_GAP,
                        floor_curvature=FLOOR_CURVATURE):
    """Health flags for the quantities the convergence argument leans on.

    Checks that the differentiability gap ``gamma1 - gamma0`` and the
    smallest type-2 curvature keep pace with ``|theta|``; a dict of
    booleans is returned for reporting.  Detection only — no remediation.
    """
    flags = {"gamma_gap_small": False, "curvature_small": False}
    if theta >= 0.0:
        return flags
    if gamma1_est is not None:
        flags["gamma_gap_small"] = \
            (gamma1_est - gamma0) / abs(theta) < floor_gamma_gap
    curvs = [e.curvature for e in events if e.event_type == 2]
    if curvs:
        flags["curvature_small"] = min(curvs) / abs(theta) < floor_curvature
    return flags
