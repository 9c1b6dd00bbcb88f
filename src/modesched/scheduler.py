"""Iterative mode scheduling and the receding-horizon driver.

One outer iteration integrates the trajectory and adjoint, builds the
insertion-gradient field, classifies how the projected schedule's
switching times move just past the identity threshold, and backtracks a
step size with a type-aware sufficient-descent test.  The loop repeats
from the projected schedule until the optimality function clears a stop
threshold or an iteration budget runs out.

:func:`receding_horizon` wraps the same iteration in a planning window
that slides forward in time, applying only the head of each plan.
"""
from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .signals import ModeSchedule, _is_finite, _is_number
from .integrate import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    KNOTS_PER_HORIZON,
    _shift_curve,
    integrate_adjoint,
    integrate_state,
)
from .gradient import insertion_gradient, optimality
from .projection import gamma_zero, project
from .linesearch import (
    BETA_DEFAULT,
    JMAX_DEFAULT,
    LineSearchError,
    backtrack,
    descent_slope,
    gamma_three,
    initial_switch_events,
    max_type,
    sufficient_descent,
)

log = logging.getLogger(__name__)

#: slack, in solver tolerances ``atol + rtol |J|``, between the
#: sufficient-descent bound and the cost at which a trial integration is
#: abandoned: DOP853's quadrature weights include negative ones, so the
#: accumulator of a nonnegative running cost is monotone at step ends only
#: up to solver error, and the slack keeps that error from abandoning a
#: trial that would pass
ABANDON_SLACK = 10.0


@dataclass
class OptimizerConfig:
    """Knobs for :func:`optimize`.

    ``theta_stop`` is the optimality threshold: iteration stops once
    ``theta >= theta_stop``.  The default ``"auto"`` resolves to
    ``-1e-2 * |theta|`` of the initial schedule, i.e. stop after the
    achievable descent rate has shrunk a hundredfold.  Set ``0.0`` to run
    until no insertion helps at all (or the budget runs out).

    ``max_iter`` and ``j_max`` are integers ``>= 0``, ``rtol`` is finite
    and ``> 0``, ``atol`` finite and ``>= 0`` and a numeric ``theta_stop``
    finite and ``<= 0``, since ``theta`` is never positive and a positive
    stop could never be met; no field takes a bool.
    Invalid values raise ``ValueError`` on construction.

    ``knot_spacing`` (default ``horizon / KNOTS_PER_HORIZON``) caps the
    spacing of the state curve's Hermite knots and may only refine them
    (:func:`optimize` raises ``ValueError`` above the default): the
    adjoint runs on the same knots and the insertion-gradient field is
    sampled on them, so the spacing sets the one time discretization of
    all three.  At ``knot_spacing = horizon`` the adjoint was off its
    closed form by up to 2.9e-6 relative on small linear-quadratic
    problems, against at most 1.8e-11 at the default.
    """

    alpha: float = 0.4
    beta: float = BETA_DEFAULT
    max_iter: int = 50
    theta_stop: object = "auto"
    j_max: int = JMAX_DEFAULT
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    knot_spacing: float = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0,1), got {self.beta}")
        if not (_is_number(self.max_iter, numbers.Integral)
                and _is_number(self.j_max, numbers.Integral)
                and self.max_iter >= 0 and self.j_max >= 0):
            raise ValueError(f"max_iter and j_max must be integers >= 0, "
                             f"got {self.max_iter!r} and {self.j_max!r}")
        if not (_is_number(self.rtol) and 0.0 < self.rtol < math.inf
                and _is_number(self.atol) and 0.0 <= self.atol < math.inf):
            raise ValueError(f"rtol must be finite and > 0, atol finite and "
                             f">= 0, got {self.rtol!r} and {self.atol!r}")
        if not (_is_finite(self.theta_stop) and self.theta_stop <= 0.0
                or self.theta_stop == "auto"):
            raise ValueError(f"theta_stop must be a finite number <= 0 or "
                             f"'auto', got {self.theta_stop!r}")


@dataclass
class IterationReport:
    """One row of the optimization trace: what iteration ``k`` did.

    ``cost``/``theta``/``n_segments`` describe iterate ``k`` (``theta`` is
    nan on a final row that ``optimize(..., final_field=False)`` did not
    build a field for); ``gamma`` and ``j`` describe the accepted step
    taken *from* iterate ``k`` (``None`` on the final row and on failed
    iterations).

    ``events`` are the switching events that typed the step
    (:class:`SwitchEvent`: type, ``omega``, slope, curvature; empty on
    the final row).  ``trials`` holds one
    ``(gamma, cost, abandoned_at, n_segments)`` tuple per distinct
    projection, in the order the line search tried them; an abandoned
    trial has cost ``inf`` and the time its integration stopped in
    ``abandoned_at`` (``None`` otherwise): the first segment start or
    accepted solver step end where its cost was sure to fail the
    sufficient-descent test, at most the horizon.  On an accepted row the
    last trial is the accepted step.  ``reason`` says why a failed row
    stopped the descent (the line-search or type-failure message);
    ``None`` otherwise.
    """

    k: int
    cost: float
    theta: float
    gamma0: float = None
    gamma3: float = None
    gamma: float = None
    j: int = None
    n_segments: int = 1
    events: tuple = ()
    trials: tuple = ()
    reason: str = None


@dataclass
class RunResult:
    """Outcome of :func:`optimize`.

    ``status`` is one of ``"optimal"`` (stop threshold reached),
    ``"max_iter"`` (budget exhausted), ``"type_failure"`` (a switching
    time moved in a way outside the first- and second-order step models),
    or ``"line_search_failure"``.  ``schedule``/``trajectory``/``cost``
    always describe the best (last accepted) iterate, and ``field`` is
    its :class:`InsertionGradientField` (``None`` when ``optimize`` ran
    with ``final_field=False`` and took its last step).  A ``trajectory``
    that ``optimize`` solved keeps no solver steps for a later
    integration to replay; a caller's ``reuse`` curve returned as the
    ``trajectory`` is left as it was.
    """

    schedule: ModeSchedule
    trajectory: object
    cost: float
    status: str
    iterations: list
    theta_final: float
    field: object = None

    @property
    def costs(self):
        """Cost of every iterate, initial schedule first."""
        return [r.cost for r in self.iterations]


def check_knot_spacing(knot_spacing, horizon):
    """Reject a ``knot_spacing`` outside ``(0, h]``, where ``h = horizon /
    KNOTS_PER_HORIZON`` is the default spacing."""
    coarsest = horizon / KNOTS_PER_HORIZON
    if knot_spacing is not None and not 0.0 < knot_spacing <= coarsest:
        raise ValueError(f"knot_spacing must lie in (0, horizon/"
                         f"{KNOTS_PER_HORIZON} = {coarsest:g}], "
                         f"got {knot_spacing!r}")


def check_windows(window, n_windows, advance):
    """Reject a receding-horizon ``window`` that is no finite positive
    number, an ``n_windows`` that is no integer ``>= 1`` and an
    ``advance`` that is no number in ``(0, window]``."""
    if not (_is_number(window) and 0.0 < window < math.inf):
        raise ValueError(f"window must be a finite positive number, "
                         f"got {window!r}")
    if not (_is_number(n_windows, numbers.Integral) and n_windows >= 1):
        raise ValueError(f"n_windows must be an integer >= 1, "
                         f"got {n_windows!r}")
    if not (_is_number(advance) and 0.0 < advance <= window):
        raise ValueError(f"advance must be a number in (0, {window:g}], "
                         f"got {advance!r}")


def optimize(sys, x0, schedule, config=None, *, final_field=True,
             reuse=None):
    """Descend the schedule by projected insertion-gradient steps.

    Parameters
    ----------
    sys : SwitchedSystem
    x0 : ndarray
        Initial state.
    schedule : ModeSchedule
        Starting schedule; also fixes the horizon.  Its mode count must
        be the system's (:func:`integrate_state` checks it).
    config : OptimizerConfig, optional
    final_field : bool
        With ``False``, a run that takes its ``max_iter``-th step (``max_iter
        > 0``) stops there without building the final iterate's adjoint and
        field: the last row and ``theta_final`` carry ``theta = nan``,
        ``field`` is ``None`` and the status is ``"max_iter"``, so the run
        is ``"optimal"`` only when its first iterate already meets the stop.
    reuse : SampledCurve, optional
        Passed to the starting schedule's :func:`integrate_state`: a curve
        solved for this system, schedule, ``x0`` and the config's
        tolerances and knot spacing (a fresh result or a warm start built
        from one) is the starting trajectory itself; from any other curve
        only what that call would solve the same is copied.

    Returns
    -------
    RunResult
    """
    cfg = config or OptimizerConfig()
    check_knot_spacing(cfg.knot_spacing, schedule.horizon)
    u = schedule
    x = integrate_state(sys, x0, u, rtol=cfg.rtol, atol=cfg.atol,
                        knot_spacing=cfg.knot_spacing, reuse=reuse)
    J = x.cost
    rows = []
    status = "max_iter"
    theta_stop = None
    theta = math.nan
    d = None

    for k in range(cfg.max_iter + 1):
        if k == cfg.max_iter > 0 and not final_field:
            rows.append(IterationReport(k=k, cost=J, theta=math.nan,
                                        n_segments=u.n_segments))
            theta, d = math.nan, None
            break
        rho = integrate_adjoint(sys, u, x)
        d = insertion_gradient(sys, u, x, rho)
        opt = optimality(d)
        theta = opt.theta
        g0 = gamma_zero(theta)
        if theta_stop is None:
            theta_stop = -1e-2 * abs(theta) if cfg.theta_stop == "auto" \
                else float(cfg.theta_stop)

        row = IterationReport(k=k, cost=J, theta=theta, gamma0=g0,
                              n_segments=u.n_segments)
        if theta >= theta_stop:
            rows.append(row)
            status = "optimal"
            log.info("iterate %d: J=%.6g theta=%.3g >= %.3g, stopping",
                     k, J, theta, theta_stop)
            break
        if k == cfg.max_iter:
            rows.append(row)
            status = "max_iter"
            break

        row.events = tuple(initial_switch_events(d, opt))
        mbar = max_type(row.events)
        if mbar not in (1, 2):
            row.reason = ("step model does not cover event types "
                          f"{tuple(e.event_type for e in row.events)}")
            rows.append(row)
            status = "type_failure"
            log.warning("iterate %d: %s", k, row.reason)
            break

        s = descent_slope(row.events, theta, mbar)
        g3 = gamma_three(g0, cfg.alpha)
        row.gamma3 = g3
        trials = {}
        slack = ABANDON_SLACK * (cfg.atol + cfg.rtol * abs(J))

        def trial_cost(gamma):
            # a trial is abandoned once its cost is sure to fail
            # backtrack's test; one that repeats the incumbent costs
            # exactly J, and every smaller step only shrinks the inserted
            # intervals further, so no later trial can pass either
            if gamma not in trials:
                bound = J + sufficient_descent(s, mbar, gamma, g0,
                                               cfg.alpha) + slack
                trials[gamma] = project(
                    sys, x0, u, d, gamma, rtol=cfg.rtol, atol=cfg.atol,
                    knot_spacing=cfg.knot_spacing, reuse=x,
                    cost_bound=bound)
                if trials[gamma].schedule == u:
                    raise LineSearchError(
                        "projection equals the incumbent schedule")
            return trials[gamma].cost

        try:
            gamma, j = backtrack(trial_cost, J, s, mbar, g0, g3,
                                 cfg.alpha, beta=cfg.beta, j_max=cfg.j_max)
        except LineSearchError as err:
            row.reason = str(err)
        row.trials = tuple((g, p.cost, p.abandoned_at, p.schedule.n_segments)
                           for g, p in trials.items())
        rows.append(row)
        if row.reason is not None:
            status = "line_search_failure"
            log.warning("iterate %d: %s", k, row.reason)
            break

        accepted = trials[gamma]
        row.gamma, row.j = gamma, j
        log.info("iterate %d: J=%.6g theta=%.4g gamma=%.4g (j=%d) -> "
                 "J=%.6g, %d segments", k, J, theta, gamma, j,
                 accepted.cost, accepted.schedule.n_segments)
        u, x, J = accepted.schedule, accepted.trajectory, accepted.cost

    if x is not reuse:
        # only the line search replays a curve's solver steps
        x._steps = [None] * x.n_segments
    return RunResult(schedule=u, trajectory=x, cost=J, status=status,
                     iterations=rows, theta_final=theta, field=d)


# -- schedule surgery for the sliding window --------------------------------

def truncate_schedule(sched, t_end):
    """Restriction of a schedule to ``[0, t_end]``."""
    if not 0.0 < t_end <= sched.horizon:
        raise ValueError(f"t_end must lie in (0, {sched.horizon}], "
                         f"got {t_end}")
    keep = [t for t in sched.times if t < t_end]
    return ModeSchedule(sequence=sched.sequence[:len(keep) + 1],
                        times=tuple(keep), horizon=t_end,
                        num_modes=sched.num_modes)


def shift_schedule(sched, dt):
    """Slide a schedule earlier by ``dt``, holding its final mode.

    The restriction to ``[dt, T]`` is moved to start at 0 and the final
    mode is held on the vacated tail ``[T - dt, T]``, so the horizon
    ``T`` is kept.  A switch at ``dt`` itself is dropped: the shifted
    schedule starts in the later mode.  This is the schedule half of the
    next planning window's warm start; the accepted trajectory, slid the
    same way, is the other.
    """
    if not 0.0 <= dt <= sched.horizon:
        raise ValueError(f"dt must lie in [0, {sched.horizon}], got {dt}")
    return ModeSchedule(sequence=sched.sequence[sched.segment_of(dt):],
                        times=tuple(t - dt for t in sched.times if t > dt),
                        horizon=sched.horizon, num_modes=sched.num_modes)


@dataclass
class WindowReport:
    """What happened in one planning window.

    ``reason`` is the failed iteration's :attr:`IterationReport.reason`
    when the window's descent stopped on a failure, ``None`` otherwise;
    a window that ``fell_back`` kept its inherited plan for that reason.
    ``theta`` is the window's first iterate's; the stepped plan's is never
    computed, so ``status`` is ``"optimal"`` only when that first iterate
    already met the stop, and ``"max_iter"`` after a step.
    """

    index: int
    t_start: float
    status: str
    cost_before: float
    cost_after: float
    theta: float
    steps: int
    fell_back: bool
    reason: str = None


@dataclass
class HorizonResult:
    """Outcome of :func:`receding_horizon`.

    ``schedule`` is the applied schedule in absolute time (the
    concatenated window heads) and ``trajectory``/``cost`` come from one
    final integration of it from the true initial state.
    """

    schedule: ModeSchedule
    trajectory: object
    cost: float
    windows: list


def receding_horizon(sys, x0, schedule0, n_windows, advance=0.1,
                     config=None):
    """Plan on a sliding window, applying only the first ``advance``.

    Each window takes one schedule-descent step (one :func:`optimize`
    iteration), starting from the previous plan shifted by ``advance``
    (tail padded with its final mode).  Every window after the first is
    warm-started: its starting trajectory is the previous plan's accepted
    one slid by ``advance``, which already solves the shifted plan on all
    but the padded tail, so only that tail is integrated.  The window's
    state is that curve's first knot, which holds the bits of the accepted
    trajectory's value at ``advance``: the driver reads no window's
    result.  Its costs agree with a fresh integration to solver
    tolerance.  A window whose step fails keeps the inherited plan
    unchanged and is flagged in its report; planning continues from it.
    The stepped plan's adjoint and field are not built
    (``optimize(..., final_field=False)``): a window reports
    ``"optimal"`` only when its first iterate already meets the stop.

    Parameters
    ----------
    sys : SwitchedSystem
    x0 : ndarray
        State at absolute time 0.
    schedule0 : ModeSchedule
        Initial plan; its horizon is the window length.
    n_windows : int
        Number of windows; ``n_windows * advance`` of schedule is applied.
    advance : float
        How much of each plan is executed before replanning.
    config : OptimizerConfig, optional
        Per-window iteration knobs (``max_iter`` is set to 1).

    Returns
    -------
    HorizonResult
    """
    check_windows(schedule0.horizon, n_windows, advance)
    cfg = replace(config or OptimizerConfig(), max_iter=1)

    plan = schedule0
    state = np.asarray(x0, float)
    warm = None
    seq, times = [], []
    t_abs = 0.0
    reports = []

    for w in range(n_windows):
        res = optimize(sys, state, plan, cfg, final_field=False,
                       reuse=warm)
        steps = sum(1 for r in res.iterations if r.gamma is not None)
        reason = res.iterations[-1].reason
        fell_back = reason is not None and steps == 0
        if fell_back:
            log.warning("window %d (t=%.3g): %s with no accepted step "
                        "(%s); keeping inherited plan", w, t_abs, res.status,
                        reason)
        reports.append(WindowReport(
            index=w, t_start=t_abs, status=res.status,
            cost_before=res.iterations[0].cost, cost_after=res.cost,
            theta=res.iterations[0].theta, steps=steps,
            fell_back=fell_back, reason=reason))

        head = truncate_schedule(res.schedule, advance)
        for i, m in enumerate(head.sequence):
            if seq and seq[-1] == m:
                continue  # same mode carries across the boundary
            a, _ = head.segment_bounds(i)
            seq.append(m)
            if t_abs + a > 0.0:
                times.append(t_abs + a)
        plan = shift_schedule(res.schedule, advance)
        if w + 1 < n_windows:
            warm = _shift_curve(res.trajectory, advance, plan)
            state = warm.knots[0][1][0]  # x(advance)
        t_abs += advance

    applied = ModeSchedule(sequence=tuple(seq), times=tuple(times),
                           horizon=t_abs, num_modes=schedule0.num_modes)
    traj = integrate_state(sys, np.asarray(x0, float), applied,
                           rtol=cfg.rtol, atol=cfg.atol,
                           knot_spacing=cfg.knot_spacing)
    return HorizonResult(schedule=applied, trajectory=traj,
                         cost=traj.cost, windows=reports)
