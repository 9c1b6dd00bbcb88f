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
from dataclasses import dataclass, field, replace

import numpy as np

from .signals import ModeSchedule
from .integrate import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
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
    gamma_one_estimate,
    gamma_three,
    initial_switch_events,
    max_type,
    monitor_assumptions,
)

log = logging.getLogger(__name__)


@dataclass
class OptimizerConfig:
    """Knobs for :func:`optimize`.

    ``theta_stop`` is the optimality threshold: iteration stops once
    ``theta >= theta_stop``.  The default ``"auto"`` resolves to
    ``-1e-2 * |theta|`` of the initial schedule, i.e. stop after the
    achievable descent rate has shrunk a hundredfold.  Set ``0.0`` to run
    until no insertion helps at all (or the budget runs out).  Invalid
    values raise ``ValueError`` on construction.
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
        if self.max_iter < 0 or self.j_max < 0:
            raise ValueError("max_iter and j_max must be nonnegative")
        if isinstance(self.theta_stop, str) and self.theta_stop != "auto":
            raise ValueError(f"theta_stop must be a number or 'auto', "
                             f"got {self.theta_stop!r}")


@dataclass
class IterationReport:
    """One row of the optimization trace.

    ``cost``/``theta``/``n_segments`` describe iterate ``k``; ``gamma``
    and ``j`` describe the accepted step taken *from* iterate ``k``
    (``None`` on the final row and on failed iterations).
    """

    k: int
    cost: float
    theta: float
    gamma0: float = None
    gamma3: float = None
    gamma: float = None
    j: int = None
    n_segments: int = 1
    event_types: tuple = ()
    monitors: dict = field(default_factory=dict)


@dataclass
class RunResult:
    """Outcome of :func:`optimize`.

    ``status`` is one of ``"optimal"`` (stop threshold reached),
    ``"max_iter"`` (budget exhausted), ``"type_failure"`` (a switching
    time moved in a way outside the first- and second-order step models),
    or ``"line_search_failure"``.  ``schedule``/``trajectory``/``cost``
    always describe the best (last accepted) iterate.
    """

    schedule: ModeSchedule
    trajectory: object
    cost: float
    status: str
    iterations: list
    theta_final: float

    @property
    def costs(self):
        """Cost of every iterate, initial schedule first."""
        return [r.cost for r in self.iterations]


def optimize(sys, x0, schedule, config=None):
    """Descend the schedule by projected insertion-gradient steps.

    Parameters
    ----------
    sys : SwitchedSystem
    x0 : ndarray
        Initial state.
    schedule : ModeSchedule
        Starting schedule; also fixes horizon and mode count.
    config : OptimizerConfig, optional

    Returns
    -------
    RunResult
    """
    cfg = config or OptimizerConfig()
    u = schedule
    x = integrate_state(sys, x0, u, rtol=cfg.rtol, atol=cfg.atol,
                        knot_spacing=cfg.knot_spacing)
    J = x.cost
    rows = []
    status = "max_iter"
    theta_stop = None
    theta = math.nan

    for k in range(cfg.max_iter + 1):
        rho = integrate_adjoint(sys, u, x, rtol=cfg.rtol, atol=cfg.atol,
                                knot_spacing=cfg.knot_spacing)
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

        events = initial_switch_events(d, opt)
        row.event_types = tuple(e.event_type for e in events)
        mbar = max_type(events)
        row.monitors = monitor_assumptions(
            theta, g0, gamma_one_estimate(d, g0), events)
        if any(row.monitors.values()):
            log.warning("iterate %d: assumption monitors flagged %s", k,
                        [m for m, v in row.monitors.items() if v])
        if mbar not in (1, 2):
            rows.append(row)
            status = "type_failure"
            log.warning("iterate %d: step model does not cover event "
                        "types %s", k, row.event_types)
            break

        s = descent_slope(events, theta, mbar)
        g3 = gamma_three(g0, cfg.alpha)
        row.gamma3 = g3
        trials = {}

        def trial_cost(gamma):
            if gamma not in trials:
                trials[gamma] = project(
                    sys, x0, u, d, gamma, rtol=cfg.rtol, atol=cfg.atol,
                    knot_spacing=cfg.knot_spacing, reuse=x)
            return trials[gamma].cost

        try:
            gamma, j = backtrack(trial_cost, J, s, mbar, g0, g3,
                                 cfg.alpha, beta=cfg.beta, j_max=cfg.j_max)
        except LineSearchError as err:
            rows.append(row)
            status = "line_search_failure"
            log.warning("iterate %d: %s", k, err)
            break

        accepted = trials[gamma]
        row.gamma, row.j = gamma, j
        rows.append(row)
        log.info("iterate %d: J=%.6g theta=%.4g gamma=%.4g (j=%d) -> "
                 "J=%.6g, %d segments", k, J, theta, gamma, j,
                 accepted.cost, accepted.schedule.n_segments)
        u, x, J = accepted.schedule, accepted.trajectory, accepted.cost

    return RunResult(schedule=u, trajectory=x, cost=J, status=status,
                     iterations=rows, theta_final=theta)


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


def shift_schedule(sched, dt, horizon=None, pad_mode=None):
    """Slide a schedule earlier by ``dt`` and pad the tail.

    The restriction to ``[dt, horizon]`` is moved to start at 0 and the
    vacated tail is filled with ``pad_mode`` (default: the schedule's
    final mode), keeping the horizon length unless a new one is given.
    This is the warm start for the next planning window.
    """
    horizon = sched.horizon if horizon is None else horizon
    if not 0.0 <= dt <= sched.horizon:
        raise ValueError(f"dt must lie in [0, {sched.horizon}], got {dt}")
    if pad_mode is None:
        pad_mode = sched.sequence[-1]
    if dt == sched.horizon:
        return ModeSchedule(sequence=(pad_mode,), times=(),
                            horizon=horizon, num_modes=sched.num_modes)
    seg0 = sched.segment_of(dt)
    seq = list(sched.sequence[seg0:])
    times = [t - dt for t in sched.times if t > dt]
    body = sched.horizon - dt
    if body < horizon:
        if seq[-1] != pad_mode:
            seq.append(pad_mode)
            times.append(body)
    else:
        # no tail to pad (the window shrank); clip instead
        keep = [t for t in times if t < horizon]
        seq = seq[:len(keep) + 1]
        times = keep
    return ModeSchedule(sequence=tuple(seq), times=tuple(times),
                        horizon=horizon, num_modes=sched.num_modes)


@dataclass
class WindowReport:
    """What happened in one planning window."""

    index: int
    t_start: float
    status: str
    cost_before: float
    cost_after: float
    theta: float
    steps: int
    fell_back: bool


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
                     config=None, iterations_per_window=1):
    """Plan on a sliding window, applying only the first ``advance``.

    Each window runs ``iterations_per_window`` schedule-descent
    iterations starting from the previous plan shifted by ``advance``
    (tail padded with its final mode).  A window whose step fails keeps
    the inherited plan unchanged and is flagged in its report; planning
    continues from it.

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
        Per-window iteration knobs (``max_iter`` is overridden).
    iterations_per_window : int

    Returns
    -------
    HorizonResult
    """
    window = schedule0.horizon
    if not 0.0 < advance <= window:
        raise ValueError(f"advance must lie in (0, {window}], got {advance}")
    cfg = replace(config or OptimizerConfig(),
                  max_iter=iterations_per_window)

    plan = schedule0
    state = np.asarray(x0, float)
    seq, times = [], []
    t_abs = 0.0
    reports = []

    for w in range(n_windows):
        res = optimize(sys, state, plan, cfg)
        steps = sum(1 for r in res.iterations if r.gamma is not None)
        fell_back = res.status in ("type_failure",
                                   "line_search_failure") and steps == 0
        if fell_back:
            log.warning("window %d (t=%.3g): %s with no accepted step; "
                        "keeping inherited plan", w, t_abs, res.status)
        reports.append(WindowReport(
            index=w, t_start=t_abs, status=res.status,
            cost_before=res.iterations[0].cost, cost_after=res.cost,
            theta=res.iterations[0].theta, steps=steps,
            fell_back=fell_back))

        head = truncate_schedule(res.schedule, min(advance, window))
        for i, m in enumerate(head.sequence):
            if seq and seq[-1] == m:
                continue  # same mode carries across the boundary
            a, _ = head.segment_bounds(i)
            seq.append(m)
            if t_abs + a > 0.0:
                times.append(t_abs + a)
        state = res.trajectory(advance)
        plan = shift_schedule(res.schedule, advance)
        t_abs += advance

    applied = ModeSchedule(sequence=tuple(seq), times=tuple(times),
                           horizon=t_abs, num_modes=schedule0.num_modes)
    traj = integrate_state(sys, np.asarray(x0, float), applied,
                           rtol=cfg.rtol, atol=cfg.atol,
                           knot_spacing=cfg.knot_spacing)
    return HorizonResult(schedule=applied, trajectory=traj,
                         cost=traj.cost, windows=reports)
