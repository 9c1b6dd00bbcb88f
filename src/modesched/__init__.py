"""Projection-based iterative mode scheduling for switched systems.

Pick which of several dynamical modes runs when, over a finite horizon,
to descend an integrated running cost.  Each iteration integrates the
trajectory and adjoint, forms the insertion gradient of every mode, and
projects a steepest-descent update back onto the set of non-chattering
schedules; a type-aware backtracking rule sizes the step.

Entry points: :func:`optimize` for a fixed horizon,
:func:`receding_horizon` for sliding-window replanning, and the
``modesched`` command line.
"""
from .signals import (
    ModeSchedule,
    constant_schedule,
    enforce_dwell,
)
from .integrate import (
    SampledCurve,
    SwitchedSystem,
    evaluate_cost,
    integrate_adjoint,
    integrate_state,
)
from .gradient import (
    InsertionGradientField,
    OptimalityResult,
    insertion_gradient,
    optimality,
    switching_time_gradient,
)
from .projection import (
    DegenerateTieError,
    ProjectionResult,
    crossing_times,
    gamma_zero,
    max_map,
    project,
)
from .linesearch import (
    LineSearchError,
    SwitchEvent,
    backtrack,
    descent_slope,
    gamma_one_estimate,
    gamma_three,
    initial_switch_events,
    max_type,
    monitor_assumptions,
)
from .scheduler import (
    HorizonResult,
    IterationReport,
    OptimizerConfig,
    RunResult,
    WindowReport,
    optimize,
    receding_horizon,
    shift_schedule,
    truncate_schedule,
)
from . import models

__version__ = "0.1.0"

__all__ = [
    "ModeSchedule",
    "constant_schedule",
    "enforce_dwell",
    "SampledCurve",
    "SwitchedSystem",
    "evaluate_cost",
    "integrate_adjoint",
    "integrate_state",
    "InsertionGradientField",
    "OptimalityResult",
    "insertion_gradient",
    "optimality",
    "switching_time_gradient",
    "DegenerateTieError",
    "ProjectionResult",
    "crossing_times",
    "gamma_zero",
    "max_map",
    "project",
    "LineSearchError",
    "SwitchEvent",
    "backtrack",
    "descent_slope",
    "gamma_one_estimate",
    "gamma_three",
    "initial_switch_events",
    "max_type",
    "monitor_assumptions",
    "HorizonResult",
    "IterationReport",
    "OptimizerConfig",
    "RunResult",
    "WindowReport",
    "optimize",
    "receding_horizon",
    "shift_schedule",
    "truncate_schedule",
    "models",
    "__version__",
]
