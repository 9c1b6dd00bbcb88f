"""Spans, counters and op timing wrapped around the package from outside.

The package imports its building blocks by name (``from .integrate import
integrate_state``), so a call is intercepted by patching the name in the
module that *calls* it, not in the module that defines it.  :data:`WRAPPED`
lists every patched call site with the span name it records.

Spans live in memory as ``[name, start, end, parent, op, model_s]`` lists
and are written out once the solve is over.  The model callables of the
``SwitchedSystem`` are too many and too small for one span each: they are
counted and timed as aggregates, and their time is charged to the span that
is open when they run.  A span's self time is its duration minus its child
spans and the model time charged to it, so the self times of all spans plus
the model total add up to the root span.
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import logging
from collections import Counter
from time import perf_counter

ROOT = "bench.solve"

#: (calling module, imported name, span name)
WRAPPED = (
    ("modesched.scheduler", "optimize", "scheduler.optimize"),
    ("modesched.scheduler", "integrate_state", "integrate.state"),
    ("modesched.scheduler", "integrate_adjoint", "integrate.adjoint"),
    ("modesched.scheduler", "insertion_gradient",
     "gradient.insertion_gradient"),
    ("modesched.scheduler", "optimality", "gradient.optimality"),
    ("modesched.scheduler", "initial_switch_events",
     "linesearch.initial_switch_events"),
    ("modesched.scheduler", "project", "projection.project"),
    ("modesched.scheduler", "backtrack", "linesearch.backtrack"),
    ("modesched.projection", "max_map", "projection.max_map"),
    ("modesched.projection", "integrate_state", "integrate.state"),
    ("modesched.projection", "enforce_dwell", "signals.enforce_dwell"),
    ("modesched.integrate", "solve_ivp", "integrate.solve_ivp"),
)

#: SwitchedSystem field -> aggregate counter name
MODEL_CALLABLES = (
    ("mode_field", "models.field"),
    ("mode_jacobian", "models.jacobian"),
    ("running_cost", "models.cost"),
    ("running_cost_gradient", "models.cost_grad"),
)

NAME, START, END, PARENT, OP, MODEL_S = range(6)


class Patches:
    """Replace imported names in modules; undo in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, module, attr, make):
        mod = importlib.import_module(module)
        orig = getattr(mod, attr)
        self._saved.append((mod, attr, orig))
        setattr(mod, attr, make(orig))

    def restore(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)


class Tracer:
    """Records spans at every :data:`WRAPPED` call site."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = 0  # current window or iteration, set by OpRecorder
        self._stack = []
        # counters read from a wrapped call's arguments or result
        self._before = {"linesearch.backtrack": self._count_trials}
        self._after = {"integrate.solve_ivp": self._count_nfev,
                       "signals.enforce_dwell": self._count_merges}

    # -- wrappers ------------------------------------------------------

    def span(self, name, fn):
        spans, stack = self.spans, self._stack
        before = self._before.get(name)
        after = self._after.get(name)

        def traced(*args, **kwargs):
            if before is not None:
                args = before(*args)
            rec = [name, perf_counter(), None, stack[-1] if stack else -1,
                   self.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def _count_trials(self, cost_fn, *rest):
        # once beta**j * (gamma3 - gamma0) drops below an ulp of gamma0 the
        # trials repeat gamma0, which the optimizer serves from its cache
        seen = set()

        def counted(gamma):
            self.counts["linesearch.trials"] += 1
            if gamma in seen:
                self.counts["linesearch.cache_hits"] += 1
            seen.add(gamma)
            return cost_fn(gamma)
        return (counted, *rest)

    def _count_nfev(self, args, out):
        self.counts["integrate.solve_ivp.nfev"] += int(out.nfev)

    def _count_merges(self, args, out):
        self.counts["signals.dwell_merges"] += \
            args[0].n_segments - out.n_segments

    def model(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"
        points = name + ".points" if name == "models.field" else None

        def timed(*args):
            if not stack:
                return fn(*args)
            t = perf_counter()
            out = fn(*args)
            spans[stack[-1]][MODEL_S] += perf_counter() - t
            counts[calls] += 1
            if points is not None:
                x = args[-1]
                counts[points] += len(x) if getattr(x, "ndim", 1) == 2 else 1
            return out

        return timed

    def wrap_system(self, sys_):
        """Copy of ``sys_`` whose callables feed the model aggregates."""
        return dataclasses.replace(sys_, **{
            field: self.model(name, getattr(sys_, field))
            for field, name in MODEL_CALLABLES})

    def install(self, patches):
        for module, attr, name in WRAPPED:
            patches.wrap(module, attr, lambda fn, n=name: self.span(n, fn))

    # -- results -------------------------------------------------------

    def run(self, solve):
        """Call ``solve()`` inside the root span."""
        return self.span(ROOT, solve)()

    def write(self, path):
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "start": s[START] - t0,
                    "end": s[END] - t0, "parent": s[PARENT], "op": s[OP],
                    "model_s": s[MODEL_S]}) + "\n")


def layer_times(spans):
    """Per span name: ``{"calls", "self_s"}``, plus the model total.

    Self time is a span's duration minus its children's durations and the
    model time charged to it.  Returns ``(layers, model_s)``.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    layers = {}
    model_s = 0.0
    for s, c in zip(spans, child):
        entry = layers.setdefault(s[NAME], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (s[END] - s[START]) - c - s[MODEL_S]
        model_s += s[MODEL_S]
    return layers, model_s


class OpRecorder:
    """Times each operation; kept on in plain and traced runs alike.

    An operation is one ``optimize`` call (a planning window) on the horizon
    workloads and one descent iteration on the fixed-horizon descent, where
    iteration ``k`` runs from the ``k``-th adjoint integration to the next.
    Every ``optimize`` result is kept for the output checks.

    With a ``reference`` callable, it also runs before every operation and
    every trial projection, so its durations (``refs``) sample the machine's
    speed all through the solve; they are left out of the latencies.
    """

    def __init__(self, by_iteration, tracer=None, reference=None):
        self.by_iteration = by_iteration
        self.tracer = tracer
        self.reference = reference
        self.windows = []   # (seconds, RunResult) per optimize call
        self.marks = []     # (time, reference seconds, runs so far) per adjoint
        self.refs = []      # seconds of each reference run
        self._window_refs = []  # (first, end) reference run of each window
        self._ref_total = 0.0

    def _run_reference(self):
        if self.reference is not None:
            self.refs.append(self.reference())
            self._ref_total += self.refs[-1]

    def install(self, patches):
        def optimize(fn):
            def timed(*args, **kwargs):
                if self.by_iteration:
                    return fn(*args, **kwargs)
                if self.tracer is not None:
                    self.tracer.op = len(self.windows)
                first = len(self.refs)
                self._run_reference()
                t, ref = perf_counter(), self._ref_total
                out = fn(*args, **kwargs)
                self.windows.append(
                    (perf_counter() - t - (self._ref_total - ref), out))
                self._window_refs.append((first, len(self.refs)))
                return out
            return timed

        def adjoint(fn):
            def marked(*args, **kwargs):
                if self.by_iteration:
                    if self.tracer is not None:
                        self.tracer.op = len(self.marks)
                    self._run_reference()
                    self.marks.append((perf_counter(), self._ref_total,
                                       len(self.refs)))
                return fn(*args, **kwargs)
            return marked

        def project(fn):
            def sampled(*args, **kwargs):
                self._run_reference()
                return fn(*args, **kwargs)
            return sampled

        patches.wrap("modesched.scheduler", "optimize", optimize)
        patches.wrap("modesched.scheduler", "integrate_adjoint", adjoint)
        if self.reference is not None:
            patches.wrap("modesched.scheduler", "project", project)

    def iteration_seconds(self):
        """Seconds between adjoint starts, less the reference runs between."""
        return [(b - a) - (rb - ra)
                for (a, ra, _), (b, rb, _) in zip(self.marks, self.marks[1:])]

    def op_refs(self):
        """Reference durations run just before and inside each operation."""
        if self.by_iteration:
            ends = [n for _, _, n in self.marks]
            return [self.refs[a - 1:b] for a, b in zip(ends, ends[1:])]
        return [self.refs[a:b] for a, b in self._window_refs]


class WarningCounter(logging.Handler):
    """Counts WARNING records of the package instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1

    def attach(self, name="modesched"):
        self._logger = logging.getLogger(name)
        self._propagate = self._logger.propagate
        self._logger.addHandler(self)
        self._logger.propagate = False

    def detach(self):
        self._logger.removeHandler(self)
        self._logger.propagate = self._propagate
