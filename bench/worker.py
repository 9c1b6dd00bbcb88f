"""One benchmark repetition in a fresh process: set up, solve, check.

``run.py`` starts it as::

    python3 bench/worker.py WORKLOAD SEED MODE SPAWNED_AT

from the checkout root with ``src`` on ``PYTHONPATH``.  ``MODE`` is
``setup`` (stop once the problem is built), ``plain`` or ``traced``;
``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before the start,
so set-up time includes interpreter start and imports.  The last line of
standard output is one JSON object describing the repetition.
"""
from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import workloads as W
from tracing import (END, ROOT, START, OpRecorder, Patches, Tracer,
                     WarningCounter, layer_times)

#: output checks compare costs to this many solver tolerances
COST_TOL_RTOLS = 100.0
#: slack on gamma <= gamma3, as in the package's acceptance tests
GAMMA3_SLACK = 1e-12
#: slack on the published costs: half a unit in their last digit
PUBLISHED_SLACK = 5e-8
TRACE_DIR = Path(".bench_out")
#: reference runs timed right after set-up
SETUP_REFERENCES = 20
_REF_TS = np.linspace(0.0, 5.5, 2048)


def _ref_rhs(t, z):
    out = np.empty(4)
    out[:3] = np.stack([np.cos(z[2]), np.sin(z[2]), 0.5 * np.cos(t)])
    out[3] = 1.0
    return out


def reference():
    """Seconds one run of a fixed computation takes on this machine now.

    The computation is the package's kind of work without the package: a
    DOP853 solve of a small ODE with a Python right-hand side, then
    vectorized trigonometry and an einsum over a 2048-point grid.
    """
    from scipy.integrate import solve_ivp
    t = time.perf_counter()
    solve_ivp(_ref_rhs, (0.0, 3.0), np.zeros(4), method="DOP853",
              rtol=1e-10, atol=1e-11)
    for _ in range(10):
        xs = np.stack([np.cos(_REF_TS), np.sin(_REF_TS), _REF_TS, _REF_TS],
                      axis=-1)
        np.einsum("ij,ij->i", xs, xs[::-1])
    return time.perf_counter() - t


def trimmed_mean(xs):
    """Mean of the middle 80% of ``xs``, leaving out the odd reference run
    that lost the processor."""
    xs = sorted(xs)
    cut = len(xs) // 10
    return statistics.fmean(xs[cut:len(xs) - cut])


def _import_package(root):
    import modesched
    src = (root / "src").resolve()
    where = Path(modesched.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"modesched imported from {where}, not from {src}")


def step_problems(res, j_max):
    """(iteration, message) for every accepted step breaking its contract."""
    out = []
    rows = res.iterations
    for k, r in enumerate(rows):
        if r.gamma is None:
            continue
        after = rows[k + 1].cost if k + 1 < len(rows) else res.cost
        if not after < r.cost:
            out.append((k, f"accepted step {k} does not lower the cost "
                           f"({r.cost!r} -> {after!r})"))
        if not 0.0 < r.gamma0 < r.gamma <= r.gamma3 * (1.0 + GAMMA3_SLACK):
            out.append((k, f"step {k}: gamma {r.gamma!r} outside "
                           f"(gamma0 {r.gamma0!r}, gamma3 {r.gamma3!r}]"))
        if r.j > j_max:
            out.append((k, f"step {k}: j={r.j} above j_max={j_max}"))
    return out


def schedule_problem(sched, horizon, num_modes):
    """Why ``sched`` is not a valid schedule over ``horizon``, or None."""
    seq, bounds = sched.sequence, (0.0, *sched.times, sched.horizon)
    if abs(sched.horizon - horizon) > 1e-9 * horizon:
        return f"horizon {sched.horizon!r}, expected {horizon!r}"
    if len(seq) != len(bounds) - 1:
        return f"{len(seq)} modes for {len(bounds) - 2} switching times"
    if not all(1 <= m <= num_modes for m in seq):
        return f"mode outside 1..{num_modes} in {seq}"
    if any(a == b for a, b in zip(seq, seq[1:])):
        return "a switch keeps the same mode"
    if not all(a < b for a, b in zip(bounds, bounds[1:])):
        return "switching times not strictly increasing inside the horizon"
    return None


def _digest(payload):
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def check_descent(problem, res, rec):
    """Outcome of the fixed-horizon descent: checks, ops and digest."""
    cfg = problem.config
    bad = step_problems(res, cfg.j_max)
    steps = sum(1 for r in res.iterations if r.gamma is not None)
    return dict(
        bad=bad, final=res.schedule, cost=res.cost,
        attempted=cfg.max_iter, no_step=cfg.max_iter - steps,
        steps=steps, ops_s=rec.iteration_seconds(),
        statuses=[res.status],
        digest=_digest({
            "cost": repr(res.cost), "sequence": res.schedule.sequence,
            "times": [repr(t) for t in res.schedule.times],
            "steps": [(r.k, repr(r.cost), repr(r.gamma), r.j)
                      for r in res.iterations]}))


def check_horizon(problem, res, rec):
    """Outcome of a receding-horizon run: checks, ops and digest."""
    cfg = problem.config
    bad = []
    if len(res.windows) != problem.n_windows \
            or len(rec.windows) != problem.n_windows:
        bad.append((None, f"{len(res.windows)} window reports and "
                          f"{len(rec.windows)} plans for "
                          f"{problem.n_windows} windows"))
    for w, (_, plan) in enumerate(rec.windows):
        bad.extend((w, f"window {w}: {msg}")
                   for _, msg in step_problems(plan, cfg.j_max))
        why = schedule_problem(plan.schedule, problem.schedule0.horizon,
                               problem.schedule0.num_modes)
        if why:
            bad.append((w, f"window {w}: plan invalid: {why}"))
    for r in res.windows:
        if not r.cost_after <= r.cost_before:
            bad.append((r.index, f"window {r.index}: cost rose "
                                 f"{r.cost_before!r} -> {r.cost_after!r}"))
    no_step = sum(1 for r in res.windows
                  if r.steps == 0 and r.status != "optimal")
    return dict(
        bad=bad, final=res.schedule, cost=res.cost,
        attempted=problem.n_windows, no_step=no_step,
        steps=sum(r.steps for r in res.windows),
        ops_s=[s for s, _ in rec.windows],
        statuses=[r.status for r in res.windows],
        digest=_digest({
            "cost": repr(res.cost), "sequence": res.schedule.sequence,
            "times": [repr(t) for t in res.schedule.times],
            "windows": [(r.status, repr(r.cost_before), repr(r.cost_after),
                         r.steps, r.fell_back) for r in res.windows]}))


def layer_metrics(tracer, out, n_optimize):
    """Per-layer numbers of one traced solve, plus consistency problems.

    ``n_optimize`` is the number of ``optimize`` calls the solve must make.
    """
    layers, model_s = layer_times(tracer.spans)
    counts = dict(tracer.counts)
    calls = {name: v["calls"] for name, v in layers.items()}
    root = tracer.spans[0]
    root_s = root[END] - root[START]
    bad = []
    total = sum(v["self_s"] for v in layers.values()) + model_s
    if abs(total - root_s) > 1e-9 * max(1.0, root_s):
        bad.append(f"self times add up to {total!r}, not the traced "
                   f"solve time {root_s!r}")
    trials = counts.get("linesearch.trials", 0)
    distinct = trials - counts.get("linesearch.cache_hits", 0)
    if calls.get("projection.project", 0) != distinct:
        bad.append(f"projection.project.calls={calls.get('projection.project')}"
                   f" but linesearch.trials={trials} of which {distinct} "
                   f"distinct")
    if calls.get("scheduler.optimize", 0) != n_optimize:
        bad.append(f"scheduler.optimize.calls={calls.get('scheduler.optimize')}"
                   f", expected {n_optimize}")
    adjoints = calls.get("integrate.adjoint", 0)
    metrics = {f"{name}.self_s": v["self_s"] for name, v in layers.items()}
    metrics.update({f"{name}.calls": n for name, n in calls.items()
                    if name != ROOT})
    metrics.update(counts)
    metrics.update({
        "models.self_s": model_s,
        "linesearch.accept_ratio": out["steps"] / distinct if distinct else 0.0,
        "linesearch.failures": sum(s == "line_search_failure"
                                   for s in out["statuses"]),
        "scheduler.adjoint_per_step":
            adjoints / out["steps"] if out["steps"] else float(adjoints),
        "trace.solve_s": root_s,
    })
    return metrics, bad


def solve_and_check(problem, tracer=None, published=None):
    """Solve ``problem`` once, check its outputs, and describe the run.

    With a ``tracer`` the solve is traced and the result carries the
    per-layer metrics.  Untraced, :func:`reference` runs before every
    operation and trial projection; ``ref_s`` is its trimmed mean time over
    the solve, ``ops_ref_s`` that within each operation, and ``solve_s`` and
    ``ops_s`` leave it out.
    ``published`` is a final cost the run must not be worse than.
    """
    from modesched import scheduler

    p = problem
    warnings = WarningCounter()
    rec = OpRecorder(by_iteration=p.n_windows == 0, tracer=tracer,
                     reference=None if tracer is not None else reference)
    patches = Patches()
    if tracer is not None:
        tracer.install(patches)
    rec.install(patches)
    if p.n_windows:
        def solve():
            return scheduler.receding_horizon(
                p.system, p.x0, p.schedule0, p.n_windows, advance=W.ADVANCE,
                config=p.config)
    else:
        def solve():
            return scheduler.optimize(p.system, p.x0, p.schedule0, p.config)
    warnings.attach()
    t0 = time.perf_counter()
    try:
        res = tracer.run(solve) if tracer is not None else solve()
    finally:
        solve_s = time.perf_counter() - t0
        patches.restore()
        warnings.detach()

    check = check_horizon if p.n_windows else check_descent
    out = check(p, res, rec)
    bad = out.pop("bad")
    final = out.pop("final")
    horizon = p.n_windows * W.ADVANCE if p.n_windows \
        else p.schedule0.horizon
    why = schedule_problem(final, horizon, p.schedule0.num_modes)
    if why:
        bad.append((None, f"final schedule invalid: {why}"))
    fresh = scheduler.integrate_state(
        p.system, p.x0, final, rtol=p.config.rtol, atol=p.config.atol,
        knot_spacing=p.config.knot_spacing).cost
    if abs(fresh - out["cost"]) > COST_TOL_RTOLS * p.config.rtol * (
            1.0 + abs(out["cost"])):
        bad.append((None, f"reported cost {out['cost']!r} but a fresh "
                          f"integration gives {fresh!r}"))
    if published is not None and out["cost"] > published + PUBLISHED_SLACK:
        bad.append((None, f"final cost {out['cost']!r} is worse than the "
                          f"published {published!r}"))

    result = dict(
        out, solve_s=solve_s - sum(rec.refs),
        ref_s=trimmed_mean(rec.refs) if rec.refs else None,
        ops_ref_s=[trimmed_mean(r) for r in rec.op_refs()] if rec.refs
        else None,
        warnings=warnings.count,
        n_segments=final.n_segments, problems=[msg for _, msg in bad],
        failed_ops=len({op for op, _ in bad if op is not None})
        + sum(op is None for op, _ in bad))
    if tracer is not None:
        result["layers"], layer_bad = layer_metrics(tracer, result,
                                                    p.n_windows or 1)
        result["problems"] += layer_bad
        result["failed_ops"] += len(layer_bad)
    return result


def main(argv):
    workload, seed, mode, spawned_at = argv[0], int(argv[1]), argv[2], \
        float(argv[3])
    root = Path.cwd()
    _import_package(root)
    tracer = Tracer() if mode == "traced" else None
    problem = W.build(workload, root=root,
                      wrap_system=tracer.wrap_system if tracer else None)
    setup_s = time.monotonic() - spawned_at
    setup_ref_s = trimmed_mean([reference()
                                for _ in range(SETUP_REFERENCES)])
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    result = solve_and_check(problem, tracer, W.PUBLISHED_COST.get(workload))
    result.update(
        setup_s=setup_s, setup_ref_s=setup_ref_s,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"spans-{workload}-seed{seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
