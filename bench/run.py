"""Benchmark of modesched: three workloads, end to end and per layer.

Run from the root of a checkout::

    python3 bench/run.py --workload vehicle-descent --seed 0 --seconds 35 --trace 0

Every repetition is a fresh ``bench/worker.py`` process with ``src`` on
``PYTHONPATH`` and BLAS pools capped at one thread.  With ``--trace 0`` the
solve runs untraced, repeated while the repeats fit in ``--seconds`` (at
least three times), and the end-to-end metrics of ``BENCHMARK.json`` are
reported.  Their times are wall times scaled to a reference machine speed:
each worker times a fixed reference computation before every operation
and trial projection (and after set-up) and the time is multiplied by
``REFERENCE_S / reference time``, which cancels the drift of a shared
machine's speed (see :data:`REFERENCE_S`).  With ``--trace 1``
one untraced solve is followed by at least two traced ones, and the
per-layer metrics are reported.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

An operation is a planning window on the horizon workloads and a descent
iteration on ``vehicle-descent``.  ``failed`` counts operations that failed
an output check; line-search fallbacks are reported per layer
(``answer.fail_rate``, ``linesearch.failures``).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

#: three repeats let the median drop one that ran in a fast or slow spell
MIN_REPEATS = 3
MIN_TRACED = 2
#: set-up time is the median of at least this many workers
MIN_SETUPS = 5
#: seconds the workers' reference computation takes at the machine speed
#: all reported times are scaled to.  On a shared 2-core VM the speed drifts
#: up to 2x within minutes (one vehicle solve took 3.1 to 5.9 s); raw
#: times of 10 vehicle runs spread 11-17% (interquartile range / median).
#: Scaled by reference runs taken all through each solve, the spreads of
#: 10 runs per workload were 1-8%.
REFERENCE_S = 0.005
#: tail percentiles tried, highest first; each needs MIN_BEYOND samples above
TAIL_LADDER = (99, 95, 90, 80, 50)
MIN_BEYOND = 10
#: the whole run must end well inside the 180 s a run may take
DEADLINE_S = 170.0
#: one BLAS thread: with two, OpenBLAS's second thread busy-waits (process
#: CPU time twice the wall time) and on 2 cores the ring's solve ran slower
#: and noisier (6.5-7.7 s against 6.4-7.1 s, same input, 6 pairs)
BLAS_THREADS = "1"


def tail_percentile(n):
    """Highest percentile on :data:`TAIL_LADDER` with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it, or None."""
    for p in TAIL_LADDER:
        if n * (100 - p) / 100.0 >= MIN_BEYOND:
            return p
    return None


def percentile(xs, p):
    """Linearly interpolated ``p``-th percentile (numpy's default rule)."""
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


class Children:
    """Starts worker processes one at a time under a shared deadline."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.started = time.monotonic()
        self.env = dict(
            os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS=BLAS_THREADS,
            OPENBLAS_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
            PYTHONPATH=os.pathsep.join(
                [str(ROOT / "src")]
                + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def elapsed(self):
        return time.monotonic() - self.started

    def run(self, mode):
        budget = DEADLINE_S - self.elapsed()
        if budget <= 0:
            raise RuntimeError(f"out of time after {self.elapsed():.0f} s")
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), self.workload,
             str(self.seed), mode, repr(spawned)],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=budget)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker exited with {proc.returncode}:"
                               f"\n{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["wall_s"] = time.monotonic() - spawned
        return out

    def repeat(self, mode, minimum, seconds):
        """At least ``minimum`` runs; more while they fit in ``seconds``."""
        reps = []
        while True:
            reps.append(self.run(mode))
            mean = statistics.fmean(r["wall_s"] for r in reps)
            if len(reps) >= minimum and self.elapsed() + mean > seconds:
                return reps


def describe(rep, label):
    print(f"{label}: setup {rep['setup_s']:.3f} s, solve {rep['solve_s']:.3f}"
          f" s, cost {rep['cost']!r}, {rep['steps']} steps, "
          f"{rep['no_step']}/{rep['attempted']} operations without a step, "
          f"{rep['n_segments']} segments, {rep['warnings']} warnings, "
          f"digest {rep['digest'][:12]}")
    for msg in rep["problems"]:
        print(f"  CHECK FAILED: {msg}")


def speed(seconds):
    """Factor scaling a time measured next to a reference run of
    ``seconds`` to the reference machine speed."""
    return REFERENCE_S / seconds


def op_latencies_ms(reps):
    """Scaled latency of each operation: its median over the repeats, in ms.

    Each latency is scaled by the reference runs within its operation.
    Repeats solve the same input, so the k-th operation of every repeat is
    the same work; its median is steadier than pooling the samples, where
    a percentile falling between two operations jumps with the noise.
    """
    per_op = zip(*([speed(ref) * s for s, ref in zip(r["ops_s"],
                                                     r["ops_ref_s"])]
                   for r in reps))
    return [1e3 * statistics.median(samples) for samples in per_op]


def outcome_problems(kids, reps):
    """Problems shared by all repetitions: repeat digests must agree."""
    published = W.PUBLISHED_COST.get(kids.workload)
    if published is not None:
        same = round(reps[0]["cost"], 7) == published
        print(f"published final cost {published}: "
              f"{'reproduced' if same else 'not reproduced'}")
    first = reps[0]["digest"]
    return [f"repeat {i} digest {r['digest'][:12]} differs from "
            f"{first[:12]}" for i, r in enumerate(reps) if r["digest"] != first]


def run_plain(kids, seconds, spec):
    reps = kids.repeat("plain", MIN_REPEATS, seconds)
    children = list(reps)
    while len(children) < MIN_SETUPS:
        children.append(kids.run("setup"))
    for i, r in enumerate(reps):
        describe(r, f"repeat {i}")
        print(f"  reference run {1e3 * r['ref_s']:.3f} ms: times scaled by "
              f"{speed(r['ref_s']):.4f}")
    problems = outcome_problems(kids, reps)
    ops_ms = op_latencies_ms(reps)
    tail = tail_percentile(len(ops_ms))
    print(f"{len(ops_ms)} operations, each the median of {len(reps)} "
          f"repeats; p80 has {0.2 * len(ops_ms):g} beyond it; highest "
          f"percentile with {MIN_BEYOND} beyond: "
          + (f"p{tail} = {percentile(ops_ms, tail):.1f} ms" if tail
             else "none"))
    values = {
        "setup_s": statistics.median(speed(c["setup_ref_s"]) * c["setup_s"]
                                     for c in children),
        "solve_s": statistics.median(speed(r["ref_s"]) * r["solve_s"]
                                     for r in reps),
        "op_p50_ms": percentile(ops_ms, 50),
        "op_p80_ms": percentile(ops_ms, 80),
        "final_cost": reps[0]["cost"],
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }
    return reps, problems, metrics_of(spec["end_to_end"], values)


def run_traced(kids, seconds, spec):
    plain = kids.run("plain")
    describe(plain, "untraced")
    traced = kids.repeat("traced", MIN_TRACED, seconds)
    for i, r in enumerate(traced):
        describe(r, f"traced {i}")
    reps = [plain] + traced
    problems = outcome_problems(kids, reps)
    layers = [r["layers"] for r in traced]
    values = {}
    for name in {k for lay in layers for k in lay}:
        vals = [lay.get(name, 0) for lay in layers]
        if name.endswith("_s"):
            values[name] = statistics.median(vals)
            continue
        if len(set(vals)) > 1:
            problems.append(f"counter {name} differs across traced runs: "
                            f"{vals}")
        values[name] = vals[0]
    warnings = {r["warnings"] for r in reps}
    if len(warnings) > 1:
        problems.append(f"log.warnings differs between runs: {warnings}")
    failed = plain["no_step"] + plain["failed_ops"]
    values.update({
        "log.warnings": plain["warnings"],
        "trace.overhead_s": values["trace.solve_s"] - plain["solve_s"],
        "answer.fail_rate": failed / plain["attempted"],
        "answer.fallbacks": plain["no_step"],
    })
    print(f"trace overhead {values['trace.overhead_s']:.3f} s on an "
          f"untraced solve of {plain['solve_s']:.3f} s")
    return reps, problems, metrics_of(spec["per_layer"], values)


def metrics_of(declared, values):
    return {m["name"]: {"value": values.get(m["name"], 0),
                        "unit": m["unit"]} for m in declared}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [ROOT / "src" / "modesched" / "__init__.py",
              ROOT / "BENCHMARK.json"]
    if args.workload == W.POWER:
        needed.append(ROOT / W.THREE_MACHINE)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    kids = Children(args.workload, args.seed)
    runner = run_traced if args.trace else run_plain
    try:
        reps, problems, metrics = runner(kids, args.seconds, spec)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    attempted = sum(r["attempted"] for r in reps)
    failed = min(attempted, sum(r["failed_ops"] for r in reps)
                 + len(problems))
    correct = not problems and all(not r["problems"] for r in reps)
    print(f"{args.workload} seed {args.seed}: {len(reps)} runs in "
          f"{kids.elapsed():.1f} s")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
