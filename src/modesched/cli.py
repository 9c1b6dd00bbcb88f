"""Command-line front end: run a scheduling problem from a JSON config.

Two subcommands: ``optimize`` iterates on a fixed horizon, ``horizon``
runs the receding-horizon driver.  Results land in ``--out`` as CSV/JSON
files plus a ``manifest.json`` recording the config hash, versions, and
timings.  Log verbosity comes from the ``MODESCHED_LOG`` environment
variable (``error``, ``info`` or ``debug``).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .signals import ModeSchedule, constant_schedule
from .integrate import integrate_state
from .scheduler import (OptimizerConfig, check_knot_spacing, check_windows,
                        optimize, receding_horizon)
from .models import (
    HORIZON_DEFAULT,
    initial_state,
    load_network,
    power_system,
    vehicle_initial_state,
    vehicle_system,
)

log = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}


class ConfigError(ValueError):
    """The run configuration is malformed or inconsistent."""


#: top-level config keys; ``comment`` is free text that no run reads
_CONFIG_KEYS = frozenset({"model", "horizon", "u0", "optimizer",
                         "baseline_mode", "horizon_driver", "comment"})


def _fmt(x):
    """Shortest round-tripping decimal form, empty for missing values."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    return cfg


def _build_problem(cfg, seed_override=None, config_dir="."):
    """Config dict -> (system, x0, horizon, metadata)."""
    model = cfg.get("model")
    if not isinstance(model, dict) or "type" not in model:
        raise ConfigError('config needs a "model" object with a "type"')
    mtype = model["type"]
    meta = {"model": mtype}

    if mtype == "vehicle":
        sys_ = vehicle_system()
        try:
            x0 = vehicle_initial_state(model.get("x0"))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad vehicle x0: {err}") from None
        horizon = cfg.get("horizon", HORIZON_DEFAULT)
    elif mtype == "power":
        net_src = model.get("network")
        if net_src is None:
            raise ConfigError('power model needs a "network" entry')
        if isinstance(net_src, str) and not net_src.lstrip().startswith("{"):
            net_src = str(Path(config_dir) / net_src)
        try:
            net = load_network(net_src)
        except (ValueError, KeyError, OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"bad network description: {err}") from None
        dist = model.get("disturbance", {})
        if not isinstance(dist, dict):
            raise ConfigError('"disturbance" must be an object')
        magnitude = dist.get("magnitude", 0.0)
        seed = seed_override if seed_override is not None \
            else dist.get("seed")
        try:
            x0 = initial_state(net, magnitude=magnitude, seed=seed)
        except ValueError as err:
            raise ConfigError(f"bad power model: {err}") from None
        sys_ = power_system(net)
        if "horizon" not in cfg:
            raise ConfigError('power runs need an explicit "horizon"')
        horizon = cfg["horizon"]
        meta.update(n_gen=net.n_gen, disturbance_magnitude=magnitude,
                    seed=seed)
    else:
        raise ConfigError(f'unknown model type {mtype!r} '
                          f'(expected "vehicle" or "power")')

    if isinstance(horizon, bool) or not isinstance(horizon, (int, float)) \
            or not 0.0 < horizon < np.inf:
        raise ConfigError(f"horizon must be a finite positive number, "
                          f"got {horizon!r}")
    return sys_, x0, float(horizon), meta


def _build_schedule(cfg, horizon, num_modes):
    u0 = cfg.get("u0", 1)
    try:
        if isinstance(u0, dict):
            return ModeSchedule(sequence=tuple(u0["sequence"]),
                                times=tuple(u0.get("times", ())),
                                horizon=horizon, num_modes=num_modes)
    except (ValueError, KeyError, TypeError) as err:
        raise ConfigError(f"bad u0: {err}") from None
    return constant_schedule(_mode(cfg, "u0", num_modes), horizon, num_modes)


def _optimizer_config(cfg, horizon):
    opts = cfg.get("optimizer", {})
    if not isinstance(opts, dict):
        raise ConfigError('"optimizer" must be an object')
    try:
        check_knot_spacing(opts.get("knot_spacing"), horizon)
        return OptimizerConfig(**opts)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad optimizer options: {err}") from None


# -- output writers ---------------------------------------------------------

def _write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _write_iterates(path, result):
    # one row per accepted iterate; the starting iterate's cost and
    # gradient bound live in the manifest instead
    rows = [[r.k, _fmt(r.cost), _fmt(r.theta), _fmt(r.gamma0),
             _fmt(r.gamma), _fmt(r.j), r.n_segments]
            for r in result.iterations[1:]]
    _write_csv(path, ["k", "J", "theta", "gamma0", "gamma", "j", "M"], rows)


def _write_trajectory(path, curve, schedule, ts=None):
    if ts is None:
        ts = np.union1d(np.linspace(0.0, schedule.horizon, 1001),
                        schedule.boundaries)
    xs = curve(ts)
    header = ["t", "mode"] + [f"x{i + 1}" for i in range(xs.shape[1])]
    rows = [[_fmt(t), schedule.mode_at(t)] + [_fmt(v) for v in x]
            for t, x in zip(ts, xs)]
    _write_csv(path, header, rows)
    return ts


def _write_field(path, field):
    sched = field.schedule
    header = ["t", "segment", "active"] \
        + [f"d{a}" for a in range(1, field.num_modes + 1)]
    rows = []
    for seg in range(sched.n_segments):
        for t, row in zip(field.grids[seg], field.grid_values[seg]):
            rows.append([_fmt(t), seg, sched.sequence[seg]]
                        + [_fmt(v) for v in row])
    _write_csv(path, header, rows)


def _write_windows(path, result):
    rows = [[w.index, _fmt(w.t_start), w.status, _fmt(w.cost_before),
             _fmt(w.cost_after), _fmt(w.theta), w.steps, int(w.fell_back)]
            for w in result.windows]
    _write_csv(path, ["window", "t_start", "status", "J_before", "J_after",
                      "theta", "steps", "fell_back"], rows)


def _mode(cfg, key, num_modes):
    """Config entry ``key``, default 1: a JSON integer in ``1..N``."""
    mode = cfg.get(key, 1)
    if isinstance(mode, bool) or not isinstance(mode, int) \
            or not 1 <= mode <= num_modes:
        raise ConfigError(f"{key} must be a mode in 1..{num_modes}, "
                          f"got {mode!r}")
    return mode


def _run_baseline(sys_, x0, horizon, num_modes, mode, opt_cfg, out, ts=None):
    # written on the same time grid as trajectory.csv so the two runs
    # compare row for row
    sched = constant_schedule(mode, horizon, num_modes)
    traj = integrate_state(sys_, x0, sched, rtol=opt_cfg.rtol,
                           atol=opt_cfg.atol,
                           knot_spacing=opt_cfg.knot_spacing)
    _write_trajectory(out / "baseline_trajectory.csv", traj, sched, ts=ts)
    return {"mode": mode, "cost": traj.cost}


# -- subcommands ------------------------------------------------------------

def _cmd_optimize(args, cfg):
    sys_, x0, horizon, meta = _build_problem(
        cfg, args.seed, config_dir=Path(args.config).parent)
    sched0 = _build_schedule(cfg, horizon, sys_.num_modes)
    baseline_mode = _mode(cfg, "baseline_mode", sys_.num_modes)
    opt_cfg = _optimizer_config(cfg, horizon)

    if args.dry_run:
        print(f"config ok: optimize {meta['model']} over T={horizon:g}, "
              f"{sys_.num_modes} modes, start {sched0.n_segments} "
              f"segment(s), max {opt_cfg.max_iter} iterations")
        return 0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    result = optimize(sys_, x0, sched0, opt_cfg)
    t_opt = time.perf_counter() - t0

    _write_iterates(out / "iterates.csv", result)
    result.schedule.save_json(out / "schedule.json")
    ts = _write_trajectory(out / "trajectory.csv", result.trajectory,
                           result.schedule)
    _write_field(out / "d_field.csv", result.field)

    first = result.iterations[0]
    manifest = _manifest(args, cfg, meta, status=result.status,
                         cost=result.cost, cost_start=first.cost,
                         theta_start=first.theta,
                         theta_final=result.theta_final,
                         iterations=len(result.iterations) - 1,
                         timings={"optimize_s": t_opt})
    if args.baseline:
        manifest["baseline"] = _run_baseline(
            sys_, x0, horizon, sys_.num_modes, baseline_mode, opt_cfg, out,
            ts=ts)
    _finish_manifest(out, manifest, t0)

    ok = result.status in ("optimal", "max_iter")
    print(f"{result.status}: J={result.cost:.6g} "
          f"theta={result.theta_final:.4g} "
          f"({len(result.iterations) - 1} iterations, "
          f"{result.schedule.n_segments} segments) -> {out}")
    return 0 if ok else 1


def _cmd_horizon(args, cfg):
    drv = cfg.get("horizon_driver")
    if not isinstance(drv, dict):
        raise ConfigError('horizon runs need a "horizon_driver" object')
    unknown = set(drv) - {"window", "n_windows", "advance"}
    if unknown:
        raise ConfigError(f"unknown horizon_driver keys {sorted(unknown)}")
    try:
        window, n_windows = drv["window"], drv["n_windows"]
        advance = drv.get("advance", 0.1)
        # the driver's own checks, on the values as the config gives them
        check_windows(window, n_windows, advance)
    except (KeyError, ValueError) as err:
        raise ConfigError(f"bad horizon_driver: {err}") from None
    # the window is the model horizon; a top-level one may only repeat it
    problem_cfg = dict(cfg)
    problem_cfg.setdefault("horizon", window)
    sys_, x0, horizon, meta = _build_problem(
        problem_cfg, args.seed, config_dir=Path(args.config).parent)
    if horizon != window:
        raise ConfigError(f"horizon {horizon!r} differs from "
                          f"horizon_driver.window {window!r}")
    sched0 = _build_schedule(cfg, window, sys_.num_modes)
    baseline_mode = _mode(cfg, "baseline_mode", sys_.num_modes)
    opt_cfg = _optimizer_config(cfg, window)

    if args.dry_run:
        print(f"config ok: horizon {meta['model']}, window {window:g} "
              f"advancing {advance:g} x {n_windows} windows "
              f"(one descent step each)")
        return 0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    result = receding_horizon(sys_, x0, sched0, n_windows,
                              advance=advance, config=opt_cfg)
    t_run = time.perf_counter() - t0

    _write_windows(out / "windows.csv", result)
    result.schedule.save_json(out / "schedule.json")
    ts = _write_trajectory(out / "trajectory.csv", result.trajectory,
                           result.schedule)

    n_bad = sum(1 for w in result.windows if w.fell_back)
    manifest = _manifest(args, cfg, meta, status="done", cost=result.cost,
                         windows=n_windows, windows_fell_back=n_bad,
                         timings={"horizon_s": t_run})
    if args.baseline:
        manifest["baseline"] = _run_baseline(
            sys_, x0, result.schedule.horizon, sys_.num_modes,
            baseline_mode, opt_cfg, out, ts=ts)
    _finish_manifest(out, manifest, t0)

    print(f"applied {result.schedule.horizon:g}s over {n_windows} windows "
          f"({n_bad} fell back): J={result.cost:.6g} -> {out}")
    return 0


def _manifest(args, cfg, meta, **extra):
    blob = json.dumps(cfg, sort_keys=True).encode()
    m = {
        "command": args.command,
        "version": __version__,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "seed_override": args.seed,
        "model": meta,
    }
    m.update(extra)
    return m


def _finish_manifest(out, manifest, t0):
    manifest.setdefault("timings", {})
    manifest["timings"]["total_s"] = time.perf_counter() - t0
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parser():
    p = argparse.ArgumentParser(
        prog="modesched",
        description="Projection-based mode scheduling for switched systems.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, desc in [("optimize", "iterate a schedule on a fixed horizon"),
                       ("horizon", "receding-horizon scheduling")]:
        sp = sub.add_parser(name, help=desc)
        sp.add_argument("config", help="JSON problem description")
        sp.add_argument("--out", default="out",
                        help="output directory (default: ./out)")
        sp.add_argument("--dry-run", action="store_true",
                        help="validate the config and exit")
        sp.add_argument("--baseline", action="store_true",
                        help="also integrate the constant baseline schedule")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the disturbance seed")
    return p


def main(argv=None):
    level = os.environ.get("MODESCHED_LOG", "error").lower()
    if level not in _LOG_LEVELS:
        print(f"warning: MODESCHED_LOG={level!r} not in "
              f"{sorted(_LOG_LEVELS)}, using error", file=sys.stderr)
        level = "error"
    logging.basicConfig(level=_LOG_LEVELS[level],
                        format="%(levelname)s %(name)s: %(message)s")

    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.command == "optimize":
            return _cmd_optimize(args, cfg)
        return _cmd_horizon(args, cfg)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - report, don't traceback
        if log.isEnabledFor(logging.DEBUG):
            raise
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
