"""End-to-end command-line runs: exit codes, outputs, determinism."""
import csv
import hashlib
import json
import subprocess
import sys

import pytest

import modesched
from modesched.cli import main
from conftest import THREE_MACHINE


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def vehicle_cfg(max_iter=3):
    return {
        "model": {"type": "vehicle"},
        "u0": 2,
        "optimizer": {"max_iter": max_iter, "theta_stop": 0.0},
    }


def power_cfg(n_windows=2, advance=0.4):
    return {
        "model": {
            "type": "power",
            "network": str(THREE_MACHINE),
            "disturbance": {"magnitude": 0.3, "seed": 0},
        },
        "u0": 1,
        "baseline_mode": 1,
        "optimizer": {"alpha": 0.4, "beta": 0.1},
        "horizon_driver": {"window": 1.0, "n_windows": n_windows,
                           "advance": advance},
    }


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_dry_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, vehicle_cfg())
    assert main(["optimize", cfg, "--dry-run"]) == 0
    assert "config ok" in capsys.readouterr().out
    cfg = write_cfg(tmp_path, power_cfg(), "p.json")
    assert main(["horizon", cfg, "--dry-run"]) == 0
    assert "config ok" in capsys.readouterr().out


def test_config_errors_exit_2(tmp_path, capsys):
    bogus = [
        ("missing.json", None),                       # unreadable
        ("notjson.json", "{nope"),                    # parse error
        ("list.json", "[1, 2]"),                      # not an object
    ]
    for name, text in bogus:
        p = tmp_path / name
        if text is not None:
            p.write_text(text)
        assert main(["optimize", str(p), "--dry-run"]) == 2
        assert "error" in capsys.readouterr().err

    cases = [
        {"model": {"type": "boat"}},
        {"model": {"type": "vehicle"}, "u0": 7},
        {"model": {"type": "vehicle"}, "optimizer": {"warp": 9}},
        {"model": {"type": "vehicle"}, "optimizer": {"alpha": 2.0}},
        {"model": {"type": "power",
                   "network": str(THREE_MACHINE)}},   # no horizon
        {"model": {"type": "power", "network": str(THREE_MACHINE),
                   "disturbance": {"magnitude": 0.3}},
         "horizon": 1.0},                             # no seed
        {"model": {"type": "vehicle"}, "horizon": -1.0},
        {"model": {"type": "vehicle", "x0": [1, 2]}},
        {"model": {"type": "vehicle"}, "horizon": "long"},
        {"model": {"type": "vehicle"}, "baseline_mode": 7},
        {"model": {"type": "power", "network": str(THREE_MACHINE),
                   "disturbance": {"magnitude": "big", "seed": 0}},
         "horizon": 1.0},
    ]
    for i, cfg in enumerate(cases):
        path = write_cfg(tmp_path, cfg, f"bad{i}.json")
        code = main(["optimize", path, "--dry-run"])
        assert code == 2, f"case {i} gave exit {code}"
        assert capsys.readouterr().err.startswith("error")
    no_windows = power_cfg()
    no_windows["horizon_driver"]["n_windows"] = -3
    path = write_cfg(tmp_path, no_windows, "no_windows.json")
    assert main(["horizon", path, "--dry-run"]) == 2
    assert "n_windows" in capsys.readouterr().err
    # the missing seed is fixable from the command line
    ok = write_cfg(tmp_path, cases[5], "seedless.json")
    assert main(["optimize", ok, "--dry-run", "--seed", "3"]) == 0
    capsys.readouterr()


def test_horizon_advance_exceeding_window_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, power_cfg(advance=1.5))
    assert main(["horizon", cfg, "--dry-run"]) == 2
    assert "advance" in capsys.readouterr().err


def test_log_level_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MODESCHED_LOG", "chatty")
    cfg = write_cfg(tmp_path, vehicle_cfg())
    assert main(["optimize", cfg, "--dry-run"]) == 0
    assert "MODESCHED_LOG" in capsys.readouterr().err


def test_optimize_outputs(tmp_path, capsys):
    cfg_dict = vehicle_cfg(max_iter=3)
    cfg = write_cfg(tmp_path, cfg_dict)
    out = tmp_path / "run"
    assert main(["optimize", cfg, "--out", str(out)]) == 0
    capsys.readouterr()

    for name in ("manifest.json", "iterates.csv", "schedule.json",
                 "trajectory.csv", "d_field.csv"):
        assert (out / name).exists(), name

    header, rows = read_csv(out / "iterates.csv")
    assert header == ["k", "J", "theta", "gamma0", "gamma", "j", "M"]
    assert 0 < len(rows) <= 50
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    costs = [float(r[1]) for r in rows]
    assert all(b < a for a, b in zip(costs, costs[1:]))

    header, rows = read_csv(out / "trajectory.csv")
    assert header[:2] == ["t", "mode"]
    ts = [float(r[0]) for r in rows]
    assert all(b > a for a, b in zip(ts, ts[1:]))

    manifest = json.loads((out / "manifest.json").read_text())
    blob = json.dumps(cfg_dict, sort_keys=True).encode()
    assert manifest["config_sha256"] == hashlib.sha256(blob).hexdigest()
    assert manifest["version"] == modesched.__version__
    assert manifest["command"] == "optimize"
    assert manifest["status"] == "max_iter"
    assert manifest["iterations"] == 3
    assert manifest["cost_start"] == pytest.approx(276.367748, rel=1e-6)
    assert manifest["cost"] == costs[-1]
    assert manifest["timings"]["total_s"] > 0.0


def test_optimize_reruns_are_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, vehicle_cfg(max_iter=3))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["optimize", cfg, "--out", str(a)]) == 0
    assert main(["optimize", cfg, "--out", str(b)]) == 0
    capsys.readouterr()
    for name in ("iterates.csv", "trajectory.csv", "schedule.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_horizon_baseline_grids_align(tmp_path, capsys):
    cfg = write_cfg(tmp_path, power_cfg(n_windows=2, advance=0.4))
    out = tmp_path / "run"
    assert main(["horizon", cfg, "--out", str(out), "--baseline"]) == 0
    capsys.readouterr()

    for name in ("manifest.json", "windows.csv", "schedule.json",
                 "trajectory.csv", "baseline_trajectory.csv"):
        assert (out / name).exists(), name

    h1, r1 = read_csv(out / "trajectory.csv")
    h2, r2 = read_csv(out / "baseline_trajectory.csv")
    assert h1 == h2
    assert [r[0] for r in r1] == [r[0] for r in r2]   # same time column
    # the baseline never switches away from its constant mode
    assert {r[1] for r in r2} == {"1"}

    header, rows = read_csv(out / "windows.csv")
    assert header[0] == "window"
    assert len(rows) == 2
    assert [r[0] for r in rows] == ["0", "1"]

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "horizon"
    assert manifest["windows"] == 2
    assert manifest["baseline"]["mode"] == 1
    assert manifest["baseline"]["cost"] > 0.0


def test_degraded_window_recorded(tmp_path, capsys, monkeypatch):
    from modesched import LineSearchError

    def boom(*a, **kw):
        raise LineSearchError("forced")

    monkeypatch.setattr("modesched.scheduler.backtrack", boom)
    cfg = write_cfg(tmp_path, power_cfg(n_windows=2, advance=0.4))
    out = tmp_path / "run"
    assert main(["horizon", cfg, "--out", str(out)]) == 0
    assert "2 fell back" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["windows_fell_back"] == 2
    _, rows = read_csv(out / "windows.csv")
    assert all(r[-1] == "1" for r in rows)            # fell_back column


def test_failed_descent_exit_1(tmp_path, capsys, monkeypatch):
    from modesched import LineSearchError

    def boom(*a, **kw):
        raise LineSearchError("forced")

    monkeypatch.setattr("modesched.scheduler.backtrack", boom)
    cfg = write_cfg(tmp_path, vehicle_cfg())
    out = tmp_path / "run"
    assert main(["optimize", cfg, "--out", str(out)]) == 1
    assert "line_search_failure" in capsys.readouterr().out
    # outputs are still written for post-mortem
    assert (out / "manifest.json").exists()


def test_console_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, vehicle_cfg())
    proc = subprocess.run(
        [sys.executable, "-m", "modesched.cli", "optimize", cfg,
         "--dry-run"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "config ok" in proc.stdout
