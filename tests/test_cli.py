"""End-to-end command-line runs: exit codes, outputs, determinism."""
import csv
import hashlib
import json
import math
import subprocess
import sys

import pytest

import modesched
from modesched.cli import main
from conftest import REPO, THREE_MACHINE

DEMOS = REPO / "demos"


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
        {"model": {"type": "vehicle"},
         "optimizer": {"knot_spacing": 1.0}},         # coarser than default
        {"model": {"type": "vehicle"}, "u0": 2,
         "optimiser": {"max_iter": 3}},               # misspelt key
        {"model": {"type": "vehicle"}, "optimizer": {"max_iter": 2.5}},
        {"model": {"type": "vehicle"}, "optimizer": {"j_max": True}},
        {"model": {"type": "vehicle"}, "optimizer": {"theta_stop": True}},
        {"model": {"type": "vehicle"}, "optimizer": {"rtol": -1.0}},
        {"model": {"type": "vehicle"}, "u0": 2.7},    # not truncated to 2
        {"model": {"type": "vehicle"}, "u0": True},
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


@pytest.mark.parametrize("n_windows", [2.7, 0, True, "2"])
def test_horizon_rejects_a_window_count_that_is_no_positive_integer(
        tmp_path, capsys, n_windows):
    cfg = write_cfg(tmp_path, power_cfg(n_windows=n_windows))
    assert main(["horizon", cfg, "--dry-run"]) == 2
    assert "n_windows" in capsys.readouterr().err


@pytest.mark.parametrize("extra, named", [
    ({"u0": {"sequence": [2.7, 1], "times": [1.0]}}, "integers"),  # not 2
    ({"horizon": math.inf}, "horizon"),       # a run that never ends
    ({"horizon": math.nan}, "horizon"),
    ({"optimizer": {"theta_stop": math.nan}}, "theta_stop"),
    ({"optimizer": {"theta_stop": -math.inf}}, "theta_stop"),
    ({"optimizer": {"theta_stop": 1e-3}}, "theta_stop"),  # never met
    ({"optimizer": {"theta_stop": 10**400}}, "theta_stop"),  # no float
])
def test_dry_run_rejects_values_a_run_would_misread(tmp_path, capsys, extra,
                                                    named):
    cfg = write_cfg(tmp_path, {"model": {"type": "vehicle"}, **extra})
    assert main(["optimize", cfg, "--dry-run"]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("x0", [["1", "2", "3"], [True, False, True],
                                [0, 0, "nan"], [0, 0, math.inf],
                                [10**400, 0, 0]])  # finite, but no float
def test_dry_run_rejects_a_vehicle_pose_it_would_coerce(tmp_path, capsys,
                                                        x0):
    cfg = write_cfg(tmp_path, {"model": {"type": "vehicle", "x0": x0}})
    assert main(["optimize", cfg, "--dry-run"]) == 2
    assert "x0" in capsys.readouterr().err


@pytest.mark.parametrize("disturbance, named", [
    ({"magnitude": True, "seed": 0}, "magnitude"),
    ({"magnitude": "0.3", "seed": 0}, "magnitude"),
    ({"magnitude": "nan", "seed": 0}, "magnitude"),
    ({"magnitude": math.inf, "seed": 0}, "magnitude"),   # JSON 1e400
    ({"magnitude": 0.3, "seed": True}, "seed"),
    ({"magnitude": 0.3, "seed": "0"}, "seed"),
    ({"magnitude": 0.3, "seed": 1.5}, "seed"),
    (0.3, "disturbance"),
    ({"magnitude": 1e308, "seed": 0}, "magnitude"),  # its range overflows
])
def test_dry_run_rejects_a_disturbance_it_would_coerce(tmp_path, capsys,
                                                        disturbance, named):
    cfg = power_cfg()
    cfg["model"]["disturbance"] = disturbance
    assert main(["horizon", write_cfg(tmp_path, cfg), "--dry-run"]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("gen, key, value", [
    (0, "H", 0.0), (1, "H", -3.0), (2, "H", math.inf), (0, "E", math.nan),
    (1, "Pm", math.inf), (None, "f_s", 0.0), (None, "f_s", math.nan),
])
def test_horizon_rejects_an_impossible_machine(tmp_path, capsys, gen, key,
                                              value):
    # a machine without inertia used to end the run in divide-by-zero
    # warnings and "integration failed" with exit 1; the network is now
    # refused when it is loaded, before any run
    net = json.loads(THREE_MACHINE.read_text())
    (net if gen is None else net["generators"][gen])[key] = value
    cfg = power_cfg()
    cfg["model"]["network"] = write_cfg(tmp_path, net, "net.json")
    assert main(["horizon", write_cfg(tmp_path, cfg), "--dry-run"]) == 2
    err = capsys.readouterr().err
    assert "bad network description" in err and key in err


@pytest.mark.parametrize("key, value", [
    ("window", True), ("window", "1.0"), ("advance", True),
    ("advance", "0.4")])
def test_horizon_driver_takes_numbers_not_strings_or_bools(tmp_path, capsys,
                                                           key, value):
    # float() would read each of these as a number; the driver does not
    cfg = power_cfg()
    cfg["horizon_driver"][key] = value
    assert main(["horizon", write_cfg(tmp_path, cfg), "--dry-run"]) == 2
    assert key in capsys.readouterr().err


def test_horizon_advance_exceeding_window_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, power_cfg(advance=1.5))
    assert main(["horizon", cfg, "--dry-run"]) == 2
    assert "advance" in capsys.readouterr().err


@pytest.mark.parametrize("key, driver", [
    ("iterations_per_window", {"window": 1.0, "n_windows": 2, "advance": 0.4,
                               "iterations_per_window": 3}),
    # misspelled, it must not fall back to the default advance
    ("advnace", {"window": 1.0, "n_windows": 2, "advnace": 0.4}),
])
def test_horizon_driver_rejects_unknown_keys(tmp_path, capsys, key, driver):
    cfg = power_cfg()
    cfg["horizon_driver"] = driver
    assert main(["horizon", write_cfg(tmp_path, cfg), "--dry-run"]) == 2
    assert key in capsys.readouterr().err


def test_horizon_run_rejects_a_horizon_other_than_the_window(tmp_path,
                                                              capsys):
    cfg = power_cfg()
    cfg["horizon"] = 7.0
    assert main(["horizon", write_cfg(tmp_path, cfg), "--dry-run"]) == 2
    assert "horizon_driver.window" in capsys.readouterr().err
    cfg["horizon"] = 1.0                              # repeating it is fine
    assert main(["horizon", write_cfg(tmp_path, cfg), "--dry-run"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command, name", [("optimize", "vehicle.json"),
                                           ("horizon", "power_triangle.json")])
def test_shipped_configs_pass_dry_run(capsys, command, name):
    assert main([command, str(DEMOS / name), "--dry-run"]) == 0
    assert "config ok" in capsys.readouterr().out


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


def test_one_mode_network_is_optimal(tmp_path, capsys):
    # a direct-layout network with only Y1 is a one-mode system: nothing
    # can be inserted, so the run ends optimal with theta 0 and exits 0
    net = json.loads(THREE_MACHINE.read_text())
    del net["Y2"]
    cfg = power_cfg()
    cfg["model"]["network"] = write_cfg(tmp_path, net, "net.json")
    cfg["horizon"] = 1.0
    out = tmp_path / "run"
    assert main(["optimize", write_cfg(tmp_path, cfg), "--out",
                 str(out)]) == 0
    assert "optimal:" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "optimal"
    assert manifest["theta_start"] == manifest["theta_final"] == 0.0


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
