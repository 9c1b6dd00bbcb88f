"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest bench``.  The smoke
tests solve shortened versions of each workload in-process (2 descent
iterations, 3 planning windows) with the same checks and tracer the
benchmark uses.
"""
from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
import worker  # noqa: E402


# -- percentile rule --------------------------------------------------------

@pytest.mark.parametrize("n, p", [
    (19, None), (20, 50), (49, 50), (50, 80), (99, 80), (100, 90),
    (200, 95), (1000, 99)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p


def test_percentile_matches_linear_interpolation():
    xs = list(np.random.default_rng(3).exponential(size=57))
    for p in (50, 80, 90):
        assert run.percentile(xs, p) == pytest.approx(np.percentile(xs, p))


# -- self-time arithmetic ---------------------------------------------------

def _span(name, start, end, parent, model_s=0.0):
    return [name, start, end, parent, 0, model_s]


def test_layer_times_subtract_children_and_model_time():
    spans = [
        _span("root", 0.0, 10.0, -1, model_s=1.0),
        _span("a", 1.0, 4.0, 0, model_s=0.5),
        _span("b", 2.0, 3.0, 1),
        _span("a", 5.0, 9.0, 0),
    ]
    layers, model_s = tracing.layer_times(spans)
    assert layers["root"] == {"calls": 1, "self_s": pytest.approx(2.0)}
    assert layers["a"] == {"calls": 2, "self_s": pytest.approx(1.5 + 4.0)}
    assert layers["b"] == {"calls": 1, "self_s": pytest.approx(1.0)}
    assert model_s == pytest.approx(1.5)
    total = sum(v["self_s"] for v in layers.values()) + model_s
    assert total == pytest.approx(10.0)


def test_tracer_charges_model_calls_to_the_open_span():
    tr = tracing.Tracer()
    field = tr.model("models.field", lambda i, x: x)
    inner = tr.span("inner", lambda: field(1, np.zeros((4, 2))))
    outer = tr.span("outer", lambda: (inner(), field(1, np.zeros(2))))
    tr.run(outer)
    assert [s[tracing.NAME] for s in tr.spans] == [tracing.ROOT, "outer",
                                                   "inner"]
    assert tr.counts["models.field.calls"] == 2
    assert tr.counts["models.field.points"] == 5
    layers, model_s = tracing.layer_times(tr.spans)
    root = tr.spans[0]
    total = sum(v["self_s"] for v in layers.values()) + model_s
    assert total == pytest.approx(root[tracing.END] - root[tracing.START],
                                  abs=1e-12)
    field(1, np.zeros(2))  # outside any span: not counted
    assert tr.counts["models.field.calls"] == 2


def test_iteration_latencies_leave_out_the_reference_runs():
    rec = tracing.OpRecorder(by_iteration=True)
    rec.refs = [0.1, 0.05, 0.15, 0.1, 0.2]
    rec.marks = [(0.0, 0.1, 1), (1.0, 0.3, 3), (2.5, 0.6, 5)]
    assert rec.iteration_seconds() == pytest.approx([0.8, 1.2])
    assert rec.op_refs() == [[0.1, 0.05, 0.15], [0.15, 0.1, 0.2]]


# -- inputs -----------------------------------------------------------------

def test_ring12_network_is_lossless_ring_with_half_lines_switched():
    net = W.ring12_network(0)
    assert net == W.ring12_network(0)
    assert net != W.ring12_network(1)
    Y1 = np.array(net["Y1"])
    Y2 = np.array(net["Y2"])
    assert Y1.shape == Y2.shape == (12, 12, 2)
    assert not Y1[..., 0].any() and not Y2[..., 0].any()
    for Y in (Y1[..., 1], Y2[..., 1]):
        assert np.allclose(Y, Y.T)
        assert np.allclose(Y.sum(axis=1), 0.0)  # delta = 0 is equilibrium
    lines = np.triu(Y1[..., 1], 1) != 0
    assert lines.sum() == 12 + W.RING_CHORDS
    assert all(Y1[i, (i + 1) % 12, 1] > 0 for i in range(12))
    halved = np.isclose(np.triu(Y2[..., 1], 1), 0.5 * np.triu(Y1[..., 1], 1))
    assert (halved & lines).sum() == lines.sum() // 2
    assert all(g["Pm"] == 0.0 for g in net["generators"])


# -- shortened smoke runs ---------------------------------------------------

def _short(workload):
    p = W.build(workload, root=REPO)
    if p.n_windows:
        return dataclasses.replace(p, n_windows=3)
    return dataclasses.replace(p, config=dataclasses.replace(p.config,
                                                             max_iter=2))


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_smoke_run_passes_checks_and_traces_consistently(workload):
    plain = worker.solve_and_check(_short(workload))
    assert plain["problems"] == []
    assert plain["attempted"] == len(plain["ops_s"]) in (2, 3)
    assert plain["ref_s"] > 0.0
    assert len(plain["ops_ref_s"]) == len(plain["ops_s"])

    traced = []
    for _ in range(2):
        tr = tracing.Tracer()
        p = _short(workload)
        p = dataclasses.replace(p, system=tr.wrap_system(p.system))
        traced.append(worker.solve_and_check(p, tr))
    for out in traced:
        assert out["problems"] == []
        assert out["digest"] == plain["digest"]
        assert out["warnings"] == plain["warnings"]
    a, b = (out["layers"] for out in traced)
    counts = {k for k in a if not k.endswith("_s")}
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["projection.project.calls"] == a["linesearch.trials"] \
        - a.get("linesearch.cache_hits", 0) > 0
    assert a["integrate.adjoint.calls"] > 0
    assert a["models.jacobian.calls"] > 0


def test_checks_catch_a_step_that_does_not_descend():
    p = _short(W.VEHICLE)
    from modesched.scheduler import optimize
    res = optimize(p.system, p.x0, p.schedule0, p.config)
    res.iterations[1].cost = res.iterations[0].cost
    assert [k for k, _ in worker.step_problems(res, p.config.j_max)] == [0]
    assert worker.schedule_problem(res.schedule, p.schedule0.horizon, 4) \
        is None
    assert "horizon" in worker.schedule_problem(res.schedule, 1.0, 4)


def test_benchmark_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", W.VEHICLE, "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
