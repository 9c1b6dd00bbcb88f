"""Shared fixtures and schedule randomization helpers."""
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from modesched import (InsertionGradientField, ModeSchedule,
                       OptimizerConfig, SwitchedSystem, constant_schedule,
                       max_map)
from modesched import integrate
from modesched.integrate import knot_grid
from modesched.models import (PowerNetwork, vehicle_initial_state,
                              vehicle_system)

REPO = Path(__file__).resolve().parent.parent
THREE_MACHINE = REPO / "demos" / "networks" / "three_machine.json"

# a property test that fails on CI prints the @reproduce_failure blob that
# replays its failing example anywhere.  Recent hypothesis releases load a
# "ci" profile of their own that prints it; this one keeps that profile's
# settings, which are the default by now, and adds the blob on releases
# that have none
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def vehicle():
    return vehicle_system()


@pytest.fixture(scope="session")
def vehicle_x0():
    return vehicle_initial_state()


def tight_config(horizon, **knobs):
    """An :class:`OptimizerConfig` for a reference run: tolerances 1e-12
    (relative) and 1e-13 (absolute), knots 16 times finer than the default
    grid of ``horizon / KNOTS_PER_HORIZON``; ``knobs`` set the rest."""
    return OptimizerConfig(
        rtol=1e-12, atol=1e-13,
        knot_spacing=horizon / (16 * integrate.KNOTS_PER_HORIZON), **knobs)


def ring_network(n=12):
    """Small lossless ring; configuration 2 halves every other line."""
    rng = np.random.default_rng(5)
    B1, B2 = np.zeros((n, n)), np.zeros((n, n))
    for a in range(n):
        b = (a + 1) % n
        s = rng.uniform(0.8, 1.2)
        for B, w in ((B1, s), (B2, s * (0.5 if a % 2 else 1.0))):
            B[a, b] += w
            B[b, a] += w
            B[a, a] -= w
            B[b, b] -= w
    return PowerNetwork(Y=[1j * B1, 1j * B2], E=np.ones(n),
                        H=rng.uniform(2.5, 4.5, n), Pm=np.zeros(n))


def random_linear_quadratic(seed):
    """``x' = A_i x + b_i`` in 2 to 4 modes, ``n`` in 1..4, running cost
    ``|x|^2 / 2``; with ``x0`` and a constant starting schedule."""
    rng = np.random.default_rng(seed)
    n, N = int(rng.integers(1, 5)), int(rng.integers(2, 5))
    A = 0.8 * rng.normal(size=(N, n, n))
    b = 0.5 * rng.normal(size=(N, n))
    sys_ = SwitchedSystem(
        num_modes=N, dim=n,
        mode_field=lambda i, x: x @ A[i - 1].T + b[i - 1],
        mode_jacobian=lambda i, x: np.broadcast_to(A[i - 1],
                                                   np.shape(x) + (n,)),
        running_cost=lambda x: 0.5 * np.sum(x * x, axis=-1),
        running_cost_gradient=lambda x: np.array(x, float),
        cost_floor=0.0)
    x0, T = rng.normal(size=n), rng.uniform(0.5, 3.0)
    return sys_, x0, constant_schedule(int(rng.integers(1, N + 1)), T, N)


def random_schedule(rng, horizon, num_modes, n_switches):
    """Random sequence of distinct-neighbor modes with sorted times."""
    while True:
        times = np.sort(rng.uniform(0.0, horizon, n_switches))
        if n_switches == 0 or (np.diff(times, prepend=0.0,
                                       append=horizon) > 1e-3).all():
            break
    seq = [int(rng.integers(1, num_modes + 1))]
    for _ in range(n_switches):
        step = int(rng.integers(1, num_modes))
        seq.append((seq[-1] - 1 + step) % num_modes + 1)
    return ModeSchedule(tuple(seq), tuple(times), horizon, num_modes)


def masked_channels(sched, raws):
    """Zero each channel wherever it is the active mode (as real fields are)."""
    times = np.asarray(sched.times)

    def make(a, raw):
        def chan(t):
            t = np.atleast_1d(np.asarray(t, float))
            seg = np.clip(np.searchsorted(times, t, side="right"), 0,
                          sched.n_segments - 1)
            inc = np.asarray(sched.sequence)[seg]
            return np.where(inc == a, 0.0, raw(t))
        return chan

    return [make(a, raw) for a, raw in enumerate(raws, start=1)]


def random_field(rng, sched, twins=False):
    """Smooth random channels, incumbent-masked, on the given schedule.

    With ``twins`` the last channel is a copy of the first, so the two tie
    exactly wherever neither is active.
    """
    raws = []
    for _ in range(sched.num_modes):
        c = rng.normal(0.0, 2.0, 3)
        w = rng.uniform(0.5, 3.0, 2)
        p = rng.uniform(0.0, 2 * np.pi, 2)
        raws.append(lambda t, c=c, w=w, p=p:
                    c[0] + c[1] * np.sin(w[0] * t + p[0])
                    + c[2] * np.cos(w[1] * t + p[1]))
    if twins:
        raws[-1] = raws[0]
    return InsertionGradientField.from_callables(
        sched, masked_channels(sched, raws))


def max_rule_crossings(field, gamma):
    """``(time, new mode)`` of every switch of the max rule at ``gamma``,
    with no dwell merging."""
    s = max_map(field.schedule, field, gamma, dwell=0.0)
    return list(zip(s.times, s.sequence[1:]))


@st.composite
def quadratic_bottoms(draw):
    """A channel ``k (t - c)^2 + v0`` on one segment ``[0, T]``, with ``eps``.

    The centre ``c`` lies anywhere in the segment, inside the first or last
    cell of the field's sampling grid (:func:`knot_grid`) included, and the
    curvature ``k`` spans 1e-2 to 1e4.  The depth ``v0`` is set so that at
    ``gamma = (1 + eps) / |v0|`` the channel beats the threshold on
    ``(c - r, c + r)`` with ``r`` a share of the room to the nearer end.
    """
    horizon = draw(st.floats(1.0, 10.0))
    cell = knot_grid(0.0, horizon, horizon)[1]
    region = draw(st.sampled_from(["first cell", "last cell", "anywhere"]))
    if region == "anywhere":
        c = draw(st.floats(0.1 * cell, horizon - 0.1 * cell))
    else:
        c = draw(st.floats(0.1, 0.9)) * cell
        if region == "last cell":
            c = horizon - c
    k = 10.0 ** draw(st.floats(-2.0, 4.0))
    eps = 10.0 ** draw(st.floats(-6.0, -1.0))
    r = draw(st.floats(0.05, 0.95)) * min(c, horizon - c)
    v0 = -k * r**2 * (1.0 + eps) / eps
    return dict(horizon=horizon, c=c, k=k, v0=v0, eps=eps, r=r)


def quadratic_field(q):
    """The two-mode field of :func:`quadratic_bottoms`, exact slopes given."""
    sched = constant_schedule(1, q["horizon"], 2)
    k, c, v0 = q["k"], q["c"], q["v0"]
    return InsertionGradientField.from_callables(
        sched,
        [lambda t: np.zeros_like(t), lambda t: k * (t - c) ** 2 + v0],
        channel_slopes=[lambda t: np.zeros_like(t),
                        lambda t: 2.0 * k * (t - c)],
    )


def count_solves(monkeypatch):
    """Route the integrator's ``solve_ivp`` through a call counter; the
    returned list collects each call's ``(t0, t1)``."""
    import modesched.integrate as integrate_module
    calls = []
    real = integrate_module.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(integrate_module, "solve_ivp", counted)
    return calls


def first_passing_point(curve, floor, bound):
    """The time where a bounded integration of ``curve``'s schedule stops:
    the first point it solves, a segment start or an accepted solver step
    end (from ``curve``'s recorded steps, which every segment needs), where
    the accumulated cost ``acc`` gives ``acc + floor (T - t) > bound``, in
    the integrator's own arithmetic; ``None`` where there is none."""
    T = curve.t1
    for record in curve._steps:
        for t, z in zip(record.t, record.y):
            if z[-1] + floor * (T - t) - bound > 0.0:
                return t
    return None
