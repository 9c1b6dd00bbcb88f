"""Shared fixtures and schedule randomization helpers."""
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from modesched import InsertionGradientField, ModeSchedule, constant_schedule
from modesched.gradient import GRID_DENOM
from modesched.models import vehicle_initial_state, vehicle_system

REPO = Path(__file__).resolve().parent.parent
THREE_MACHINE = REPO / "demos" / "networks" / "three_machine.json"


@pytest.fixture(scope="session")
def vehicle():
    return vehicle_system()


@pytest.fixture(scope="session")
def vehicle_x0():
    return vehicle_initial_state()


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


def random_field(rng, sched):
    """Smooth random channels, incumbent-masked, on the given schedule."""
    raws = []
    for _ in range(sched.num_modes):
        c = rng.normal(0.0, 2.0, 3)
        w = rng.uniform(0.5, 3.0, 2)
        p = rng.uniform(0.0, 2 * np.pi, 2)
        raws.append(lambda t, c=c, w=w, p=p:
                    c[0] + c[1] * np.sin(w[0] * t + p[0])
                    + c[2] * np.cos(w[1] * t + p[1]))
    return InsertionGradientField.from_callables(
        sched, masked_channels(sched, raws))


@st.composite
def quadratic_bottoms(draw):
    """A channel ``k (t - c)^2 + v0`` on one segment ``[0, T]``, with ``eps``.

    The centre ``c`` lies anywhere in the segment, inside the first or last
    grid cell included, and the curvature ``k`` spans 1e-2 to 1e4.  The
    depth ``v0`` is set so that at ``gamma = (1 + eps) / |v0|`` the channel
    beats the threshold on ``(c - r, c + r)`` with ``r`` a share of the
    room to the nearer end.
    """
    horizon = draw(st.floats(1.0, 10.0))
    cell = horizon / GRID_DENOM
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
