"""Trajectory/adjoint integration against closed forms and quadrature."""
import math

import numpy as np
import pytest

from modesched import (
    ModeSchedule,
    SwitchedSystem,
    constant_schedule,
    evaluate_cost,
    integrate_adjoint,
    integrate_state,
)
from modesched.models import (
    initial_state,
    load_network,
    power_system,
    vehicle_initial_state,
    vehicle_system,
)
from conftest import THREE_MACHINE, random_schedule


def decay_system():
    """One mode, xdot = -x, running cost 0.5 x^2: everything closed-form."""
    return SwitchedSystem(
        num_modes=1, dim=1,
        mode_field=lambda i, x: -np.asarray(x, float),
        mode_jacobian=lambda i, x: -np.eye(1),
        running_cost=lambda x: 0.5 * float(np.dot(x, x)),
        running_cost_gradient=lambda x: np.asarray(x, float),
        name="decay",
    )


def two_rate_system():
    """Two modes xdot = -x and xdot = -3x, running cost x."""
    rates = {1: -1.0, 2: -3.0}
    return SwitchedSystem(
        num_modes=2, dim=1,
        mode_field=lambda i, x: rates[i] * np.asarray(x, float),
        mode_jacobian=lambda i, x: rates[i] * np.eye(1),
        running_cost=lambda x: float(x[0]),
        running_cost_gradient=lambda x: np.ones(1),
        name="two-rate",
    )


def test_decay_matches_closed_form():
    sys_ = decay_system()
    T = 3.0
    x = integrate_state(sys_, [1.0], constant_schedule(1, T, 1))
    ts = np.linspace(0.0, T, 57)
    np.testing.assert_allclose(x(ts)[:, 0], np.exp(-ts), atol=1e-8)
    # cost accumulator: integral of 0.5 e^{-2t}
    assert x.cost == pytest.approx(0.25 * (1 - math.exp(-2 * T)), abs=1e-9)
    assert evaluate_cost(sys_, x) == x.cost


def test_decay_adjoint_matches_closed_form():
    # rhodot = rho - x along x(t) = e^{-t}, rho(T) = 0 has the solution
    # rho(t) = (e^{-t} - e^{t-2T}) / 2
    sys_ = decay_system()
    T = 2.0
    sched = constant_schedule(1, T, 1)
    x = integrate_state(sys_, [1.0], sched)
    rho = integrate_adjoint(sys_, sched, x)
    ts = np.linspace(0.0, T, 41)
    expect = 0.5 * (np.exp(-ts) - np.exp(ts - 2 * T))
    np.testing.assert_allclose(rho(ts)[:, 0], expect, atol=1e-8)
    assert abs(rho(T)[0]) <= 1e-12
    # the system is not vectorized, so its knot derivatives are looped
    # point by point; rhodot = -(e^{-t} + e^{t-2T}) / 2
    assert not sys_.vectorized
    kts, _, fs = rho.knots[0]
    np.testing.assert_allclose(
        fs[:, 0], -0.5 * (np.exp(-kts) + np.exp(kts - 2 * T)), atol=1e-8)


def test_evaluate_cost_needs_the_accumulator():
    sys_ = decay_system()
    sched = constant_schedule(1, 1.0, 1)
    x = integrate_state(sys_, [1.0], sched)
    rho = integrate_adjoint(sys_, sched, x)   # built without an accumulator
    with pytest.raises(AttributeError, match="accumulator"):
        evaluate_cost(sys_, rho)


def power_problem():
    net = load_network(THREE_MACHINE)
    x0 = initial_state(net, magnitude=0.3, seed=0)
    return power_system(net), x0, ModeSchedule((1, 2, 1), (0.3, 0.65), 1.0, 2)


def vehicle_problem():
    sched = ModeSchedule((1, 4, 2), (1.1, 2.3), 3.0, 4)
    return vehicle_system(), vehicle_initial_state(), sched


@pytest.mark.parametrize("problem", [vehicle_problem, power_problem])
def test_adjoint_knot_derivatives_are_pointwise(problem):
    # the batched knot derivatives equal -(J(x)^T rho) - grad l(x) taken
    # one knot at a time, with the states read from x's own segments
    sys_, x0, sched = problem()
    x = integrate_state(sys_, x0, sched)
    rho = integrate_adjoint(sys_, sched, x)
    for i, (ts, rs, fs) in enumerate(rho.knots):
        m = sched.sequence[i]
        expect = np.array([
            -(sys_.mode_jacobian(m, xk).T @ rk)
            - sys_.running_cost_gradient(xk)
            for xk, rk in zip(x.eval_in_segment(i, ts), rs)])
        np.testing.assert_allclose(
            fs, expect, rtol=1e-13, atol=1e-13 * np.abs(expect).max())


def test_piecewise_exponential_switching():
    sys_ = two_rate_system()
    sched = ModeSchedule((1, 2, 1), (0.5, 1.25), 2.0, 2)
    x = integrate_state(sys_, [1.0], sched)

    def exact(t):
        if t <= 0.5:
            return math.exp(-t)
        if t <= 1.25:
            return math.exp(-0.5) * math.exp(-3 * (t - 0.5))
        return math.exp(-0.5 - 2.25) * math.exp(-(t - 1.25))

    for t in np.linspace(0.0, 2.0, 33):
        assert x(t)[0] == pytest.approx(exact(t), abs=3e-8)
    # cost is the integral of x itself, segment by segment
    expect = ((1 - math.exp(-0.5))
              + math.exp(-0.5) * (1 - math.exp(-2.25)) / 3
              + math.exp(-2.75) * (1 - math.exp(-0.75)))
    assert x.cost == pytest.approx(expect, abs=3e-8)


def test_derivative_jumps_at_switch():
    sys_ = two_rate_system()
    sched = ModeSchedule((1, 2), (1.0,), 2.0, 2)
    x = integrate_state(sys_, [1.0], sched)
    v = float(x(1.0)[0])
    left = float(x.derivative(1.0, side="left")[0])
    right = float(x.derivative(1.0, side="right")[0])
    assert left == pytest.approx(-v, rel=1e-7)
    assert right == pytest.approx(-3 * v, rel=1e-7)
    # the state itself is continuous across the switch
    assert x(1.0, side="left")[0] == pytest.approx(v, abs=1e-12)


def test_vehicle_single_mode_closed_form(vehicle, vehicle_x0):
    # mode 3 turns at pi/3 while driving at speed 2 from the origin:
    # psi = (pi/3) t, X = (6/pi) sin psi, Y = (6/pi)(1 - cos psi)
    T = 1.5
    x = integrate_state(vehicle, vehicle_x0, constant_schedule(3, T, 4))
    ts = np.linspace(0.0, T, 25)
    w = math.pi / 3
    np.testing.assert_allclose(x(ts)[:, 0], (6 / math.pi) * np.sin(w * ts),
                               atol=1e-8)
    np.testing.assert_allclose(x(ts)[:, 1],
                               (6 / math.pi) * (1 - np.cos(w * ts)),
                               atol=1e-8)
    np.testing.assert_allclose(x(ts)[:, 2], w * ts, atol=1e-10)
    np.testing.assert_allclose(x(ts)[:, 3], ts, atol=1e-12)


def test_vehicle_cost_matches_quadrature(vehicle, vehicle_x0):
    # independent check of the cost accumulator: Simpson on dense samples
    from scipy.integrate import simpson

    T = 2.0
    sched = ModeSchedule((1, 3, 2), (0.7, 1.4), T, 4)
    x = integrate_state(vehicle, vehicle_x0, sched)
    ts = np.linspace(0.0, T, 4001)
    ref = simpson(vehicle.cost_at(x(ts)), x=ts)
    assert x.cost == pytest.approx(ref, rel=1e-7)


def test_adjoint_terminal_condition_and_jump(vehicle, vehicle_x0):
    sched = ModeSchedule((2, 4), (1.0,), 2.0, 4)
    x = integrate_state(vehicle, vehicle_x0, sched)
    rho = integrate_adjoint(vehicle, sched, x)
    np.testing.assert_allclose(rho(2.0), np.zeros(4), atol=1e-12)
    # the costate is continuous at the switch even though its slope jumps
    np.testing.assert_allclose(rho(1.0, side="left"), rho(1.0, side="right"),
                               atol=1e-10)


def test_adjoint_fd_oracle(vehicle, vehicle_x0):
    # rho(0) is the gradient of J with respect to the initial state
    sched = ModeSchedule((1, 4, 2), (1.1, 2.3), 3.0, 4)
    x = integrate_state(vehicle, vehicle_x0, sched)
    rho = integrate_adjoint(vehicle, sched, x)
    g = rho(0.0)
    eps = 1e-6
    for k in range(4):
        dx = np.zeros(4)
        dx[k] = eps
        jp = integrate_state(vehicle, vehicle_x0 + dx, sched).cost
        jm = integrate_state(vehicle, vehicle_x0 - dx, sched).cost
        fd = (jp - jm) / (2 * eps)
        assert g[k] == pytest.approx(fd, rel=2e-5, abs=1e-8)


def test_tolerance_options_change_accuracy():
    sys_ = decay_system()
    T = 3.0
    loose = integrate_state(sys_, [1.0], constant_schedule(1, T, 1),
                            rtol=1e-4, atol=1e-6)
    tight = integrate_state(sys_, [1.0], constant_schedule(1, T, 1),
                            rtol=1e-12, atol=1e-13)
    err_loose = abs(loose.cost - 0.25 * (1 - math.exp(-2 * T)))
    err_tight = abs(tight.cost - 0.25 * (1 - math.exp(-2 * T)))
    assert err_tight < err_loose
    assert err_tight < 1e-12


def test_knot_spacing_is_respected():
    sys_ = decay_system()
    x = integrate_state(sys_, [1.0], constant_schedule(1, 1.0, 1),
                        knot_spacing=0.01)
    ts = x.knots[0][0]
    assert len(ts) >= 101
    assert np.max(np.diff(ts)) <= 0.01 + 1e-12


def test_segment_count_matches_schedule(vehicle, vehicle_x0):
    sched = ModeSchedule((1, 2, 3, 4), (0.5, 1.0, 1.5), 2.0, 4)
    x = integrate_state(vehicle, vehicle_x0, sched)
    assert x.n_segments == 4
    np.testing.assert_allclose(x.boundaries, sched.boundaries)


# -- reusing an incumbent's prefix -------------------------------------------------

def assert_same_curve(a, b):
    """Knots, cost and the cost accumulator on a grid, bit for bit."""
    assert a.n_segments == b.n_segments
    for ka, kb in zip(a.knots + a.cost_curve.knots,
                      b.knots + b.cost_curve.knots):
        for va, vb in zip(ka, kb):
            assert np.array_equal(va, vb)
    assert a.cost == b.cost
    ts = np.linspace(a.t0, a.t1, 97)
    assert [a.cost_at(t) for t in ts] == [b.cost_at(t) for t in ts]


def shared_segments(a, b):
    """How many leading segments of ``a`` hold ``b``'s very knot arrays."""
    k = 0
    while k < min(a.n_segments, b.n_segments) \
            and a.knots[k][1] is b.knots[k][1]:
        k += 1
    return k


@pytest.mark.parametrize("seed", range(4))
def test_reused_prefix_equals_a_fresh_solve(vehicle, vehicle_x0, seed):
    rng = np.random.default_rng(seed)
    u = random_schedule(rng, 4.0, 4, 3)
    x_u = integrate_state(vehicle, vehicle_x0, u)
    # a trial that keeps u's first j segments and inserts a mode in the next
    j = int(rng.integers(1, u.n_segments))
    lo, hi = u.segment_bounds(j)
    t0 = lo + rng.uniform(0.2, 0.5) * (hi - lo)
    t1 = t0 + rng.uniform(0.1, 0.4) * (hi - lo)
    trial = u.insert(u.sequence[j] % 4 + 1, t0, t1)
    reused = integrate_state(vehicle, vehicle_x0, trial, reuse=x_u)
    assert_same_curve(reused, integrate_state(vehicle, vehicle_x0, trial))
    assert shared_segments(reused, x_u) == j
    # an unchanged schedule is copied whole
    again = integrate_state(vehicle, vehicle_x0, u, reuse=x_u)
    assert_same_curve(again, x_u)
    assert shared_segments(again, x_u) == u.n_segments


def test_reused_prefix_on_the_power_network():
    net = load_network(THREE_MACHINE)
    sys_ = power_system(net)
    x0 = initial_state(net, magnitude=0.3, seed=0)
    u = ModeSchedule((1, 2, 1), (0.3, 0.6), 1.0, 2)
    trial = u.insert(2, 0.7, 0.8)
    x_u = integrate_state(sys_, x0, u)
    reused = integrate_state(sys_, x0, trial, reuse=x_u)
    assert_same_curve(reused, integrate_state(sys_, x0, trial))
    assert shared_segments(reused, x_u) == 2


def test_nothing_reused_from_other_inputs(vehicle, vehicle_x0):
    u = ModeSchedule((1, 3, 2), (0.8, 1.9), 3.0, 4)
    trial = u.insert(4, 2.2, 2.5)
    x_u = integrate_state(vehicle, vehicle_x0, u)
    other_x0 = vehicle_x0 + np.array([1e-3, 0.0, 0.0, 0.0])
    for x0, kw in ((other_x0, {}), (vehicle_x0, {"rtol": 1e-10}),
                   (vehicle_x0, {"knot_spacing": 0.01})):
        reused = integrate_state(vehicle, x0, trial, reuse=x_u, **kw)
        assert shared_segments(reused, x_u) == 0
        assert_same_curve(reused, integrate_state(vehicle, x0, trial, **kw))
    longer = ModeSchedule((1, 3, 2), (0.8, 1.9), 3.5, 4)
    reused = integrate_state(vehicle, vehicle_x0, longer, reuse=x_u)
    assert shared_segments(reused, x_u) == 0
