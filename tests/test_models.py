"""Built-in models against hand calculations and finite differences."""
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from modesched import constant_schedule, integrate_state
from modesched.models import (
    MODES,
    PowerNetwork,
    desired_trajectory,
    electrical_power,
    initial_state,
    kron_reduction,
    load_network,
    lossless_energy,
    power_system,
    solve_equilibrium,
    vehicle_initial_state,
    vehicle_mode_field,
    vehicle_system,
)
from conftest import THREE_MACHINE, ring_network


# -- vehicle -----------------------------------------------------------------

def test_mode_table():
    assert MODES == ((4.5, math.pi / 3), (4.5, -math.pi / 3),
                     (2.0, math.pi / 3), (2.0, -math.pi / 3))


def test_mode_field_hand_values():
    np.testing.assert_allclose(vehicle_mode_field(1, [0.0, 0.0, 0.0]),
                               [4.5, 0.0, math.pi / 3])
    np.testing.assert_allclose(
        vehicle_mode_field(2, [3.0, -1.0, math.pi / 2]),
        [0.0, 4.5, -math.pi / 3], atol=1e-15)
    # batched poses broadcast
    batch = np.zeros((5, 3))
    batch[:, 2] = np.linspace(0, 1, 5)
    out = vehicle_mode_field(3, batch)
    assert out.shape == (5, 3)
    np.testing.assert_allclose(out[:, 0], 2.0 * np.cos(batch[:, 2]))


def test_reference_circle():
    np.testing.assert_allclose(desired_trajectory(0.0),
                               [2.5, -1.5, math.pi / 2])
    np.testing.assert_allclose(desired_trajectory(math.pi / 2),
                               [6.5, 2.5, 0.0], atol=1e-15)
    ts = np.linspace(0.0, 7.0, 29)
    ref = desired_trajectory(ts)
    radii = np.hypot(ref[:, 0] - 6.5, ref[:, 1] + 1.5)
    np.testing.assert_allclose(radii, 4.0)
    # heading stays aligned with the reference velocity
    vel = np.stack([4.0 * np.sin(ts), 4.0 * np.cos(ts)], axis=-1)
    ang = np.arctan2(vel[:, 1], vel[:, 0])
    err = (ang - ref[:, 2] + math.pi) % (2 * math.pi) - math.pi
    np.testing.assert_allclose(err, 0.0, atol=1e-12)


def test_vehicle_system_cost_and_clock():
    sys_ = vehicle_system()
    assert (sys_.num_modes, sys_.dim) == (4, 4)
    z = np.concatenate([desired_trajectory(0.3), [0.3]])
    assert sys_.running_cost(z) == pytest.approx(0.0, abs=1e-15)
    # starting pose: e = (2.5, -1.5, pi/2) against the reference at s=0
    e2 = 2.5**2 + 1.5**2 + (math.pi / 2) ** 2
    assert sys_.running_cost(vehicle_initial_state()) == pytest.approx(
        0.5 * e2, rel=1e-12)
    f = sys_.mode_field(1, z)
    assert f[3] == 1.0
    np.testing.assert_allclose(f[:3], vehicle_mode_field(1, z[:3]))


def test_vehicle_jacobian_matches_fd():
    sys_ = vehicle_system()
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(3):
        z = rng.uniform(-2.0, 2.0, 4)
        for i in range(1, 5):
            J = sys_.mode_jacobian(i, z)
            for c in range(4):
                dz = np.zeros(4)
                dz[c] = h
                fd = (sys_.mode_field(i, z + dz)
                      - sys_.mode_field(i, z - dz)) / (2 * h)
                np.testing.assert_allclose(J[:, c], fd, atol=1e-8)


def test_vehicle_cost_gradient_matches_fd():
    sys_ = vehicle_system()
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(3):
        z = rng.uniform(-2.0, 2.0, 4)
        g = sys_.running_cost_gradient(z)
        for c in range(4):
            dz = np.zeros(4)
            dz[c] = h
            fd = (sys_.running_cost(z + dz)
                  - sys_.running_cost(z - dz)) / (2 * h)
            assert g[c] == pytest.approx(fd, abs=1e-7)


def test_vehicle_initial_state_appends_clock():
    np.testing.assert_allclose(vehicle_initial_state(), [0, 0, 0, 0])
    np.testing.assert_allclose(vehicle_initial_state([1.0, 2.0, 0.5]),
                               [1.0, 2.0, 0.5, 0.0])
    with pytest.raises(ValueError):
        vehicle_initial_state([1.0, 2.0])


@pytest.mark.parametrize("x0", [
    ["1", "2", "3"], [True, False, True], np.array([True, False, True]),
    [0, 0, "nan"], [0, 0, math.inf], [0, 0, math.nan], [[1], [2], [3]],
    "abc", 3.0,
    # finite integers that no float holds
    [10**400, 0, 0], [2**1024 - 1, 0, 0],
])
def test_vehicle_initial_state_rejects_a_pose_it_would_coerce(x0):
    with pytest.raises(ValueError, match="x0"):
        vehicle_initial_state(x0)


# -- power network -----------------------------------------------------------

def two_machine(b=1.0, Pm=(0.0, 0.0)):
    Y = np.array([[-1j * b, 1j * b], [1j * b, -1j * b]])
    return PowerNetwork(Y=[Y], E=[1.0, 0.8], H=[3.0, 4.0], Pm=Pm)


def test_electrical_power_one_line():
    net = two_machine(b=1.3)
    delta = np.array([0.7, 0.2])
    P = electrical_power(net.Y[0], net.E, delta)
    # classic lossless exchange E1 E2 b sin(d1 - d2)
    expect = 1.0 * 0.8 * 1.3 * math.sin(0.5)
    assert P[0] == pytest.approx(expect, rel=1e-12)
    assert P[1] == pytest.approx(-expect, rel=1e-12)
    # no phase difference, no flow
    np.testing.assert_allclose(
        electrical_power(net.Y[0], net.E, [0.4, 0.4]), 0.0, atol=1e-14)
    # batch evaluation
    batch = np.stack([delta, [0.4, 0.4]])
    P2 = electrical_power(net.Y[0], net.E, batch)
    assert P2.shape == (2, 2)
    np.testing.assert_allclose(P2[0], P)


def test_power_jacobian_matches_fd():
    net = load_network(THREE_MACHINE)
    sys_ = power_system(net)
    rng = np.random.default_rng(7)
    h = 1e-6
    z = np.concatenate([rng.uniform(-0.5, 0.5, 3),
                        net.omega_s + rng.uniform(-1.0, 1.0, 3)])
    for i in (1, 2):
        J = sys_.mode_jacobian(i, z)
        for c in range(6):
            dz = np.zeros(6)
            dz[c] = h
            fd = (sys_.mode_field(i, z + dz)
                  - sys_.mode_field(i, z - dz)) / (2 * h)
            np.testing.assert_allclose(J[:, c], fd, atol=1e-5)
    g = sys_.running_cost_gradient(z)
    for c in range(6):
        dz = np.zeros(6)
        dz[c] = h
        fd = (sys_.running_cost(z + dz) - sys_.running_cost(z - dz)) / (2 * h)
        assert g[c] == pytest.approx(fd, abs=1e-6)


def test_kron_reduction_series_line():
    # eliminating the middle of a chain leaves the series combination
    y01, y12 = -2.0j, -1.0j
    Y = np.array([[y01, -y01, 0.0],
                  [-y01, y01 + y12, -y12],
                  [0.0, -y12, y12]])
    red = kron_reduction(Y, [0, 2])
    ys = y01 * y12 / (y01 + y12)
    np.testing.assert_allclose(red, [[ys, -ys], [-ys, ys]], atol=1e-14)
    # keeping everything is the identity
    np.testing.assert_allclose(kron_reduction(Y, [0, 1, 2]), Y)


def test_load_network_direct_layout():
    net = load_network(THREE_MACHINE)
    assert (net.n_gen, net.num_configs) == (3, 2)
    assert net.f_s == 60.0
    assert net.omega_s == pytest.approx(2 * math.pi * 60.0)
    assert np.abs(net.Y[0].real).max() == 0.0       # lossless
    np.testing.assert_allclose(net.Y[1], net.Y[0] / 2.0)
    np.testing.assert_allclose(net.Y[0].sum(axis=1), 0.0, atol=1e-14)
    # dict and JSON-string sources agree with the file
    with open(THREE_MACHINE) as fh:
        text = fh.read()
    for src in (json.loads(text), text):
        other = load_network(src)
        np.testing.assert_allclose(other.Y[0], net.Y[0])
        np.testing.assert_allclose(other.H, net.H)


@pytest.mark.parametrize("field, value", [
    ("H", [0.0, 4.0]), ("H", [-3.0, 4.0]), ("H", [math.nan, 4.0]),
    ("H", [math.inf, 4.0]), ("E", [math.nan, 0.8]), ("Pm", [0.0, math.inf]),
    ("Y", [[[math.nan, 1j], [1j, -1j]]]), ("f_s", 0.0), ("f_s", -60.0),
    ("f_s", math.nan), ("f_s", math.inf), ("f_s", "60"),
])
def test_power_network_rejects_an_impossible_machine(field, value):
    # H = 0 used to divide by zero in the swing field and fail the
    # integration with "Required step size"; now the network is refused
    good = dict(Y=two_machine().Y, E=[1.0, 0.8], H=[3.0, 4.0],
                Pm=[0.0, 0.0], f_s=60.0)
    PowerNetwork(**good)
    with pytest.raises(ValueError, match=field):
        PowerNetwork(**{**good, field: value})


def test_load_network_bus_layout():
    data = {
        "buses": [1, 2],
        "lines": [{"from": 1, "to": 2, "X": 0.5, "switched": True}],
        "generators": [
            {"bus": 1, "H": 3.0, "Pm": 0.0, "E": 1.0, "xd_transient": 0.2},
            {"bus": 2, "H": 3.0, "Pm": 0.0, "E": 1.0, "xd_transient": 0.2},
        ],
    }
    net = load_network(data)
    assert net.Y[0].shape == (2, 2)
    assert np.abs(net.Y[0].real).max() < 1e-12      # R = 0 everywhere
    # with the line's reactance doubled the coupling weakens
    assert abs(net.Y[1][0, 1]) < abs(net.Y[0][0, 1])
    # hand value: xd' + X + xd' in series between the internal nodes
    b = 1.0 / (0.2 + 0.5 + 0.2)
    assert net.Y[0][0, 1] == pytest.approx(1j * b, abs=1e-12)

    with pytest.raises(ValueError, match="switched"):
        load_network({**data,
                      "lines": [{"from": 1, "to": 2, "X": 0.5}]})
    with pytest.raises(ValueError, match="duplicate"):
        load_network({**data, "buses": [1, 1]})
    with pytest.raises(ValueError):
        load_network({"generators": []})


def test_solve_equilibrium():
    net = load_network(THREE_MACHINE)
    np.testing.assert_allclose(solve_equilibrium(net), 0.0, atol=1e-12)
    # loaded line: sin(d1 - d2) = Pm / (E1 E2 b)
    loaded = PowerNetwork(Y=two_machine().Y, E=[1.0, 1.0], H=[3.0, 3.0],
                          Pm=[0.5, -0.5])
    d = solve_equilibrium(loaded)
    assert d[0] == 0.0
    assert d[1] == pytest.approx(-math.pi / 6, rel=1e-9)
    np.testing.assert_allclose(
        electrical_power(loaded.Y[0], loaded.E, d), loaded.Pm, atol=1e-10)
    # an unbalanced or overloaded injection has no equilibrium
    with pytest.raises(ValueError, match="equilibrium"):
        solve_equilibrium(PowerNetwork(Y=two_machine().Y, E=[1.0, 1.0],
                                       H=[3.0, 3.0], Pm=[1.5, -0.5]))
    with pytest.raises(ValueError, match="equilibrium"):
        solve_equilibrium(PowerNetwork(Y=two_machine().Y, E=[1.0, 1.0],
                                       H=[3.0, 3.0], Pm=[2.0, -2.0]))


def test_initial_state_disturbance():
    net = load_network(THREE_MACHINE)
    with pytest.raises(ValueError, match="seed"):
        initial_state(net, magnitude=0.3)
    calm = initial_state(net, magnitude=0.0)
    np.testing.assert_allclose(calm[:3], 0.0, atol=1e-12)
    np.testing.assert_allclose(calm[3:], net.omega_s)
    a = initial_state(net, magnitude=0.3, seed=11)
    b = initial_state(net, magnitude=0.3, seed=11)
    c = initial_state(net, magnitude=0.3, seed=12)
    np.testing.assert_allclose(a, b)
    assert np.abs(a - c).max() > 1e-3
    assert np.abs(a[:3]).max() <= 0.3
    np.testing.assert_allclose(a[3:], net.omega_s)   # speeds untouched


@pytest.mark.parametrize("kw, named", [
    ({"magnitude": True, "seed": 0}, "magnitude"),
    ({"magnitude": "0.3", "seed": 0}, "magnitude"),
    ({"magnitude": math.nan, "seed": 0}, "magnitude"),
    ({"magnitude": math.inf, "seed": 0}, "magnitude"),
    ({"magnitude": 0.3, "seed": True}, "seed"),
    ({"magnitude": 0.3, "seed": "0"}, "seed"),
    ({"magnitude": 0.3, "seed": 1.5}, "seed"),
    # finite, but the draws' range 2 |magnitude| is no float
    ({"magnitude": 1e308, "seed": 0}, "magnitude"),
    ({"magnitude": -1e308, "seed": 0}, "magnitude"),
    ({"magnitude": 10**400, "seed": 0}, "magnitude"),
])
def test_initial_state_rejects_a_disturbance_it_would_coerce(kw, named):
    net = load_network(THREE_MACHINE)
    with pytest.raises(ValueError, match=named):
        initial_state(net, **kw)
    # integral numbers of numpy's own types are numbers too
    assert np.array_equal(initial_state(net, np.float64(0.3), np.int64(11)),
                          initial_state(net, 0.3, 11))


def test_lossless_energy_conserved_along_swing():
    net = load_network(THREE_MACHINE)
    x0 = initial_state(net, magnitude=0.3, seed=0)
    sys_ = power_system(net)
    x = integrate_state(sys_, x0, constant_schedule(1, 5.0, 2),
                        rtol=1e-10, atol=1e-12)
    ts = np.linspace(0.0, 5.0, 201)
    E = np.array([lossless_energy(net, 1, x(t)) for t in ts])
    assert np.abs(E - E[0]).max() <= 1e-9 * (1.0 + abs(E[0]))
    # the two configurations carry different energy functions
    assert lossless_energy(net, 2, x0) != pytest.approx(E[0])
    lossy = PowerNetwork(Y=[np.array([[0.1 - 1j, 1j], [1j, 0.1 - 1j]])],
                         E=[1.0, 1.0], H=[3.0, 3.0], Pm=[0.0, 0.0])
    with pytest.raises(ValueError, match="lossless"):
        lossless_energy(lossy, 1, np.zeros(4))


def test_power_running_cost_at_equilibrium():
    net = load_network(THREE_MACHINE)
    sys_ = power_system(net)
    calm = initial_state(net, magnitude=0.0)
    assert sys_.running_cost(calm) == pytest.approx(0.0, abs=1e-15)
    bumped = initial_state(net, magnitude=0.3, seed=0)
    assert sys_.running_cost(bumped) > 1e-3
    # batch evaluation matches scalar
    both = np.stack([calm, bumped])
    np.testing.assert_allclose(sys_.running_cost(both),
                               [sys_.running_cost(calm),
                                sys_.running_cost(bumped)])


# -- batched model callables ---------------------------------------------------

def _vehicle_case():
    return vehicle_system(), np.zeros(4), np.full(4, 3.0)


def _power_case(net):
    n = net.n_gen
    center = np.concatenate([np.zeros(n), np.full(n, net.omega_s)])
    scale = np.concatenate([np.full(n, 1.5), np.full(n, 3.0)])
    return power_system(net), center, scale


def lossy_three_machine():
    """The three-machine network with conductances: ``K`` loses symmetry."""
    net = load_network(THREE_MACHINE)
    return PowerNetwork(Y=[Y * (1.0 - 0.3j) for Y in net.Y], E=net.E,
                        H=net.H, Pm=net.Pm)


MODEL_CASES = {
    "vehicle": _vehicle_case,
    "three-machine": lambda: _power_case(load_network(THREE_MACHINE)),
    "three-machine-lossy": lambda: _power_case(lossy_three_machine()),
    "ring12": lambda: _power_case(ring_network()),
}
_BUILT = {}


def model_case(name):
    if name not in _BUILT:
        _BUILT[name] = MODEL_CASES[name]()
    return _BUILT[name]


def states(draw, name):
    sys_, center, scale = model_case(name)
    k = draw(st.integers(1, 6))
    unit = draw(arrays(np.float64, (k, sys_.dim),
                       elements=st.floats(-1.0, 1.0)))
    mode = draw(st.integers(1, sys_.num_modes))
    return sys_, center + scale * unit, mode


@pytest.mark.parametrize("name", sorted(MODEL_CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batched_callables_equal_stacked_singles(name, data):
    sys_, xs, mode = states(data.draw, name)
    J = sys_.mode_jacobian(mode, xs)
    g = sys_.running_cost_gradient(xs)
    J1 = np.stack([sys_.mode_jacobian(mode, x) for x in xs])
    g1 = np.stack([sys_.running_cost_gradient(x) for x in xs])
    assert J.shape == (len(xs), sys_.dim, sys_.dim)
    assert g.shape == (len(xs), sys_.dim)
    np.testing.assert_allclose(J, J1, rtol=1e-14,
                               atol=1e-14 * np.abs(J1).max())
    np.testing.assert_allclose(g, g1, rtol=1e-14,
                               atol=1e-14 * np.abs(g1).max())


@pytest.mark.parametrize("name", sorted(MODEL_CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batched_jacobian_matches_central_difference(name, data):
    sys_, xs, mode = states(data.draw, name)
    J = sys_.mode_jacobian(mode, xs)
    h = 1e-6
    for c in range(sys_.dim):
        dx = np.zeros(sys_.dim)
        dx[c] = h
        fd = (sys_.mode_field(mode, xs + dx)
              - sys_.mode_field(mode, xs - dx)) / (2 * h)
        np.testing.assert_allclose(J[:, :, c], fd, rtol=1e-6,
                                   atol=1e-6 * (1.0 + np.abs(J).max()))


@pytest.mark.parametrize("name", sorted(MODEL_CASES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_single_state_keeps_unstacked_shapes(name, data):
    sys_, xs, mode = states(data.draw, name)
    n = sys_.dim
    assert sys_.mode_jacobian(mode, xs[0]).shape == (n, n)
    assert sys_.running_cost_gradient(xs[0]).shape == (n,)
    np.testing.assert_array_equal(sys_.mode_jacobian(mode, xs[:1])[0],
                                  sys_.mode_jacobian(mode, xs[0]))


# -- bit-exact model callables ---------------------------------------------------

def reference_power(net):
    """The power callables as written before their constants were hoisted."""
    n = net.n_gen

    def field(i, x):
        delta, rate = x[..., :n], x[..., n:]
        V = net.E * np.exp(1j * delta)
        Pe = np.real(V * np.conj(V @ np.asarray(net.Y[i - 1], complex).T))
        acc = (net.Pm - Pe) * (net.omega_s / (2.0 * net.H))
        return np.concatenate([rate, acc], axis=-1)

    def jacobian(i, x):
        V = net.E * np.exp(1j * x[..., :n])
        S = V[..., :, None] * np.conj(V)[..., None, :] * np.conj(net.Y[i - 1])
        K = np.imag(S)
        diag = (..., np.arange(n), np.arange(n))
        K[diag] = 0.0
        K[diag] -= K.sum(axis=-1)
        J = np.zeros(x.shape[:-1] + (2 * n, 2 * n))
        J[..., :n, n:] = np.eye(n)
        J[..., n:, :n] = -(net.omega_s / (2.0 * net.H))[:, None] * K
        return J

    def cost(x):
        delta, rate = x[..., :n], x[..., n:]
        e = delta - delta.mean(axis=-1, keepdims=True)
        w = rate - net.omega_s
        return 0.5 * np.sum(e * e, axis=-1) + np.sum(w * w, axis=-1) / 40.0

    def gradient(x):
        delta, rate = x[..., :n], x[..., n:]
        g = np.empty(x.shape)
        g[..., :n] = delta - delta.mean(axis=-1, keepdims=True)
        g[..., n:] = (rate - net.omega_s) / 20.0
        return g

    return field, jacobian, cost, gradient


def reference_vehicle():
    """The vehicle callables as written with ``np.stack``."""
    def desired(t):
        return np.stack([6.5 - 4.0 * np.cos(t), -1.5 + 4.0 * np.sin(t),
                         math.pi / 2 - t], axis=-1)

    def field(i, z):
        v, w = MODES[i - 1]
        psi = z[..., 2]
        out = np.empty(z.shape)
        out[..., :3] = np.stack([v * np.cos(psi), v * np.sin(psi),
                                 np.broadcast_to(w, psi.shape)], axis=-1)
        out[..., 3] = 1.0
        return out

    def jacobian(i, z):
        v, _ = MODES[i - 1]
        psi = z[..., 2]
        J = np.zeros(psi.shape + (4, 4))
        J[..., 0, 2] = -v * np.sin(psi)
        J[..., 1, 2] = v * np.cos(psi)
        return J

    def cost(z):
        e = z[..., :3] - desired(z[..., 3])
        return 0.5 * np.sum(e * e, axis=-1)

    def gradient(z):
        s = z[..., 3]
        e = z[..., :3] - desired(s)
        g = np.empty(z.shape)
        g[..., :3] = e
        rate = np.stack([4.0 * np.sin(s), 4.0 * np.cos(s),
                         np.broadcast_to(-1.0, s.shape)], axis=-1)
        g[..., 3] = -(e[..., None, :] @ rate[..., :, None])[..., 0, 0]
        return g

    return field, jacobian, cost, gradient


REFERENCES = {
    "vehicle": reference_vehicle,
    "three-machine": lambda: reference_power(load_network(THREE_MACHINE)),
    "three-machine-lossy": lambda: reference_power(lossy_three_machine()),
    "ring12": lambda: reference_power(ring_network()),
}


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(MODEL_CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_callables_equal_the_reference_expressions_bitwise(name, data):
    # the solvers' right-hand sides call these once per stage; hoisting
    # their constants must not move a single bit, on one state or a stack
    sys_, xs, mode = states(data.draw, name)
    field, jacobian, cost, gradient = REFERENCES[name]()
    for x in (xs, xs[0]):
        assert_same_bits(sys_.mode_field(mode, x), field(mode, x))
        assert_same_bits(sys_.mode_jacobian(mode, x), jacobian(mode, x))
        assert_same_bits(sys_.running_cost(x), cost(x))
        assert_same_bits(sys_.running_cost_gradient(x), gradient(x))


@pytest.mark.parametrize("name", sorted(MODEL_CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_running_cost_rows_hold_their_single_state_bits(name, data):
    # the forward solver takes the cost of a step's 12 stage inputs (3 for
    # the dense stages) in one call on a strided view, columns of a wider
    # buffer; each row must give the bits of a call on that state alone,
    # so that the solve stays the one of the per-stage cost
    sys_, center, scale = model_case(name)
    k = data.draw(st.sampled_from([1, 2, 3, 12, 13]))
    unit = data.draw(arrays(np.float64, (k, sys_.dim),
                            elements=st.floats(-1.0, 1.0)))
    xs = center + scale * unit
    wide = np.empty((k, sys_.dim + 1))
    wide[:, :-1] = xs
    singles = [sys_.running_cost(x) for x in xs]
    for stack in (xs, wide[:, :-1]):
        got = sys_.running_cost(stack)
        assert got.shape == (k,)
        assert [v.hex() for v in got.tolist()] == \
            [float(v).hex() for v in singles]


# -- stacked callables ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def stacked_model(kind):
    """A built-in system and a state to perturb around."""
    if kind == "vehicle":
        return vehicle_system(), vehicle_initial_state()
    net = load_network(str(THREE_MACHINE)) if kind == "three-machine" \
        else ring_network()
    return power_system(net), initial_state(net, 0.3, seed=1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 30),
       m=st.integers(2, 30))
@pytest.mark.parametrize("kind", ["vehicle", "three-machine", "ring12"])
def test_stacked_callables_are_row_stable(kind, seed, k, m):
    # in any stack of two or more states, each row gets the bits it gets
    # in any other such stack: the field reads stack points of several
    # segments and keeps each point's bits only if this holds
    sys_, x0 = stacked_model(kind)
    rng = np.random.default_rng(seed)
    X = x0 + rng.normal(0.0, 0.5, (k, sys_.dim))
    # the same states, each in another stack: shuffled among m others
    Y = np.vstack([X, x0 + rng.normal(0.0, 0.5, (m, sys_.dim))])
    perm = rng.permutation(len(Y))
    Y = Y[perm]
    at = np.argsort(perm)[:k]
    calls = [sys_.running_cost, sys_.running_cost_gradient]
    for a in range(1, sys_.num_modes + 1):
        calls += [functools.partial(sys_.mode_field, a),
                  functools.partial(sys_.mode_jacobian, a)]
    for call in calls:
        assert call(Y)[at].tobytes() == call(X).tobytes()
