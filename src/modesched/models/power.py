"""Multi-machine power network with a switched transmission topology.

Generators are classical swing-equation machines behind transient
reactances; the network between their internal nodes is reduced to a
complex admittance matrix per topology configuration.  Switching between
configurations (for instance, doubling the reactance of a set of lines)
changes the electrical coupling and is the control authority: scheduling
the configuration over time can pump oscillation energy out of the rotors
after a disturbance.

State is ``x = [delta; deltadot]`` with rotor phases ``delta`` (rad) and
speeds near the synchronous ``2*pi*f_s`` (rad/s).  The dynamics depend on
phase differences only, so the synchronously rotating equilibrium ray is
invariant.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..integrate import SwitchedSystem
from ..signals import _is_finite, _is_number

F_S_DEFAULT = 60.0


@dataclass
class PowerNetwork:
    """Reduced network: one admittance matrix per switch configuration.

    Parameters
    ----------
    Y : list of ndarray, complex (n, n)
        Internal-node admittance matrix of each configuration.
    E : ndarray (n,)
        Internal EMF magnitudes (per unit).
    H : ndarray (n,)
        Inertia constants (s).
    Pm : ndarray (n,)
        Mechanical input powers (per unit).
    f_s : float
        Synchronous frequency (Hz).

    ``ValueError`` unless ``Y``, ``E`` and ``Pm`` are finite and ``H`` and
    ``f_s`` finite and positive.
    """

    Y: list
    E: np.ndarray
    H: np.ndarray
    Pm: np.ndarray
    f_s: float = F_S_DEFAULT

    def __post_init__(self):
        self.E = np.asarray(self.E, float)
        self.H = np.asarray(self.H, float)
        self.Pm = np.asarray(self.Pm, float)
        self.Y = [np.asarray(Y, complex) for Y in self.Y]
        n = len(self.E)
        for Y in self.Y:
            if Y.shape != (n, n):
                raise ValueError(
                    f"admittance matrix shape {Y.shape} does not match "
                    f"{n} generators"
                )
        if not len(self.H) == len(self.Pm) == n:
            raise ValueError("E, H, Pm must have one entry per generator")
        # a machine without inertia or a network of non-numbers has no
        # swing dynamics: the integration would fail far from the cause
        if not all(np.isfinite(a).all() for a in (*self.Y, self.E, self.Pm)):
            raise ValueError("Y, E and Pm must be finite")
        if not np.all(np.isfinite(self.H) & (self.H > 0)):
            raise ValueError(f"H must be finite and positive, got {self.H}")
        if not (_is_finite(self.f_s) and self.f_s > 0):
            raise ValueError(
                f"f_s must be finite and positive, got {self.f_s!r}")

    @property
    def n_gen(self):
        return len(self.E)

    @property
    def num_configs(self):
        return len(self.Y)

    @property
    def omega_s(self):
        """Synchronous electrical speed 2*pi*f_s (rad/s)."""
        return 2.0 * math.pi * self.f_s


def electrical_power(Y, E, delta):
    """Injected electrical power at every internal node.

    ``P_i = sum_j |E_i||E_j||Y_ij| cos(delta_i - delta_j - psi_ij)``
    with ``psi`` the admittance angles; the ``j = i`` term reduces to
    ``|E_i|^2 G_ii``.  ``delta`` may be a batch of shape ``(..., n)``.
    """
    return _injected_power(np.asarray(E, float), np.asarray(delta, float),
                           np.asarray(Y, complex).T)


def _injected_power(E, delta, YT):
    """:func:`electrical_power` on float arrays ``E``, ``delta`` and
    ``YT = Y.T``."""
    V = E * np.exp(1j * delta)
    return (V * np.conj(V @ YT)).real


def _power_jacobian(Y, E, delta, conjY=None):
    """d(electrical_power)/d(delta) at a phase vector or a batch of them.

    ``delta`` of shape ``(n,)`` gives ``(n, n)``; a batch ``(..., n)``
    gives ``(..., n, n)``.  ``conjY`` is ``conj(Y)``, for callers that
    compute it once for many calls.
    """
    V = np.asarray(E, float) * np.exp(1j * np.asarray(delta, float))
    if conjY is None:
        conjY = np.conj(Y)
    K = (V[..., :, None] * np.conj(V)[..., None, :] * conjY).imag
    diagonal = np.einsum("...ii->...i", K)  # a writeable view
    diagonal[...] = 0.0
    diagonal -= np.add.reduce(K, axis=-1)
    return K


def swing_mode_field(net, i, x):
    """Swing dynamics under configuration ``i``: phases integrate speeds,
    accelerations are ``(omega_s / 2H) * (Pm - Pe(delta))``."""
    return _swing_field(np.asarray(x, float), net.n_gen, net.E, net.Pm,
                        net.Y[i - 1].T, net.omega_s / (2.0 * net.H))


def _swing_field(x, n, E, Pm, YT, accel):
    """:func:`swing_mode_field` on a float array ``x`` of ``n`` machines,
    with the network's ``E``, ``Pm``, ``YT`` and ``accel`` given."""
    out = np.empty(x.shape)
    out[..., :n] = x[..., n:]
    out[..., n:] = (Pm - _injected_power(E, x[..., :n], YT)) * accel
    return out


def power_system(net):
    """The network as a switched system with phase-coherence running cost.

    The running cost penalizes the spread of phases about their mean and,
    with weight 1/40, speed deviations from synchronous; a sum of squares,
    so its ``cost_floor`` is 0.  The forward solver calls the mode field
    once per Runge-Kutta stage on a single state, so everything that
    depends on the network alone is computed here, once.  The cost's
    row-wise reductions give each row of a stack the bits of that state
    alone, which keeps the solver's batched stage costs exact.
    """
    n = net.n_gen
    w_target = net.omega_s
    YT = [Y.T for Y in net.Y]
    conjY = [np.conj(Y) for Y in net.Y]
    accel = net.omega_s / (2.0 * net.H)
    neg_accel = -accel[:, None]
    J_rates = np.zeros((2 * n, 2 * n))  # the Jacobian's constant block
    J_rates[:n, n:] = np.eye(n)

    E, Pm = net.E, net.Pm

    def mode_field(i, x):
        # the solvers pass float arrays; once per Runge-Kutta stage, so
        # straight to the kernel
        return _swing_field(x, n, E, Pm, YT[i - 1], accel)

    def mode_jacobian(i, x):
        x = np.asarray(x, float)
        K = _power_jacobian(net.Y[i - 1], net.E, x[..., :n], conjY[i - 1])
        J = np.empty(x.shape[:-1] + (2 * n, 2 * n))
        J[...] = J_rates
        J[..., n:, :n] = neg_accel * K
        return J

    def spread(delta):
        return delta - np.add.reduce(delta, axis=-1, keepdims=True) / n

    def running_cost(x):
        x = np.asarray(x, float)
        e = spread(x[..., :n])
        w = x[..., n:] - w_target
        return 0.5 * np.add.reduce(e * e, axis=-1) \
            + np.add.reduce(w * w, axis=-1) / 40.0

    def running_cost_gradient(x):
        x = np.asarray(x, float)
        g = np.empty(x.shape)
        g[..., :n] = spread(x[..., :n])
        g[..., n:] = (x[..., n:] - w_target) / 20.0
        return g

    return SwitchedSystem(
        num_modes=net.num_configs, dim=2 * n,
        mode_field=mode_field, mode_jacobian=mode_jacobian,
        running_cost=running_cost,
        running_cost_gradient=running_cost_gradient,
        cost_floor=0.0,
    )


# -- network construction --------------------------------------------------

def kron_reduction(Y_full, keep):
    """Eliminate all nodes not in ``keep`` by a Schur complement."""
    Y_full = np.asarray(Y_full, complex)
    keep = np.asarray(keep, int)
    drop = np.setdiff1d(np.arange(Y_full.shape[0]), keep)
    if len(drop) == 0:
        return Y_full[np.ix_(keep, keep)]
    Ykk = Y_full[np.ix_(keep, keep)]
    Ykd = Y_full[np.ix_(keep, drop)]
    Ydk = Y_full[np.ix_(drop, keep)]
    Ydd = Y_full[np.ix_(drop, drop)]
    return Ykk - Ykd @ np.linalg.solve(Ydd, Ydk)


def _parse_complex_matrix(entry):
    """Matrix entries given as ``[re, im]`` pairs."""
    arr = np.asarray(entry, float)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(
            "admittance matrices must be square with [re, im] entries"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def _build_bus_network(data):
    buses = data["buses"]
    ids = [b["id"] if isinstance(b, dict) else b for b in buses]
    index = {bid: k for k, bid in enumerate(ids)}
    if len(index) != len(ids):
        raise ValueError("duplicate bus ids")
    n_b = len(ids)
    gens = data["generators"]
    n_g = len(gens)

    shunt = np.zeros(n_b, complex)
    for b in buses:
        if isinstance(b, dict):
            shunt[index[b["id"]]] = b.get("G", 0.0) + 1j * b.get("B", 0.0)

    def bus_matrix(x_scale_switched):
        Y = np.zeros((n_b, n_b), complex)
        Y[np.diag_indices(n_b)] += shunt
        for ln in data["lines"]:
            f, t = index[ln["from"]], index[ln["to"]]
            X = ln["X"] * (x_scale_switched if ln.get("switched") else 1.0)
            y = 1.0 / (ln.get("R", 0.0) + 1j * X)
            half_b = 1j * ln.get("B", 0.0) / 2.0
            Y[f, f] += y + half_b
            Y[t, t] += y + half_b
            Y[f, t] -= y
            Y[t, f] -= y
        return Y

    def reduced(x_scale):
        full = np.zeros((n_b + n_g, n_b + n_g), complex)
        full[:n_b, :n_b] = bus_matrix(x_scale)
        for g, gen in enumerate(gens):
            b = index[gen["bus"]]
            yg = 1.0 / (1j * gen["xd_transient"])
            k = n_b + g
            full[k, k] += yg
            full[b, b] += yg
            full[k, b] -= yg
            full[b, k] -= yg
        return kron_reduction(full, np.arange(n_b, n_b + n_g))

    if not any(ln.get("switched") for ln in data["lines"]):
        raise ValueError("bus/line network needs at least one switched line")
    Y_configs = [reduced(1.0), reduced(2.0)]
    return PowerNetwork(
        Y=Y_configs,
        E=np.array([g["E"] for g in gens], float),
        H=np.array([g["H"] for g in gens], float),
        Pm=np.array([g["Pm"] for g in gens], float),
        f_s=data.get("f_s", F_S_DEFAULT),
    )


def load_network(source):
    """Build a :class:`PowerNetwork` from a dict, JSON string, or file path.

    Two layouts are accepted.  The bus/line layout lists ``buses``,
    ``lines`` (``from, to, R, X, B, switched``) and ``generators``
    (``bus, H, Pm, E, xd_transient``); the admittance matrices of the
    nominal topology and of the topology with every switched line's
    reactance doubled are reduced onto the generator internal nodes.  The
    direct layout gives the reduced matrices itself as keys ``Y1``,
    ``Y2``, ... with ``[re, im]`` entries plus a ``generators`` list of
    ``H, Pm, E`` — no reduction is performed.
    """
    if isinstance(source, dict):
        data = source
    else:
        text = None
        s = str(source)
        if s.lstrip().startswith("{"):
            text = s
        else:
            with open(s) as fh:
                text = fh.read()
        data = json.loads(text)
    if "Y1" in data:
        configs = []
        k = 1
        while f"Y{k}" in data:
            configs.append(_parse_complex_matrix(data[f"Y{k}"]))
            k += 1
        gens = data["generators"]
        return PowerNetwork(
            Y=configs,
            E=np.array([g["E"] for g in gens], float),
            H=np.array([g["H"] for g in gens], float),
            Pm=np.array([g["Pm"] for g in gens], float),
            f_s=data.get("f_s", F_S_DEFAULT),
        )
    if "buses" in data:
        return _build_bus_network(data)
    raise ValueError("network JSON needs either Y1/Y2/... or buses/lines")


# -- equilibrium and initial conditions ------------------------------------

def solve_equilibrium(net, config=1, tol=1e-10, max_iter=100):
    """Phase vector with zero accelerations, reference phase pinned to 0.

    Damped Newton on ``Pm - Pe(delta)`` over the non-reference phases;
    raises when the residual cannot be brought below ``tol`` (for example
    when the mechanical powers are not balanced by the network).
    """
    Y = net.Y[config - 1]
    delta = np.zeros(net.n_gen)

    def residual(d):
        return net.Pm - electrical_power(Y, net.E, d)

    r = residual(delta)
    for _ in range(max_iter):
        if np.abs(r).max() < tol:
            return delta
        J = -_power_jacobian(Y, net.E, delta)[:, 1:]
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        lam = 1.0
        while lam > 1e-6:
            trial = delta.copy()
            trial[1:] += lam * step
            r_trial = residual(trial)
            if np.linalg.norm(r_trial) < np.linalg.norm(r):
                delta, r = trial, r_trial
                break
            lam /= 2.0
        else:
            break
    if np.abs(r).max() >= tol:
        raise ValueError(
            f"no equilibrium: residual {np.abs(r).max():.3g} after damped "
            f"Newton (is sum(Pm) balanced by the network losses?)"
        )
    return delta


def initial_state(net, magnitude=0.3, seed=None, config=1):
    """Synchronous equilibrium state with a seeded phase disturbance.

    Phases are offset by independent uniform draws on ``[-magnitude,
    magnitude]``; speeds start exactly synchronous.  ``magnitude`` is a
    real number whose range ``2 |magnitude|`` is a finite float, ``seed``
    an integer or ``None``, neither a bool.
    """
    if not (_is_finite(magnitude) and _is_finite(2.0 * float(magnitude))):
        raise ValueError(f"disturbance magnitude must be a real number of "
                         f"at most {np.finfo(float).max / 2:g} in size, "
                         f"got {magnitude!r}")
    if not (seed is None or _is_number(seed, numbers.Integral)):
        raise ValueError(f"disturbance seed must be an integer or None, "
                         f"got {seed!r}")
    if seed is None and magnitude != 0.0:
        raise ValueError("a disturbance needs an explicit seed")
    delta_ss = solve_equilibrium(net, config=config)
    if magnitude != 0.0:
        rng = np.random.default_rng(seed)
        delta_ss = delta_ss + rng.uniform(-magnitude, magnitude, net.n_gen)
    return np.concatenate([delta_ss, np.full(net.n_gen, net.omega_s)])


def lossless_energy(net, i, x):
    """Conserved energy of configuration ``i`` (lossless networks only)."""
    Y = net.Y[i - 1]
    if np.abs(Y.real).max() > 1e-12:
        raise ValueError("energy function requires a lossless network")
    n = net.n_gen
    x = np.asarray(x, float)
    delta, rate = x[:n], x[n:]
    B = Y.imag
    V = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            V -= net.E[a] * net.E[b] * B[a, b] * math.cos(delta[a] - delta[b])
    kinetic = float(np.sum(net.H / net.omega_s * rate**2))
    return kinetic - float(net.Pm @ delta) + V
