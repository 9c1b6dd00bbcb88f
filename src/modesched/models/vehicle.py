"""Kinematic vehicle with quantized speed/turn-rate commands.

Four modes, each a fixed (forward speed, turn rate) pair; the task is to
track a moving reference that circles at unit angular rate.  The reference
depends on time, so the optimizer-facing system appends a clock state
(``sdot = 1``) and the tracking error is read against the clock, keeping
every mode field autonomous.
"""
from __future__ import annotations

import math

import numpy as np

from ..integrate import SwitchedSystem
from ..signals import _is_finite

#: (forward speed, turn rate) of each mode
MODES = (
    (4.5, math.pi / 3),
    (4.5, -math.pi / 3),
    (2.0, math.pi / 3),
    (2.0, -math.pi / 3),
)

X0_DEFAULT = (0.0, 0.0, 0.0)
#: seven eighths of the circular reference's period, the horizon of the
#: published benchmark run this model reproduces
HORIZON_DEFAULT = 7.0 * math.pi / 4.0


def vehicle_mode_field(sigma, x):
    """Planar unicycle field of mode ``sigma`` at ``x = [X, Y, psi]``.

    Examples
    --------
    >>> vehicle_mode_field(1, [0.0, 0.0, 0.0])
    array([4.5       , 0.        , 1.04719755])
    """
    psi = np.asarray(x, float)[..., 2]
    out = np.empty(psi.shape + (3,))
    _unicycle(out, MODES[sigma - 1], psi)
    return out


def _unicycle(out, mode, psi):
    """Write the unicycle field of ``mode = (v, w)`` at headings ``psi``
    into ``out[..., :3]``."""
    v, w = mode
    out[..., 0] = v * np.cos(psi)
    out[..., 1] = v * np.sin(psi)
    out[..., 2] = w


def desired_trajectory(t):
    """Reference state ``[X_d, Y_d, psi_d]``: a circle of radius 4 about
    (6.5, -1.5) traversed at 1 rad/s, heading aligned with the velocity.
    """
    t = np.asarray(t, float)
    out = np.empty(t.shape + (3,))
    out[..., 0] = 6.5 - 4.0 * np.cos(t)
    out[..., 1] = -1.5 + 4.0 * np.sin(t)
    out[..., 2] = math.pi / 2 - t
    return out


def _desired_rate(t):
    t = np.asarray(t, float)
    out = np.empty(t.shape + (3,))
    out[..., 0] = 4.0 * np.sin(t)
    out[..., 1] = 4.0 * np.cos(t)
    out[..., 2] = -1.0
    return out


def vehicle_system():
    """The tracking problem as a 4-state autonomous switched system.

    State is ``[X, Y, psi, s]`` with clock ``s``; running cost is
    ``0.5 * ||[X, Y, psi] - x_d(s)||^2``, so its ``cost_floor`` is 0.
    """

    def mode_field(i, z):
        # the solvers pass float arrays; once per Runge-Kutta stage, so
        # straight to the kernel, into the one output array
        out = np.empty(z.shape)
        _unicycle(out, MODES[i - 1], z[..., 2])
        out[..., 3] = 1.0
        return out

    def mode_jacobian(i, z):
        v, _ = MODES[i - 1]
        psi = np.asarray(z, float)[..., 2]
        J = np.zeros(psi.shape + (4, 4))
        J[..., 0, 2] = -v * np.sin(psi)
        J[..., 1, 2] = v * np.cos(psi)
        return J

    def running_cost(z):
        z = np.asarray(z, float)
        e = z[..., :3] - desired_trajectory(z[..., 3])
        return 0.5 * np.add.reduce(e * e, axis=-1)

    def running_cost_gradient(z):
        z = np.asarray(z, float)
        s = z[..., 3]
        e = z[..., :3] - desired_trajectory(s)
        g = np.empty(z.shape)
        g[..., :3] = e
        rate = _desired_rate(s)
        g[..., 3] = -(e[..., None, :] @ rate[..., :, None])[..., 0, 0]
        return g

    return SwitchedSystem(
        num_modes=len(MODES), dim=4,
        mode_field=mode_field, mode_jacobian=mode_jacobian,
        running_cost=running_cost,
        running_cost_gradient=running_cost_gradient,
        cost_floor=0.0,
    )


def vehicle_initial_state(x0=None):
    """Optimizer-facing initial state: pose ``x0``, three finite real
    numbers (no bools), plus zeroed clock."""
    pose = np.asarray(X0_DEFAULT if x0 is None else x0, object)
    if pose.shape != (3,) or not all(_is_finite(v) for v in pose):
        raise ValueError(f"vehicle x0 must be 3 finite real numbers, "
                         f"got {x0!r}")
    return np.concatenate([pose.astype(float), [0.0]])
