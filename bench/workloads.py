"""Inputs of the three benchmark workloads.

Every workload takes the same input for every seed.  The program's work
jumps with rounding-level changes of its input, so a seeded input would
measure that instead of the program's speed (figures from 2 cores):

* Power: the line search falls back (keeps the inherited plan) on a share
  of windows that flips with the input's last bits.  Relabelling the
  machines of the 12-machine network, an isomorphic problem, gave 0 to 3
  fallbacks of 20 windows; rotating the three-machine disturbance by a
  common phase gave 0 to 16 of 50.  Seeded disturbances moved the solve
  time between 11.9 and 18.2 s (5 seeds).
* Vehicle: start poses within 1 cm of the published one took 80 to 90
  trial projections for 10 steps, which moved the 80th-percentile
  iteration latency between 617 and 890 ms (5 seeds).

``vehicle-descent`` and ``power-horizon`` are the published runs;
``power-ring12`` is one seeded 12-machine network with disturbance
magnitude 0.1, where no window falls back.  Why each workload exists is
recorded in ``BENCHMARK.json``.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

VEHICLE = "vehicle-descent"
POWER = "power-horizon"
RING = "power-ring12"
WORKLOADS = (VEHICLE, POWER, RING)

#: optimizer knobs of the published runs
VEHICLE_ITERATIONS = 10
VEHICLE_START_MODE = 2
POWER_WINDOWS = 50
RING_WINDOWS = 20
WINDOW = 1.0
ADVANCE = 0.1
#: disturbance magnitude and seed of the published three-machine run
DISTURBANCE = 0.3
DISTURBANCE_SEED = 0
RING_MACHINES = 12
RING_CHORDS = 6
RING_NETWORK_SEED = 0
#: at 0.3 the ring falls back on 3 to 7 of its 20 windows; power-horizon
#: already carries that tail, and this workload is the one without it
RING_DISTURBANCE = 0.1

#: final costs of the published runs, to the digits published
PUBLISHED_COST = {VEHICLE: 1.5697384, POWER: 0.1266929}

THREE_MACHINE = Path("demos") / "networks" / "three_machine.json"


def ring12_network(seed):
    """Lossless 12-machine network in the direct ``Y1``/``Y2`` layout.

    A ring of unit-order susceptances plus :data:`RING_CHORDS` weaker
    chords between non-adjacent machines; in configuration 2 half of the
    lines (a seeded choice) drop to half susceptance.  ``Pm = 0`` and a
    purely imaginary admittance make ``delta = 0`` the equilibrium.
    """
    rng = np.random.default_rng([RING_MACHINES, seed])
    n = RING_MACHINES
    lines = {(i, (i + 1) % n): rng.uniform(0.8, 1.2) for i in range(n)}
    while len(lines) < n + RING_CHORDS:
        a, b = sorted(int(v) for v in rng.choice(n, 2, replace=False))
        if (a, b) not in lines and (b, a) not in lines \
                and (b - a) % n not in (1, n - 1):
            lines[(a, b)] = rng.uniform(0.3, 0.6)
    keys = list(lines)
    switched = {keys[k] for k in rng.choice(len(keys), len(keys) // 2,
                                            replace=False)}

    def matrix(weak):
        B = np.zeros((n, n))
        for (a, b), s in lines.items():
            s = s * (0.5 if weak and (a, b) in switched else 1.0)
            B[a, b] += s
            B[b, a] += s
            B[a, a] -= s
            B[b, b] -= s
        return [[[0.0, float(B[i, j])] for j in range(n)] for i in range(n)]

    H = rng.uniform(2.5, 4.5, n)
    return {
        "Y1": matrix(False),
        "Y2": matrix(True),
        "generators": [{"H": float(h), "Pm": 0.0, "E": 1.0} for h in H],
    }


@dataclass
class Problem:
    """Everything a solve needs, built from one workload."""

    system: object
    x0: np.ndarray
    schedule0: object
    config: object
    n_windows: int  # 0 for the fixed-horizon descent


def build(workload, root=Path("."), wrap_system=None):
    """Build the problem of ``workload`` under checkout ``root``.

    ``wrap_system`` (optional) maps the built ``SwitchedSystem`` to the one
    handed to the solver, so a tracer can count its callables.
    """
    from modesched.models.power import (initial_state, load_network,
                                        power_system)
    from modesched.models.vehicle import (HORIZON_DEFAULT,
                                          vehicle_initial_state,
                                          vehicle_system)
    from modesched.scheduler import OptimizerConfig
    from modesched.signals import constant_schedule

    wrap = wrap_system or (lambda s: s)
    if workload == VEHICLE:
        sys_ = vehicle_system()
        return Problem(
            system=wrap(sys_), x0=vehicle_initial_state(),
            schedule0=constant_schedule(VEHICLE_START_MODE, HORIZON_DEFAULT,
                                        sys_.num_modes),
            config=OptimizerConfig(alpha=0.4, beta=0.4,
                                   max_iter=VEHICLE_ITERATIONS,
                                   theta_stop=0.0),
            n_windows=0)
    if workload == POWER:
        net = load_network(str(Path(root) / THREE_MACHINE))
        n_windows, magnitude = POWER_WINDOWS, DISTURBANCE
    elif workload == RING:
        net = load_network(ring12_network(RING_NETWORK_SEED))
        n_windows, magnitude = RING_WINDOWS, RING_DISTURBANCE
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return Problem(
        system=wrap(power_system(net)),
        x0=initial_state(net, magnitude=magnitude, seed=DISTURBANCE_SEED),
        schedule0=constant_schedule(1, WINDOW, net.num_configs),
        config=OptimizerConfig(alpha=0.4, beta=0.1),
        n_windows=n_windows)

