"""End-to-end accuracy of the default settings against a tight reference.

Three descent steps on each built-in system, at the default tolerances and
time grid (``integrate.KNOTS_PER_HORIZON`` knots per horizon), are compared
with the same steps at tolerances 1e-12 / 1e-13 on a grid 16 times finer
(:func:`conftest.tight_config`).  The budget is 100 solver tolerances, the
factor the benchmark allows between a reported cost and a fresh
integration of its schedule.  This test, not the constants, guards the
accuracy of the time grid: the default grid is the coarsest power of two
at which it holds.
"""
import numpy as np
import pytest

from modesched import OptimizerConfig, constant_schedule, optimize
from modesched.models import (initial_state, load_network, power_system,
                              vehicle_initial_state, vehicle_system)
from modesched.models.vehicle import HORIZON_DEFAULT
from conftest import THREE_MACHINE, ring_network, tight_config

#: descent steps compared
STEPS = 3
#: the budget, in solver tolerances (``rtol``)
BUDGET_RTOLS = 100.0


def _power(net, magnitude):
    return (power_system(net), initial_state(net, magnitude=magnitude, seed=0),
            constant_schedule(1, 1.0, net.num_configs))


PROBLEMS = {
    "vehicle": lambda: (vehicle_system(), vehicle_initial_state(),
                        constant_schedule(2, HORIZON_DEFAULT, 4)),
    "three-machine": lambda: _power(load_network(THREE_MACHINE), 0.3),
    "ring12": lambda: _power(ring_network(), 0.1),
}


@pytest.mark.parametrize("name", PROBLEMS)
def test_default_grid_stays_inside_the_accuracy_budget(name):
    sys_, x0, u0 = PROBLEMS[name]()
    cfg = OptimizerConfig(max_iter=STEPS, theta_stop=0.0)
    got = optimize(sys_, x0, u0, cfg)
    ref = optimize(sys_, x0, u0,
                   tight_config(u0.horizon, max_iter=STEPS, theta_stop=0.0))
    budget = BUDGET_RTOLS * cfg.rtol
    # the same steps: the same modes in the same order, iterate by iterate
    assert got.status == ref.status == "max_iter"
    assert [r.n_segments for r in got.iterations] \
        == [r.n_segments for r in ref.iterations]
    assert got.schedule.sequence == ref.schedule.sequence
    for g, r in zip(got.iterations, ref.iterations):
        assert abs(g.theta - r.theta) <= budget * abs(r.theta), (
            g.k, g.theta, r.theta)
        assert abs(g.cost - r.cost) <= budget * (1.0 + abs(r.cost)), (
            g.k, g.cost, r.cost)
    moved = np.abs(np.subtract(got.schedule.times, ref.schedule.times))
    assert moved.max(initial=0.0) <= budget * u0.horizon, moved
