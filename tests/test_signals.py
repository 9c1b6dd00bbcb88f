"""Schedule container: geometry, editing, dwell, round-trips."""
import math

import numpy as np
import pytest

from modesched import (
    ModeSchedule,
    constant_schedule,
    enforce_dwell,
)
from conftest import random_schedule


def test_basic_geometry():
    s = ModeSchedule((1, 3, 2), (1.0, 2.5), 4.0, 3)
    assert s.n_segments == 3
    assert s.boundaries == (0.0, 1.0, 2.5, 4.0)
    assert s.durations == (1.0, 1.5, 1.5)
    assert s.min_dwell() == 1.0


def test_mode_at_is_right_continuous():
    s = ModeSchedule((1, 2), (1.0,), 2.0, 2)
    assert s.mode_at(0.0) == 1
    assert s.mode_at(1.0 - 1e-12) == 1
    assert s.mode_at(1.0) == 2        # new mode already active at the switch
    assert s.mode_at(2.0) == 2


def test_vacuous_switches_merge():
    s = ModeSchedule((1, 2, 2, 3), (1.0, 2.0, 3.0), 4.0, 3)
    assert s.sequence == (1, 2, 3)
    assert s.times == (1.0, 3.0)


@pytest.mark.parametrize("bad", [
    dict(sequence=(1, 2), times=(), horizon=1.0, num_modes=2),
    dict(sequence=(1, 2), times=(0.0,), horizon=1.0, num_modes=2),
    dict(sequence=(1, 2), times=(1.0,), horizon=1.0, num_modes=2),
    dict(sequence=(1, 2, 1), times=(0.7, 0.3), horizon=1.0, num_modes=2),
    dict(sequence=(1, 3), times=(0.5,), horizon=1.0, num_modes=2),
    dict(sequence=(), times=(), horizon=1.0, num_modes=2),
    dict(sequence=(1,), times=(), horizon=-1.0, num_modes=2),
    dict(sequence=(0,), times=(), horizon=1.0, num_modes=2),
    # not truncated to mode 2, nor to 2 modes
    dict(sequence=(2.7, 1), times=(1.0,), horizon=3.0, num_modes=4),
    dict(sequence=(1,), times=(), horizon=1.0, num_modes=2.9),
    dict(sequence=(True, 2), times=(0.5,), horizon=1.0, num_modes=2),
    dict(sequence=(1,), times=(), horizon=math.nan, num_modes=2),
    dict(sequence=(1,), times=(), horizon=math.inf, num_modes=2),
])
def test_validation_rejects(bad):
    with pytest.raises(ValueError):
        ModeSchedule(**bad)


@pytest.mark.parametrize("bad, named", [
    (dict(horizon=True), "horizon"),
    (dict(horizon="5.0"), "horizon"),
    (dict(sequence=(1, 2), times=("0.5",)), "times"),
    (dict(sequence=(1, 2), times=(True,), horizon=2.0), "times"),
])
def test_times_and_horizon_are_numbers_not_converted(bad, named):
    # a bool or a string is no time, though float() would make one of it
    with pytest.raises(ValueError, match=named):
        ModeSchedule(**{**dict(sequence=(1,), times=(), horizon=1.0,
                               num_modes=2), **bad})


def test_numpy_integers_are_modes():
    s = ModeSchedule(tuple(np.array([2, 1])), (1.0,), 3.0, np.int64(4))
    assert s.sequence == (2, 1) and s.num_modes == 4
    assert all(type(m) is int for m in (*s.sequence, s.num_modes))


def test_segment_lookup_randomized():
    rng = np.random.default_rng(7)
    for _ in range(25):
        s = random_schedule(rng, 5.0, 4, int(rng.integers(0, 8)))
        for t in rng.uniform(0.0, 5.0, 40):
            i = s.segment_of(t)
            lo, hi = s.segment_bounds(i)
            assert lo <= t and (t < hi or hi == s.horizon)
            assert s.mode_at(t) == s.sequence[i]


def test_insert_splits_segment():
    s = constant_schedule(1, 4.0, 3)
    out = s.insert(2, 1.0, 1.5)
    assert out.sequence == (1, 2, 1)
    assert out.times == (1.0, 1.5)
    # touching the segment end keeps only one new switch
    out = s.insert(3, 3.0, 4.0)
    assert out.sequence == (1, 3)
    assert out.times == (3.0,)


def test_insert_rejects_straddling():
    s = ModeSchedule((1, 2), (2.0,), 4.0, 2)
    with pytest.raises(ValueError):
        s.insert(1, 1.5, 2.5)


def test_with_times_moves_switches():
    s = ModeSchedule((1, 2, 1), (1.0, 2.0), 3.0, 2)
    out = s.with_times((0.5, 2.5))
    assert out.sequence == s.sequence
    assert out.times == (0.5, 2.5)


def test_enforce_dwell_absorbs_sliver():
    s = ModeSchedule((1, 2, 1), (1.0, 1.0 + 1e-9), 2.0, 2)
    out = enforce_dwell(s, 1e-6)
    assert out.n_segments == 1
    assert out.sequence == (1,)
    assert out.min_dwell() >= 1e-6
    # schedules already satisfying the dwell come back untouched
    ok = ModeSchedule((1, 2), (1.0,), 2.0, 2)
    assert enforce_dwell(ok, 1e-6) is ok


def test_enforce_dwell_prefers_longer_neighbor():
    s = ModeSchedule((1, 2, 3), (1.0, 1.0 + 1e-9), 4.0, 3)
    out = enforce_dwell(s, 1e-6)
    # the sliver belongs to mode 2; mode 3's segment is longer and eats it
    assert out.sequence == (1, 3)
    assert out.times == (1.0,)


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    s = random_schedule(rng, 5.5, 4, 6)
    p = tmp_path / "sched.json"
    s.save_json(p)
    back = ModeSchedule.load_json(p)
    assert back == s
