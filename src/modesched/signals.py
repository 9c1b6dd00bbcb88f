"""Mode schedules.

A schedule is a finite mode sequence together with the times at which the
active mode changes.  The equivalent control signal is piecewise constant,
takes values on the standard basis vectors (exactly one mode active at any
instant), and is right-continuous: at a switching time the *new* mode is
already active.
"""
from __future__ import annotations

import bisect
import csv
import json
import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ModeSchedule:
    """A mode sequence with switching times on a fixed horizon.

    Segments are half-open ``[T[i-1], T[i])`` except the last, which is
    closed at the horizon.  Consecutive equal modes are merged on
    construction (the switch between them is vacuous and carries no
    information).

    Parameters
    ----------
    sequence : tuple of int
        Active modes in order, each in ``1..num_modes``.
    times : tuple of float
        Interior switching times, strictly increasing, inside
        ``(0, horizon)``.  ``len(times) == len(sequence) - 1``.
    horizon : float
        Final time ``T > 0``; the schedule covers ``[0, T]``.
    num_modes : int
        Number of modes ``N >= 1`` of the underlying system.

    Examples
    --------
    >>> s = ModeSchedule((1, 2, 2, 3), (1.0, 2.0, 3.0), 4.0, 3)
    >>> s.sequence, s.times          # vacuous 2->2 switch merged away
    ((1, 2, 3), (1.0, 3.0))
    >>> s.mode_at(2.5)
    2
    """

    sequence: tuple
    times: tuple
    horizon: float
    num_modes: int

    def __post_init__(self):
        seq = tuple(int(m) for m in self.sequence)
        times = tuple(float(t) for t in self.times)
        horizon = float(self.horizon)
        num_modes = int(self.num_modes)
        if horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if num_modes < 1:
            raise ValueError(f"num_modes must be >= 1, got {num_modes}")
        if len(seq) == 0:
            raise ValueError("schedule needs at least one mode")
        if len(times) != len(seq) - 1:
            raise ValueError(
                f"got {len(times)} switching times for {len(seq)} modes; "
                f"expected {len(seq) - 1}"
            )
        for m in seq:
            if not 1 <= m <= num_modes:
                raise ValueError(f"mode {m} outside 1..{num_modes}")
        prev = 0.0
        for t in times:
            if not prev < t < horizon:
                raise ValueError(
                    f"switching times must be strictly increasing inside "
                    f"(0, {horizon}); offender {t}"
                )
            prev = t
        seq, times = _merge_vacuous(seq, times)
        object.__setattr__(self, "sequence", seq)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "num_modes", num_modes)

    # -- geometry ---------------------------------------------------------

    @property
    def n_segments(self):
        return len(self.sequence)

    @property
    def boundaries(self):
        """All segment boundaries: ``(0, *times, horizon)``."""
        return (0.0,) + self.times + (self.horizon,)

    @property
    def durations(self):
        b = self.boundaries
        return tuple(b[i + 1] - b[i] for i in range(len(b) - 1))

    def segment_of(self, t):
        """Index of the segment containing ``t`` (right-continuous)."""
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"t={t} outside [0, {self.horizon}]")
        i = bisect.bisect_right(self.times, t)
        return min(i, len(self.sequence) - 1)

    def segment_bounds(self, i):
        b = self.boundaries
        return b[i], b[i + 1]

    def mode_at(self, t):
        """Active mode at time ``t`` (the new mode at a switching time)."""
        return self.sequence[self.segment_of(t)]

    def min_dwell(self):
        return min(self.durations)

    # -- editing ----------------------------------------------------------

    def insert(self, mode, t0, t1):
        """Return a copy with ``mode`` active on ``[t0, t1)``.

        The inserted interval must lie inside a single existing segment
        (it may touch the segment's boundaries); existing switches strictly
        inside ``(t0, t1)`` are not allowed.
        """
        if not 0.0 <= t0 < t1 <= self.horizon:
            raise ValueError(f"bad insertion interval [{t0}, {t1})")
        i = self.segment_of(t0)
        lo, hi = self.segment_bounds(i)
        if t1 > hi + 1e-15 * self.horizon:
            raise ValueError(
                f"insertion [{t0}, {t1}) crosses segment boundary at {hi}"
            )
        t1 = min(t1, hi)
        spans = []
        for j, m in enumerate(self.sequence):
            a, b = self.segment_bounds(j)
            if j == i:
                if t0 > a:
                    spans.append((a, t0, m))
                spans.append((t0, t1, mode))
                if t1 < b:
                    spans.append((t1, b, m))
            else:
                spans.append((a, b, m))
        seq = tuple(s[2] for s in spans)
        times = tuple(s[0] for s in spans[1:])
        return ModeSchedule(seq, times, self.horizon, self.num_modes)

    def with_times(self, new_times):
        """Same sequence, different switching times (for perturbations)."""
        return ModeSchedule(self.sequence, tuple(new_times), self.horizon, self.num_modes)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self):
        return {
            "horizon": self.horizon,
            "num_modes": self.num_modes,
            "sequence": list(self.sequence),
            "times": list(self.times),
        }

    @classmethod
    def from_json_dict(cls, d):
        try:
            return cls(
                tuple(d["sequence"]), tuple(d["times"]),
                d["horizon"], d["num_modes"],
            )
        except KeyError as e:
            raise ValueError(f"schedule JSON missing key {e}") from e

    def save_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load_json(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def save_csv(self, path):
        """Write one row per segment: ``t_start, t_end, mode``."""
        b = self.boundaries
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t_start", "t_end", "mode"])
            for i, m in enumerate(self.sequence):
                w.writerow([f"{b[i]:.17g}", f"{b[i + 1]:.17g}", m])

    @classmethod
    def load_csv(cls, path, num_modes=None):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            raise ValueError(f"empty schedule CSV: {path}")
        seq = tuple(int(r["mode"]) for r in rows)
        starts = [float(r["t_start"]) for r in rows]
        ends = [float(r["t_end"]) for r in rows]
        for a, b in zip(ends[:-1], starts[1:]):
            if abs(a - b) > 1e-12 * max(1.0, ends[-1]):
                raise ValueError(f"schedule CSV has a gap between {a} and {b}")
        if abs(starts[0]) > 1e-12 * max(1.0, ends[-1]):
            raise ValueError("schedule CSV must start at t=0")
        n = num_modes if num_modes is not None else max(seq)
        return cls(seq, tuple(starts[1:]), ends[-1], n)


def _merge_vacuous(seq, times):
    out_seq = [seq[0]]
    out_times = []
    for m, t in zip(seq[1:], times):
        if m == out_seq[-1]:
            continue
        out_seq.append(m)
        out_times.append(t)
    return tuple(out_seq), tuple(out_times)


def constant_schedule(mode, horizon, num_modes):
    """Single-mode schedule covering ``[0, horizon]``."""
    return ModeSchedule((mode,), (), horizon, num_modes)


def enforce_dwell(schedule, dwell):
    """Absorb segments shorter than ``dwell`` into their longer neighbor.

    Returns the (possibly identical) schedule.  Merging is repeated until
    every remaining segment satisfies the dwell or only one segment is
    left; each absorbed segment is reported through the module logger.
    """
    seq = list(schedule.sequence)
    bounds = list(schedule.boundaries)
    changed = False
    while len(seq) > 1:
        durs = [bounds[i + 1] - bounds[i] for i in range(len(seq))]
        i = int(np.argmin(durs))
        if durs[i] >= dwell:
            break
        left = durs[i - 1] if i > 0 else -1.0
        right = durs[i + 1] if i < len(seq) - 1 else -1.0
        log.warning(
            "segment %d (mode %d, length %.3g) below dwell %.3g; merging",
            i, seq[i], durs[i], dwell,
        )
        if right > left:
            del seq[i]
            del bounds[i + 1]
        else:
            del seq[i]
            del bounds[i]
        # re-merge equal neighbors the absorption may have created
        j = 1
        while j < len(seq):
            if seq[j] == seq[j - 1]:
                del seq[j]
                del bounds[j]
            else:
                j += 1
        changed = True
    if not changed:
        return schedule
    return ModeSchedule(
        tuple(seq), tuple(bounds[1:-1]), schedule.horizon, schedule.num_modes
    )
