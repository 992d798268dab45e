"""Runtime availability processes (the stage-II perturbation ``pi_2``).

Stage I reasons about availability as a static random variable; stage II
needs availability *over time*: each simulated processor carries a
piecewise-constant availability process ``alpha(t)`` and executing ``w``
units of dedicated work starting at time ``t0`` takes wall-clock time ``t1 -
t0`` with ``integral_{t0}^{t1} capacity * alpha(t) dt = w``.

Models
------
* :class:`ConstantAvailability` — fixed fraction (deterministic tests,
  fully-dedicated systems, and the per-processor levels of
  :func:`quota_levels`).
* :class:`ResampledAvailability` — availability redrawn iid from a PMF every
  ``interval`` time units. This realizes the paper's Table I cases at
  runtime: the PMF says which fractions occur with which long-run frequency.
* :class:`MarkovAvailability` — continuous-time Markov-modulated
  availability with exponential sojourns; an extension model with temporal
  correlation ("exploring the possible correlation between availabilities"
  is listed as future work in §V).
* :class:`TraceAvailability` — replay of a recorded trace (breakpoints and
  levels), for trace-driven studies and exact regression tests.

An :class:`AvailabilityModel` is the immutable *specification*; calling
:meth:`AvailabilityModel.spawn` with a per-processor RNG yields a stateful
:class:`AvailabilityProcess` that lazily extends its timeline, so replaying
the same seed replays the same availability trajectory regardless of query
order granularity.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..errors import ModelError, SimulationError
from ..pmf import PMF
from ..rng import ensure_rng

__all__ = [
    "AvailabilityProcess",
    "AvailabilityModel",
    "ConstantAvailability",
    "ResampledAvailability",
    "MarkovAvailability",
    "TraceAvailability",
]

_EPS = 1e-12


def _check_start(start: float) -> None:
    if not 0 <= start < math.inf:
        raise SimulationError(
            f"start time must be finite and non-negative, got {start}"
        )


def _check_interval_ends(t0: float, t1: float) -> None:
    for name, t in (("t0", t0), ("t1", t1)):
        if not 0 <= t < math.inf:
            raise SimulationError(
                f"{name} must be finite and non-negative, got {t}"
            )


class AvailabilityProcess:
    """A realized piecewise-constant availability trajectory.

    Segments are generated lazily by ``generator`` — an iterator of
    ``(duration, level)`` pairs — and memoized, so the trajectory is a fixed
    function of the seed no matter how it is queried.
    """

    def __init__(self, generator, *, capacity: float = 1.0) -> None:
        if capacity <= 0:
            raise ModelError(f"capacity must be positive, got {capacity}")
        self._gen = generator
        self._capacity = capacity
        self._ends: list[float] = []  # segment end times, segment k covers (end[k-1], end[k]]
        self._levels: list[float] = []
        # Cached ndarray views of the lists (hot path of the simulator);
        # invalidated whenever the timeline is extended.
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None

    def _as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._arrays is None:
            self._arrays = (np.asarray(self._ends), np.asarray(self._levels))
        return self._arrays

    @property
    def capacity(self) -> float:
        return self._capacity

    def _extend_to(self, t: float) -> None:
        """Materialize segments so the timeline covers time ``t``."""
        last = self._ends[-1] if self._ends else 0.0
        while last <= t:
            try:
                duration, level = next(self._gen)
            except StopIteration as exc:  # pragma: no cover - defensive
                raise SimulationError(
                    "availability generator exhausted before simulation end"
                ) from exc
            if not duration > 0:  # also rejects NaN
                raise SimulationError(
                    f"availability segment duration must be positive, got {duration}"
                )
            if not 0.0 < level <= 1.0 + _EPS:
                raise SimulationError(
                    f"availability level must be in (0, 1], got {level}"
                )
            last += duration
            self._ends.append(last)
            self._levels.append(min(level, 1.0))
            self._arrays = None

    def level_at(self, t: float) -> float:
        """Availability fraction in effect at time ``t`` (finite, >= 0)."""
        if not 0 <= t < math.inf:
            raise SimulationError(f"time t must be finite and non-negative, got {t}")
        self._extend_to(t)
        idx = min(bisect_right(self._ends, t), len(self._levels) - 1)
        return self._levels[idx]

    def finish_time(self, start: float, work: float) -> float:
        """Wall-clock completion time of ``work`` dedicated units from ``start``.

        Solves ``integral rate dt = work`` by stepping through segments.
        """
        _check_start(start)
        if not 0 <= work < math.inf:
            raise SimulationError(f"work must be finite and non-negative, got {work}")
        if work == 0:
            return start
        t = start
        remaining = work
        self._extend_to(t)
        idx = bisect_right(self._ends, t)
        while True:
            if idx >= len(self._levels):
                self._extend_to(self._ends[-1] if self._ends else 0.0)
                if idx >= len(self._levels):  # pragma: no cover - defensive
                    raise SimulationError("failed to extend availability timeline")
            seg_end = self._ends[idx]
            rate = self._capacity * self._levels[idx]
            span = seg_end - t
            capacity_here = rate * span
            if capacity_here >= remaining - _EPS * max(1.0, work):
                return t + remaining / rate
            remaining -= capacity_here
            t = seg_end
            idx += 1

    def finish_times(self, start: float, cumulative_works: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`finish_time` for increasing cumulative work.

        ``cumulative_works`` must be non-decreasing (e.g. the cumulative sum
        of per-iteration dedicated times) and free of NaN; returns the
        wall-clock time at which each cumulative amount completes. Used to
        attribute a chunk's elapsed time to its individual iterations.

        A chunk that completes inside the segment holding ``start`` (most
        chunks, when segments are long) skips the segment search: it is the
        general formula below with every segment index 0, so the result is
        bit-for-bit the same.
        """
        works = np.asarray(cumulative_works, dtype=np.float64)
        n = works.size
        if n == 0:
            return np.empty(0)
        # One comparison pass: a pair fails `>=` when it decreases or
        # either side is NaN; only then is the cause worked out.
        if np.count_nonzero(works[1:] >= works[:-1]) != n - 1:
            if (works[1:] < works[:-1]).any():
                raise SimulationError("cumulative_works must be non-decreasing")
            raise SimulationError("cumulative work must be finite, got NaN")
        if works.item(0) < 0:
            raise SimulationError("cumulative work must be non-negative")
        if not 0 <= start < math.inf:
            raise SimulationError(
                f"start time must be finite and non-negative, got {start}"
            )
        total = works.item(-1)
        if not 0 <= total < math.inf:
            raise SimulationError(
                f"cumulative work must be finite and non-negative, got {total}"
            )
        ends = self._ends
        if not ends or ends[-1] <= start:
            self._extend_to(start)
        k = bisect_right(ends, start)
        rate = self._capacity * self._levels[k]
        if total <= rate * (ends[k] - start):
            out = works / rate
            out += start
            return out
        # Materialize segments through the overall finish.
        overall_finish = self.finish_time(start, total)
        self._extend_to(overall_finish)
        ends, levels = self._as_arrays()
        rates = self._capacity * levels
        first = int(np.searchsorted(ends, start, side="right"))
        # Cumulative work delivered by each segment end (from `start` on).
        seg_ends = ends[first:]
        seg_rates = rates[first:]
        starts = np.concatenate(([start], seg_ends[:-1]))
        seg_work = seg_rates * (seg_ends - starts)
        cum_work = np.concatenate(([0.0], np.cumsum(seg_work)))
        # Segment index in which each target amount completes.
        idx = np.searchsorted(cum_work[1:], works, side="left")
        idx = np.minimum(idx, len(seg_rates) - 1)
        return starts[idx] + (works - cum_work[idx]) / seg_rates[idx]

    def work_between(self, t0: float, t1: float) -> float:
        """Dedicated work deliverable in ``[t0, t1]`` (integral of the rate).

        Both ends must be finite and non-negative (the timeline starts at
        0), with ``t0 <= t1``.
        """
        _check_interval_ends(t0, t1)
        if t1 < t0:
            raise SimulationError(f"interval reversed: [{t0}, {t1}]")
        if t1 == t0:
            return 0.0
        self._extend_to(t1)
        total = 0.0
        t = t0
        idx = bisect_right(self._ends, t)
        while t < t1 - _EPS:
            seg_end = min(self._ends[idx], t1)
            total += self._capacity * self._levels[idx] * (seg_end - t)
            t = seg_end
            idx += 1
        return total

    def mean_level(self, t0: float, t1: float) -> float:
        """Time-average availability over ``[t0, t1]``.

        ``t0`` and ``t1`` are checked as in :meth:`work_between`.
        """
        _check_interval_ends(t0, t1)
        if t1 <= t0:
            raise SimulationError(f"need t1 > t0, got [{t0}, {t1}]")
        return self.work_between(t0, t1) / (self._capacity * (t1 - t0))


class AvailabilityModel(ABC):
    """Immutable specification from which availability processes are spawned."""

    @abstractmethod
    def spawn(
        self, rng: np.random.Generator | int | None = None, *, capacity: float = 1.0
    ) -> AvailabilityProcess:
        """Create a fresh realized process using the given RNG stream."""

    @abstractmethod
    def expected_level(self) -> float:
        """Long-run expected availability fraction."""


@dataclass(frozen=True)
class ConstantAvailability(AvailabilityModel):
    """Availability pinned to a single fraction for all time."""

    level: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.level <= 1.0:
            raise ModelError(f"level must be in (0, 1], got {self.level}")

    def spawn(self, rng=None, *, capacity: float = 1.0) -> AvailabilityProcess:
        def gen():
            while True:
                yield (math.inf, self.level)

        return AvailabilityProcess(gen(), capacity=capacity)

    def expected_level(self) -> float:
        return self.level


@dataclass(frozen=True)
class ResampledAvailability(AvailabilityModel):
    """Availability redrawn iid from ``pmf`` every ``interval`` time units.

    The long-run time-average availability equals ``E[pmf]`` (segments have
    equal length), matching the paper's interpretation of Table I as
    historical frequencies of availability levels.
    """

    pmf: PMF
    interval: float = 100.0

    def __post_init__(self) -> None:
        lo, hi = self.pmf.support()
        if lo <= 0.0 or hi > 1.0 + _EPS:
            raise ModelError(
                f"availability PMF support must be in (0, 1], got [{lo}, {hi}]"
            )
        if not self.interval > 0:  # also rejects NaN
            raise ModelError(f"interval must be positive, got {self.interval}")

    def spawn(self, rng=None, *, capacity: float = 1.0) -> AvailabilityProcess:
        gen_rng = ensure_rng(rng)

        def gen():
            while True:
                yield (self.interval, float(self.pmf.sample(gen_rng)))

        return AvailabilityProcess(gen(), capacity=capacity)

    def expected_level(self) -> float:
        return self.pmf.mean()


@dataclass(frozen=True)
class MarkovAvailability(AvailabilityModel):
    """Markov-modulated availability with exponential sojourn times.

    ``levels[k]`` is the availability in state ``k``; ``mean_sojourn[k]`` the
    expected dwell time; ``transition[k, l]`` the jump probabilities of the
    embedded chain (rows sum to one, zero diagonal preferred).
    """

    levels: tuple[float, ...]
    mean_sojourn: tuple[float, ...]
    transition: tuple[tuple[float, ...], ...]
    start_state: int = 0

    def __post_init__(self) -> None:
        n = len(self.levels)
        if n == 0:
            raise ModelError("MarkovAvailability needs at least one state")
        if len(self.mean_sojourn) != n or len(self.transition) != n:
            raise ModelError("levels, mean_sojourn and transition sizes disagree")
        for k, lvl in enumerate(self.levels):
            if not 0.0 < lvl <= 1.0:
                raise ModelError(f"levels[{k}] must be in (0, 1], got {lvl}")
        for k, s in enumerate(self.mean_sojourn):
            if not 0 < s < math.inf:  # also rejects NaN
                raise ModelError(
                    f"mean_sojourn[{k}] must be finite and positive, got {s}"
                )
        for k, row in enumerate(self.transition):
            if len(row) != n:
                raise ModelError("transition matrix must be square")
            if not all(math.isfinite(p) for p in row):
                raise ModelError(f"transition[{k}] must be finite, got {row}")
            if abs(sum(row) - 1.0) > 1e-9:
                raise ModelError(f"transition[{k}] must sum to 1, got {row}")
            if any(p < 0 for p in row):
                raise ModelError(
                    f"transition[{k}] must be non-negative, got {row}"
                )
        if not 0 <= self.start_state < n:
            raise ModelError(f"start_state {self.start_state} out of range")

    def spawn(self, rng=None, *, capacity: float = 1.0) -> AvailabilityProcess:
        gen_rng = ensure_rng(rng)
        trans = np.asarray(self.transition, dtype=np.float64)

        def gen():
            state = self.start_state
            while True:
                dwell = gen_rng.exponential(self.mean_sojourn[state])
                # Guard against zero-length exponential draws.
                yield (max(dwell, 1e-9), self.levels[state])
                state = int(gen_rng.choice(len(self.levels), p=trans[state]))

        return AvailabilityProcess(gen(), capacity=capacity)

    def expected_level(self) -> float:
        """Stationary time-average availability of the semi-Markov process."""
        trans = np.asarray(self.transition, dtype=np.float64)
        # Stationary distribution of the embedded chain.
        eigvals, eigvecs = np.linalg.eig(trans.T)
        idx = int(np.argmin(np.abs(eigvals - 1.0)))
        pi = np.real(eigvecs[:, idx])
        pi = np.abs(pi) / np.abs(pi).sum()
        sojourn = np.asarray(self.mean_sojourn, dtype=np.float64)
        weights = pi * sojourn
        weights = weights / weights.sum()
        return float(weights @ np.asarray(self.levels))


def quota_levels(pmf: PMF, n_processors: int) -> list[float]:
    """Deterministic largest-remainder assignment of PMF levels to processors.

    Interprets an availability PMF's probabilities as *frequencies across
    the processors of a group*: of ``n`` processors, ``p_k * n`` (rounded by
    largest remainder, ties resolved toward the lower availability level —
    the pessimistic reading) run at level ``k`` for the whole execution.
    Returns the per-processor levels sorted ascending (worst first).

    This is the alternative reading of the paper's Table I used by the
    availability-model ablation, which pins each processor with
    ``[ConstantAvailability(level) for level in quota_levels(pmf, n)]``;
    the default runtime model treats the PMF as a temporal distribution
    instead (:class:`ResampledAvailability`).
    """
    if n_processors < 1:
        raise ModelError(f"need >= 1 processor, got {n_processors}")
    levels = pmf.values
    probs = pmf.probs
    raw = probs * n_processors
    counts = np.floor(raw).astype(int)
    shortfall = n_processors - int(counts.sum())
    if shortfall > 0:
        remainders = raw - counts
        # Stable pessimistic order: largest remainder first, then lower level.
        order = sorted(
            range(len(levels)), key=lambda k: (-remainders[k], levels[k])
        )
        for k in order[:shortfall]:
            counts[k] += 1
    out: list[float] = []
    for level, count in zip(levels, counts):
        out.extend([float(level)] * int(count))
    return out


@dataclass(frozen=True)
class TraceAvailability(AvailabilityModel):
    """Replay of a recorded availability trace.

    ``segments`` is a tuple of ``(duration, level)`` pairs with finite,
    positive durations; after the trace is exhausted the last level
    persists forever (so simulations never run off the end of a finite
    trace).
    """

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ModelError("TraceAvailability needs at least one segment")
        for k, (duration, level) in enumerate(self.segments):
            if not 0 < duration < math.inf:  # also rejects NaN
                raise ModelError(
                    f"segments[{k}] duration must be finite and positive, "
                    f"got {duration}"
                )
            if not 0.0 < level <= 1.0:
                raise ModelError(
                    f"segments[{k}] level must be in (0, 1], got {level}"
                )

    def spawn(self, rng=None, *, capacity: float = 1.0) -> AvailabilityProcess:
        def gen():
            for duration, level in self.segments:
                yield (duration, level)
            while True:
                yield (math.inf, self.segments[-1][1])

        return AvailabilityProcess(gen(), capacity=capacity)

    def expected_level(self) -> float:
        total = sum(d for d, _ in self.segments)
        return sum(d * lvl for d, lvl in self.segments) / total
