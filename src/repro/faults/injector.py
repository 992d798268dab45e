"""Fault realization: one deterministic draw of a :class:`FaultPlan`.

A :class:`FaultInjector` holds the concrete fault occurrences of one
simulated run. Stochastic events are drawn from the seed-tree paths
``("faults", kind, worker)`` beneath the run's simulation seed (plus
``("faults", kind, "duration", worker)`` for blackout and slowdown
durations), all built in one batch (:meth:`~repro.exec.SeedTree.rngs`):

* the draw is bit-for-bit reproducible for a fixed seed on any backend;
* it never touches the worker availability/iteration streams (those come
  from :func:`repro.rng.spawn_rngs`), so enabling a zero-rate plan — or
  adding faults to worker 3 — cannot perturb what worker 5 computes;
* degradation timelines are materialized lazily (arrival processes are
  unbounded), merged in time order with any scripted events.

The injector answers three questions the loop simulator asks:

* :meth:`crash_time` — when (if ever) does this worker die?
* :meth:`degradations_until` — every blackout/slowdown for this worker
  up to a wall-clock horizon, sorted by time.
* :meth:`may_degrade` — can any of them reach a chunk's compute window?
  A ``False`` answer is exact, so the simulator skips the degradation
  pass on such chunks.

:func:`apply_degradations` is the pure timeline transform that stretches
a chunk's per-iteration finish times by the events overlapping its
compute window; :func:`degraded_boundaries` iterates it to a fixpoint
(a pause can push the finish time into the window of a later event).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator

import numpy as np

from ..errors import FaultError
from ..exec.seeds import SeedTree
from .plan import FaultEvent, FaultPlan

__all__ = [
    "FaultInjector",
    "apply_degradations",
    "degraded_boundaries",
]


def _arrivals(rng: np.random.Generator, rate: float) -> Iterator[float]:
    """Poisson arrival times at ``rate`` (> 0) drawn from ``rng``."""
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        yield t


def _degradation_stream(
    plan: FaultPlan,
    kind: str,
    worker: int,
    arrival_rng: np.random.Generator,
    duration_rng: np.random.Generator,
) -> Iterator[FaultEvent]:
    """Drawn blackout/slowdown events for one worker, in time order.

    ``kind``'s rate must be positive; arrivals and durations come from
    the worker's ``(kind,)`` and ``(kind, "duration")`` streams.
    """
    if kind == "blackout":
        rate, mean = plan.blackout_rate, plan.blackout_duration
    else:
        rate, mean = plan.slowdown_rate, plan.slowdown_duration
    for t in _arrivals(arrival_rng, rate):
        # Durations are exponential with the configured mean, floored
        # away from zero so every drawn event is a valid FaultEvent.
        duration = max(float(duration_rng.exponential(mean)), 1e-9)
        if kind == "blackout":
            yield FaultEvent(time=t, worker=worker, kind="blackout", duration=duration)
        else:
            yield FaultEvent(
                time=t,
                worker=worker,
                kind="slowdown",
                duration=duration,
                factor=plan.slowdown_factor,
            )


class FaultInjector:
    """The realized faults of one run (see module docstring).

    Per worker it keeps the materialized prefix of the degradation
    stream, the next undrawn event (the lookahead) and the latest
    ``end`` among the materialized events, which :meth:`may_degrade`
    compares with a chunk's start.
    """

    def __init__(
        self, plan: FaultPlan, *, seed: int | None, n_workers: int
    ) -> None:
        if n_workers < 1:
            raise FaultError(f"need >= 1 worker, got {n_workers}")
        for event in plan.events:
            if event.worker >= n_workers:
                raise FaultError(
                    f"scripted event targets worker {event.worker}, but the "
                    f"group has only {n_workers} workers"
                )
        self._plan = plan
        self._n = n_workers
        # One stream per worker and drawn kind at ("faults", kind, w);
        # blackouts and slowdowns draw durations from a second one at
        # ("faults", kind, "duration", w). All are built in one batch.
        drawn = [
            kind
            for kind, rate in (
                ("crash", plan.crash_rate),
                ("blackout", plan.blackout_rate),
                ("slowdown", plan.slowdown_rate),
            )
            if rate > 0
        ]
        paths: list[tuple[str, ...]] = [(kind,) for kind in drawn]
        paths += [(kind, "duration") for kind in drawn if kind != "crash"]
        tree = SeedTree(seed).child("faults")
        nodes = [tree.child(*path) for path in paths]
        rngs = SeedTree.rngs(
            node.child(w) for node in nodes for w in range(n_workers)
        )
        streams = {
            path: rngs[i * n_workers:(i + 1) * n_workers]
            for i, path in enumerate(paths)
        }
        crash = streams.get(("crash",), [None] * n_workers)
        self._crash_times = [
            self._first_crash(plan, w, crash[w]) for w in range(n_workers)
        ]
        self._iters: list[Iterator[FaultEvent]] = []
        for w in range(n_workers):
            scripted = sorted(
                e for e in plan.events if e.worker == w and e.kind != "crash"
            )
            degradations = [
                _degradation_stream(
                    plan,
                    kind,
                    w,
                    streams[(kind,)][w],
                    streams[(kind, "duration")][w],
                )
                for kind in ("blackout", "slowdown")
                if kind in drawn
            ]
            self._iters.append(heapq.merge(iter(scripted), *degradations))
        self._materialized: list[list[FaultEvent]] = [[] for _ in range(n_workers)]
        self._latest_end = [-math.inf] * n_workers
        self._lookahead: list[FaultEvent | None] = [
            next(self._iters[w], None) for w in range(n_workers)
        ]

    @staticmethod
    def _first_crash(
        plan: FaultPlan, worker: int, rng: np.random.Generator | None
    ) -> float | None:
        """Earliest crash of ``worker``: scripted vs drawn, whichever first.

        ``rng`` is the worker's crash stream, None when no crash is drawn.
        """
        times = [
            e.time
            for e in plan.events
            if e.worker == worker and e.kind == "crash"
        ]
        if rng is not None:
            times.append(float(rng.exponential(1.0 / plan.crash_rate)))
        return min(times) if times else None

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @property
    def n_workers(self) -> int:
        return self._n

    @property
    def failover_delay(self) -> float:
        return self._plan.failover_delay

    def crash_time(self, worker: int) -> float | None:
        """Wall-clock time at which ``worker`` dies, or None (immortal)."""
        self._check_worker(worker)
        return self._crash_times[worker]

    def degradations_until(self, worker: int, t: float) -> list[FaultEvent]:
        """All blackout/slowdown events of ``worker`` with ``time <= t``.

        Returns the (growing) materialized prefix, sorted by time; the
        caller must treat it as read-only.
        """
        self._check_worker(worker)
        buffer = self._materialized[worker]
        event = self._lookahead[worker]
        while event is not None and event.time <= t:
            buffer.append(event)
            if event.end > self._latest_end[worker]:
                self._latest_end[worker] = event.end
            event = next(self._iters[worker], None)
        self._lookahead[worker] = event
        return buffer

    def may_degrade(self, worker: int, start: float, until: float) -> bool:
        """Can a blackout/slowdown of ``worker`` reach ``[start, until]``?

        Materializes the worker's events through ``until`` and answers
        whether any materialized event ends after ``start``. ``False`` is
        exact for a chunk whose boundaries end at or before ``until``:
        every materialized event ended by ``start`` and every other one
        begins after the chunk's finish. :func:`apply_degradations` skips
        both, so :func:`degraded_boundaries` would report
        ``applied == 0``. ``True`` may be conservative. Materializing
        ahead of a later query changes no event: each stream is a fixed
        function of the seed.
        """
        self.degradations_until(worker, until)
        return self._latest_end[worker] > start

    def _check_worker(self, worker: int) -> None:
        if not 0 <= worker < self._n:
            raise FaultError(
                f"worker {worker} out of range for {self._n}-worker group"
            )


def apply_degradations(
    start: float,
    boundaries: np.ndarray,
    events: list[FaultEvent],
) -> tuple[np.ndarray, int]:
    """Stretch per-iteration finish times by degradation events.

    ``boundaries`` are the chunk's cumulative iteration finish times
    (ascending, last entry = chunk finish); ``events`` the executing
    worker's blackouts/slowdowns sorted by time. Semantics:

    * a **blackout** inserts a pause of its duration at its start time
      (discounting any part already served before the compute window);
    * a **slowdown** adds ``(factor - 1) x overlap`` where ``overlap``
      is the intersection of its window with the compute window.

    Each event shifts every boundary strictly after its (clipped) start;
    later events are compared against the already-shifted timeline, so a
    pause can push iterations into a later event's window. Returns the
    adjusted boundaries and the number of events that had any effect.
    """
    adjusted = np.asarray(boundaries, dtype=np.float64).copy()
    applied = 0
    for event in events:
        finish = float(adjusted[-1])
        if event.time >= finish or event.end <= start:
            continue
        at = max(event.time, start)
        if event.kind == "blackout":
            # The full pause is served even when it outlasts the chunk;
            # only the part already spent before `start` is discounted.
            extra = event.end - at if event.time < start else event.duration
        else:
            # Overlap is measured against the pre-stretch timeline: the
            # deterministic first-order model of "this window runs
            # `factor` times slower".
            extra = (min(event.end, finish) - at) * (event.factor - 1.0)
        if extra <= 0:
            continue
        adjusted[adjusted > at] += extra
        applied += 1
    return adjusted, applied


def degraded_boundaries(
    injector: FaultInjector,
    worker: int,
    start: float,
    boundaries: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Apply all of ``worker``'s degradations to a chunk's timeline.

    Iterates :func:`apply_degradations` to a fixpoint: every pause
    extends the finish time, which can expose later events; each pass
    re-applies the full (larger) event list to the *original* boundaries
    so no event is ever double-counted.
    """
    events = injector.degradations_until(worker, float(boundaries[-1]))
    known = len(events)
    while True:
        adjusted, applied = apply_degradations(start, boundaries, events)
        events = injector.degradations_until(worker, float(adjusted[-1]))
        if len(events) == known:
            return adjusted, applied
        known = len(events)
