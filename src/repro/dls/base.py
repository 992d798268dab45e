"""Dynamic loop scheduling (DLS) technique interface.

A DLS technique decides, every time a processor becomes free, how many of
the remaining parallel loop iterations it should execute next (a *chunk*).
The simulator drives the technique through a per-execution
:class:`SchedulingSession`:

* :meth:`SchedulingSession.next_chunk` — called when a worker requests
  work; returns the chunk size (0 when no iterations remain).
* :meth:`SchedulingSession.record` — called when a chunk completes, with
  the measured per-iteration wall-clock times. Adaptive techniques (FAC-P,
  the AWF variants, AF) update their estimates from it. The simulator
  measures a session only when its technique's
  :attr:`DLSTechnique.adaptive` is true, so a technique whose chunk rule
  reads measurements must leave that flag at its default (true).

Techniques are immutable specification objects; all mutable state lives in
the session, so one technique instance can serve many concurrent simulated
applications ("a single DLS technique may be employed for several
applications as several distinct instances", paper §III-B).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..errors import SchedulingError
from ..obs import obs_enabled, observe_value

__all__ = ["WorkerState", "SchedulingSession", "DLSTechnique"]


@dataclass
class WorkerState:
    """Per-worker runtime statistics a session may consult.

    ``relative_power`` is the a-priori weight (capacity x expected
    availability) used by weighted techniques; measured quantities
    accumulate as chunks complete.
    """

    worker_id: int
    relative_power: float = 1.0
    iterations_done: int = 0
    chunks_done: int = 0
    # Sufficient statistics of per-iteration wall times (for AF):
    sum_t: float = 0.0
    sum_t2: float = 0.0
    # Sums over completed chunks k = 1, 2, ... of k times the chunk's mean
    # iteration time, without and with its scheduling overhead (for AWF):
    k_sum_t: float = 0.0
    k_sum_chunk_t: float = 0.0

    @property
    def mean_iter_time(self) -> float | None:
        """Measured mean wall time per iteration, or None before any data."""
        if self.iterations_done == 0:
            return None
        return self.sum_t / self.iterations_done

    @property
    def var_iter_time(self) -> float | None:
        """Measured variance of per-iteration wall times (biased), or None."""
        if self.iterations_done < 2:
            return None
        mean = self.sum_t / self.iterations_done
        return max(0.0, self.sum_t2 / self.iterations_done - mean * mean)

    def weighted_iter_time(self, chunk_time: bool = False) -> float | None:
        """AWF's weighted average performance, or None before any chunk.

        ``(sum_k k * t_k) / (sum_k k)`` over completed chunks ``k`` with
        mean per-iteration time ``t_k``, so recent chunks weigh more.
        With ``chunk_time``, ``t_k`` includes the chunk's scheduling
        overhead (AWF-D/E).
        """
        if self.chunks_done == 0:
            return None
        k_sum = self.k_sum_chunk_t if chunk_time else self.k_sum_t
        return k_sum / (self.chunks_done * (self.chunks_done + 1) // 2)


class SchedulingSession(ABC):
    """Mutable state of one loop execution under one DLS technique."""

    def __init__(self, n_iterations: int, workers: list[WorkerState]) -> None:
        if n_iterations < 0:
            raise SchedulingError(
                f"iteration count must be >= 0, got {n_iterations}"
            )
        if not workers:
            raise SchedulingError("a scheduling session needs >= 1 worker")
        self._n = n_iterations
        self._remaining = n_iterations
        self._workers = {w.worker_id: w for w in workers}
        if len(self._workers) != len(workers):
            raise SchedulingError("duplicate worker ids")
        self._scheduled = 0
        self._retired: set[int] = set()
        #: Metrics label (the technique name): when set, chunk sizes are
        #: additionally recorded in a ``dls.chunk_size.<label>`` histogram
        #: so per-technique distributions survive into run reports. The
        #: simulator stamps it after creating the session.
        self.label: str | None = None
        #: Whether the simulator reports completed chunks to :meth:`record`.
        #: The simulator stamps the technique's ``adaptive`` flag here; a
        #: session built any other way is measured.
        self.measured = True

    # ------------------------------------------------------------------ intro

    @property
    def n_iterations(self) -> int:
        return self._n

    @property
    def remaining(self) -> int:
        """Iterations not yet handed out."""
        return self._remaining

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    @property
    def workers(self) -> dict[int, WorkerState]:
        return self._workers

    # ------------------------------------------------------------- scheduling

    def next_chunk(self, worker_id: int) -> int:
        """Chunk size for the requesting worker; 0 when the loop is drained."""
        if worker_id not in self._workers:
            raise SchedulingError(f"unknown worker id {worker_id}")
        if self._remaining == 0:
            return 0
        size = int(self._compute_chunk(worker_id))
        if size < 1:
            size = 1
        size = min(size, self._remaining)
        self._remaining -= size
        self._scheduled += size
        if obs_enabled():
            observe_value("dls.chunk_size", float(size))
            if self.label is not None:
                observe_value(f"dls.chunk_size.{self.label}", float(size))
        return size

    def requeue(self, size: int) -> None:
        """Return ``size`` handed-out iterations to the undispatched pool.

        Fault-recovery hook: when a worker crashes mid-chunk, the
        simulator re-queues the lost iterations so a later
        :meth:`next_chunk` offers them to a surviving worker. Only
        affects the dispatch accounting — measurements already recorded
        for *completed* chunks are kept (the lost chunk never reported
        any). Techniques re-derive their chunk rule from ``remaining``
        on the next request, so no per-technique support is needed.
        """
        if size < 1:
            raise SchedulingError(f"requeue size must be >= 1, got {size}")
        if size > self._scheduled:
            raise SchedulingError(
                f"cannot requeue {size} iterations; only {self._scheduled} "
                "were ever handed out"
            )
        self._remaining += size
        self._scheduled -= size
        if obs_enabled():
            observe_value("dls.requeued", float(size))

    @property
    def retired(self) -> frozenset[int]:
        """Workers marked permanently gone by :meth:`retire`."""
        return frozenset(self._retired)

    def retire(self, worker_id: int) -> None:
        """Mark a worker as permanently gone (fault-recovery hook).

        Called by the simulator when a worker crashes. Most techniques
        derive every chunk from ``remaining``, so survivors naturally
        absorb the dead worker's share; techniques that *reserve*
        iterations per worker (STATIC) additionally release the
        reservation by overriding this and consulting :attr:`retired`.
        """
        if worker_id not in self._workers:
            raise SchedulingError(f"unknown worker id {worker_id}")
        self._retired.add(worker_id)

    @abstractmethod
    def _compute_chunk(self, worker_id: int) -> int:
        """Technique-specific chunk rule. Clamping is handled by the caller."""

    # ------------------------------------------------------------- measurement

    def record(
        self,
        worker_id: int,
        chunk_size: int,
        iteration_times: np.ndarray,
        *,
        chunk_time: float | None = None,
    ) -> None:
        """Report a completed chunk.

        ``iteration_times`` are the measured wall-clock times of the chunk's
        iterations on the executing worker; ``chunk_time`` additionally
        includes the scheduling overhead (used by AWF-D/E style weighting).
        """
        w = self._workers.get(worker_id)
        if w is None:
            raise SchedulingError(f"unknown worker id {worker_id}")
        if chunk_size < 1:
            raise SchedulingError(
                f"a completed chunk has >= 1 iteration, got {chunk_size}"
            )
        times = np.asarray(iteration_times, dtype=np.float64)
        if times.size != chunk_size:
            raise SchedulingError(
                f"got {times.size} iteration times for a chunk of {chunk_size}"
            )
        w.iterations_done += chunk_size
        w.chunks_done += 1
        total = np.add.reduce(times).item()
        w.sum_t += total
        w.sum_t2 += np.add.reduce(times * times).item()
        k = w.chunks_done
        w.k_sum_t += k * (total / chunk_size)
        w.k_sum_chunk_t += k * (
            (chunk_time if chunk_time is not None else total) / chunk_size
        )


class DLSTechnique(ABC):
    """Immutable DLS technique specification; a factory of sessions."""

    #: Registry identifier, e.g. ``"FAC"``.
    name: ClassVar[str] = "abstract"
    #: Whether the technique's chunk rule reads runtime measurements. The
    #: simulator feeds :meth:`SchedulingSession.record` only when it is
    #: true, so the default is true: a technique that never sets it keeps
    #: being measured. A fixed-rule technique declares ``False``.
    adaptive: ClassVar[bool] = True

    @abstractmethod
    def session(
        self, n_iterations: int, workers: list[WorkerState]
    ) -> SchedulingSession:
        """Create the mutable state for one loop execution."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
