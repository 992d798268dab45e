"""Non-adaptive DLS techniques: STATIC, SS, FSC, mFSC, GSS, TSS, TFSS.

These techniques fix their chunk rule before execution and never consult
runtime measurements:

* **STATIC** — straightforward parallelization: the iteration space is cut
  into one equal chunk per processor, assigned "in a single step" (paper
  §IV, the naive RAS policy).
* **SS** — self-scheduling: chunks of one iteration; perfect balance, maximal
  scheduling overhead.
* **FSC** — fixed-size chunking (Kruskal & Weiss): a constant chunk size,
  either given or derived from the optimal-chunk formula.
* **GSS** — guided self-scheduling (Polychronopoulos & Kuck): chunk =
  ceil(remaining / P).
* **TSS** — trapezoid self-scheduling (Tzen & Ni): chunk sizes decrease
  linearly from ``first`` to ``last``.

STATIC is modeled as a degenerate DLS technique so every paper scenario
(naive and robust RAS alike) runs through the same simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from ..errors import SchedulingError
from .base import DLSTechnique, SchedulingSession, WorkerState

__all__ = [
    "Static",
    "SelfScheduling",
    "FixedSizeChunking",
    "ModifiedFSC",
    "Guided",
    "Trapezoid",
    "TrapezoidFactoring",
]


# --------------------------------------------------------------------- STATIC


class _StaticSession(SchedulingSession):
    """One equal chunk per worker; later requests get nothing.

    The remainder iterations of a non-divisible split go to the earliest
    requesters (ceil for the first ``N mod P`` chunks, floor afterwards).
    """

    def __init__(self, n_iterations: int, workers: list[WorkerState]) -> None:
        super().__init__(n_iterations, workers)
        self._served: set[int] = set()

    def _compute_chunk(self, worker_id: int) -> int:
        self._served.add(worker_id)
        # Retired (crashed) workers get no share: the space is split
        # among the survivors, so their orphaned iterations (clamped to
        # ``remaining`` by the caller) are absorbed on re-request.
        p = max(1, self.n_workers - len(self.retired))
        base, extra = divmod(self.n_iterations, p)
        # The k-th distinct requester (0-based) gets base+1 while k < extra.
        k = len(self._served) - 1
        return base + 1 if k < extra else base

    def next_chunk(self, worker_id: int) -> int:  # noqa: D102 - see base
        # STATIC must return 0 for a second request from the same worker even
        # though iterations may remain (they belong to other workers).
        if worker_id in self._served:
            return 0
        return super().next_chunk(worker_id)

    def requeue(self, size: int) -> None:  # noqa: D102 - see base
        super().requeue(size)
        # Fault recovery: the returned iterations belonged to a crashed
        # worker, so the one-chunk-per-worker gate must re-open — the
        # next requester (likely one that already ran its own share)
        # picks up the orphaned share, clamped to what remains.
        self._served.clear()

    def retire(self, worker_id: int) -> None:  # noqa: D102 - see base
        super().retire(worker_id)
        # A dead worker's reserved share returns to the pool even when
        # it was never dispatched (idle crash): re-open the gate so a
        # survivor's next request picks up the leftover iterations.
        self._served.clear()


@dataclass(frozen=True)
class Static(DLSTechnique):
    """Straightforward parallelization (equal shares, single step)."""

    name = "STATIC"
    adaptive = False

    def session(
        self, n_iterations: int, workers: list[WorkerState]
    ) -> SchedulingSession:
        return _StaticSession(n_iterations, workers)


# ------------------------------------------------------------------------ SS


class _ConstantChunkSession(SchedulingSession):
    def __init__(
        self, n_iterations: int, workers: list[WorkerState], chunk: int
    ) -> None:
        super().__init__(n_iterations, workers)
        self._chunk = chunk

    def _compute_chunk(self, worker_id: int) -> int:
        return self._chunk


@dataclass(frozen=True)
class SelfScheduling(DLSTechnique):
    """SS: one iteration per request."""

    name = "SS"
    adaptive = False

    def session(
        self, n_iterations: int, workers: list[WorkerState]
    ) -> SchedulingSession:
        return _ConstantChunkSession(n_iterations, workers, 1)


# ----------------------------------------------------------------------- FSC


@dataclass(frozen=True)
class FixedSizeChunking(DLSTechnique):
    """FSC: constant chunk size.

    If ``chunk_size`` is None, the Kruskal–Weiss optimal size
    ``(sqrt(2) N h / (sigma P sqrt(log P)))^(2/3)`` is computed from the
    scheduling overhead ``h`` and iteration-time standard deviation
    ``sigma`` (both in the same time units); degenerate inputs fall back to
    ``ceil(N / (4 P))``.
    """

    chunk_size: int | None = None
    overhead: float = 0.0
    sigma: float = 0.0
    name = "FSC"
    adaptive = False

    def __post_init__(self) -> None:
        if self.chunk_size is not None and self.chunk_size < 1:
            raise SchedulingError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )

    def _resolved_chunk(self, n: int, p: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        if self.overhead > 0 and self.sigma > 0 and p > 1:
            k = (
                (math.sqrt(2.0) * n * self.overhead)
                / (self.sigma * p * math.sqrt(math.log(p)))
            ) ** (2.0 / 3.0)
            return max(1, round(k))
        return max(1, math.ceil(n / (4 * p)))

    def session(
        self, n_iterations: int, workers: list[WorkerState]
    ) -> SchedulingSession:
        return _ConstantChunkSession(
            n_iterations, workers, self._resolved_chunk(n_iterations, len(workers))
        )


# ---------------------------------------------------------------------- mFSC


@dataclass(frozen=True)
class ModifiedFSC(DLSTechnique):
    """mFSC: fixed-size chunks matched to factoring's chunk count.

    Modified fixed-size chunking (as used in the LB4OMP technique library):
    the constant chunk size is chosen so the total number of chunks equals
    what FAC2 would dispatch — ``k = ceil(N / (P * ceil(log2(N/P) + 1)))``
    — retaining FSC's regularity without its overhead-formula inputs.
    """

    name = "mFSC"
    adaptive = False

    def session(
        self, n_iterations: int, workers: list[WorkerState]
    ) -> SchedulingSession:
        p = len(workers)
        batches = max(1.0, math.ceil(math.log2(max(n_iterations / p, 1.0)) + 1))
        chunk = max(1, math.ceil(n_iterations / (p * batches)))
        return _ConstantChunkSession(n_iterations, workers, chunk)


# ----------------------------------------------------------------------- GSS


class _GuidedSession(SchedulingSession):
    def _compute_chunk(self, worker_id: int) -> int:
        return math.ceil(self.remaining / self.n_workers)


@dataclass(frozen=True)
class Guided(DLSTechnique):
    """GSS: chunk = ceil(remaining / P)."""

    name = "GSS"
    adaptive = False

    def session(
        self, n_iterations: int, workers: list[WorkerState]
    ) -> SchedulingSession:
        return _GuidedSession(n_iterations, workers)


# ----------------------------------------------------------------------- TSS


class _TrapezoidSession(SchedulingSession):
    def __init__(
        self, n_iterations: int, workers: list[WorkerState], first: int, last: int
    ) -> None:
        super().__init__(n_iterations, workers)
        self._next_size = float(first)
        self._last = last
        n_chunks = max(1, math.ceil(2 * n_iterations / (first + last)))
        self._delta = (first - last) / max(1, n_chunks - 1)

    def _compute_chunk(self, worker_id: int) -> int:
        size = max(self._last, round(self._next_size))
        self._next_size = max(float(self._last), self._next_size - self._delta)
        return size


class _TrapezoidFactoringSession(_TrapezoidSession):
    """TFSS: factoring-style batches of equal chunks with TSS's decay.

    Trapezoid factoring self-scheduling (Chronopoulos et al.): like FAC,
    chunks are equal within a batch of ``P``; the per-batch size follows
    TSS's linear decrease instead of FAC's geometric halving.
    """

    def __init__(
        self, n_iterations: int, workers: list[WorkerState], first: int, last: int
    ) -> None:
        super().__init__(n_iterations, workers, first, last)
        self._batch_quota = 0
        self._batch_chunk = first

    def _compute_chunk(self, worker_id: int) -> int:
        if self._batch_quota == 0:
            self._batch_chunk = max(self._last, round(self._next_size))
            self._next_size = max(
                float(self._last),
                self._next_size - self._delta * self.n_workers,
            )
            self._batch_quota = self.n_workers
        self._batch_quota -= 1
        return self._batch_chunk


@dataclass(frozen=True)
class _TrapezoidSpec(DLSTechnique):
    """TSS/TFSS fields: chunk sizes fall linearly from ``first`` to ``last``.

    ``first`` defaults to ``ceil(N / 2P)`` (at least ``last``).
    """

    first: int | None = None
    last: int = 1
    adaptive = False
    _session_type: ClassVar[type[_TrapezoidSession]] = _TrapezoidSession

    def __post_init__(self) -> None:
        if self.first is not None and self.first < 1:
            raise SchedulingError(f"first chunk must be >= 1, got {self.first}")
        if self.last < 1:
            raise SchedulingError(f"last chunk must be >= 1, got {self.last}")

    def session(
        self, n_iterations: int, workers: list[WorkerState]
    ) -> SchedulingSession:
        first = self.first
        if first is None:
            first = max(self.last, math.ceil(n_iterations / (2 * len(workers))))
        return self._session_type(n_iterations, workers, first, self.last)


class TrapezoidFactoring(_TrapezoidSpec):
    """TFSS: TSS's linear decrease applied per batch of ``P`` equal chunks."""

    name = "TFSS"
    _session_type = _TrapezoidFactoringSession


class Trapezoid(_TrapezoidSpec):
    """TSS with the standard defaults ``first = ceil(N / 2P)``, ``last = 1``."""

    name = "TSS"
