"""Factoring-based DLS techniques: FAC and WF.

**FAC** (factoring; Hummel, Schonberg & Flynn 1992) schedules iterations in
*batches*: each batch hands out ``P`` equal chunks covering a fraction
``1/x`` of the remaining iterations. The practical rule ``x = 2`` (often
written FAC2) assigns half of the remaining work per batch and is the
variant used throughout the Banicescu et al. DLS literature the paper draws
on; a general ``x`` is supported.

**WF** (weighted factoring; Hummel et al. / Banicescu & Cariño) keeps FAC's
batch structure but splits each batch proportionally to fixed relative
processor weights (capacity x expected availability), so faster or more
available processors receive proportionally larger chunks. Weights are
normalized to sum to ``P`` and never change during execution — that is what
the adaptive variants (:mod:`repro.dls.adaptive`) relax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import SchedulingError
from .base import DLSTechnique, SchedulingSession, WorkerState

__all__ = ["Factoring", "ProbabilisticFactoring", "WeightedFactoring"]


class _BatchedSession(SchedulingSession):
    """Shared batch bookkeeping for factoring-style techniques.

    A batch covers ``ceil(remaining / x)`` iterations split into ``P``
    chunks. Chunk sizes inside the batch come from :meth:`_chunk_for`;
    when the batch's chunks are exhausted a new batch is formed from the
    iterations still unscheduled.
    """

    def __init__(
        self, n_iterations: int, workers: list[WorkerState], factor: float
    ) -> None:
        super().__init__(n_iterations, workers)
        self._factor = factor
        self._batch_quota = 0  # chunks left to hand out in the current batch
        self._batch_remaining = 0  # iterations left inside the current batch
        self._batch_size = 0  # iterations covered by the current batch

    def _start_batch(self) -> None:
        self._batch_size = math.ceil(self.remaining / self._factor)
        self._batch_remaining = self._batch_size
        self._batch_quota = self.n_workers
        self._on_batch_start()

    def _on_batch_start(self) -> None:
        """Hook: adaptive variants refresh weights at batch boundaries."""

    def _chunk_for(self, worker_id: int) -> int:
        """Size of this worker's chunk within the current batch."""
        raise NotImplementedError

    def _compute_chunk(self, worker_id: int) -> int:
        if self._batch_quota == 0 or self._batch_remaining == 0:
            self._start_batch()
        size = max(1, min(self._chunk_for(worker_id), self._batch_remaining))
        self._batch_quota -= 1
        self._batch_remaining -= size
        return size


class _FactoringSession(_BatchedSession):
    def _chunk_for(self, worker_id: int) -> int:
        return math.ceil(self._batch_size / self.n_workers)


@dataclass(frozen=True)
class _FactorSpec(DLSTechnique):
    """A batched technique's ``factor`` field and its check.

    FAC, WF and the AWF variants hand out ``1/factor`` of the remaining
    iterations per batch; subclasses add no fields.
    """

    factor: float = 2.0

    def __post_init__(self) -> None:
        if self.factor <= 1.0:
            raise SchedulingError(
                f"factoring ratio must exceed 1, got {self.factor}"
            )


class Factoring(_FactorSpec):
    """FAC: equal chunks of ``remaining / (x * P)`` per batch (default x=2)."""

    name = "FAC"
    adaptive = False

    def session(
        self, n_iterations: int, workers: list[WorkerState]
    ) -> SchedulingSession:
        return _FactoringSession(n_iterations, workers, self.factor)


class _WeightedSession(_BatchedSession):
    """Batch chunks proportional to per-worker weights summing to P."""

    _fixed_weights: dict[int, float] | None = None

    def _weights(self) -> dict[int, float]:
        """Current weights; WF uses the fixed relative powers.

        Relative powers do not change during a session, so the weights
        are computed on the first request and kept.
        """
        if self._fixed_weights is None:
            powers = {wid: w.relative_power for wid, w in self.workers.items()}
            total = sum(powers.values())
            if total <= 0:
                raise SchedulingError("worker relative powers must sum > 0")
            p = self.n_workers
            self._fixed_weights = {
                wid: p * pw / total for wid, pw in powers.items()
            }
        return self._fixed_weights

    def _chunk_for(self, worker_id: int) -> int:
        w = self._weights()[worker_id]
        return max(1, round(w * self._batch_size / self.n_workers))


class _ProbabilisticFactoringSession(_BatchedSession):
    """FAC with the original per-batch ratio formula.

    Hummel, Schonberg & Flynn (CACM 1992) derive the batch fraction from
    the iteration-time statistics: with ``b = (P * sigma) / (2 * sqrt(R) *
    mu)``, the batch covers ``R / x`` iterations where

        x = 1 + b^2 + b * sqrt(b^2 + 2)         (first batch: x0 = 2 + ...)

    High variance (large ``b``) makes batches smaller (more re-balancing
    opportunities); zero variance degenerates to a single batch split
    evenly. ``mu`` and ``sigma`` are estimated from runtime measurements
    once available, seeded by the configured a-priori coefficient of
    variation.
    """

    def __init__(
        self, n_iterations: int, workers: list[WorkerState], prior_cv: float
    ) -> None:
        # factor is recomputed per batch; base-class value is a placeholder.
        super().__init__(n_iterations, workers, factor=2.0)
        self._prior_cv = prior_cv
        self._first_batch = True

    def _current_cv(self) -> float:
        total_iters = sum(w.iterations_done for w in self.workers.values())
        if total_iters < 2:
            return self._prior_cv
        sum_t = sum(w.sum_t for w in self.workers.values())
        sum_t2 = sum(w.sum_t2 for w in self.workers.values())
        mean = sum_t / total_iters
        if mean <= 0:
            return self._prior_cv
        var = max(0.0, sum_t2 / total_iters - mean * mean)
        return math.sqrt(var) / mean

    def _start_batch(self) -> None:
        p = self.n_workers
        r = self.remaining
        cv = self._current_cv()
        if cv <= 0 or r <= 0:
            x = 2.0 if not self._first_batch else 1.0  # single even split
            x = max(x, 1.0 + 1e-9)
        else:
            b = (p * cv) / (2.0 * math.sqrt(r))
            if self._first_batch:
                x = 2.0 + b * b + b * math.sqrt(b * b + 4.0)
            else:
                x = 1.0 + b * b + b * math.sqrt(b * b + 2.0)
        self._first_batch = False
        self._factor = max(x, 1.0 + 1e-9)
        super()._start_batch()

    def _chunk_for(self, worker_id: int) -> int:
        return math.ceil(self._batch_size / self.n_workers)


@dataclass(frozen=True)
class ProbabilisticFactoring(DLSTechnique):
    """FAC-P: factoring with the original variance-driven batch ratio.

    ``prior_cv`` seeds the iteration-time coefficient of variation before
    any measurement exists (0 degenerates the first batch to an even
    static split, matching the theory).
    """

    prior_cv: float = 0.1
    name = "FAC-P"
    adaptive = True  # its ratio adapts to measured statistics

    def __post_init__(self) -> None:
        if self.prior_cv < 0:
            raise SchedulingError(
                f"prior_cv must be >= 0, got {self.prior_cv}"
            )

    def session(
        self, n_iterations: int, workers: list[WorkerState]
    ) -> SchedulingSession:
        return _ProbabilisticFactoringSession(
            n_iterations, workers, self.prior_cv
        )


class WeightedFactoring(_FactorSpec):
    """WF: factoring batches split by fixed relative processor weights."""

    name = "WF"
    adaptive = False

    def session(
        self, n_iterations: int, workers: list[WorkerState]
    ) -> SchedulingSession:
        return _WeightedSession(n_iterations, workers, self.factor)
