"""Adaptive DLS techniques: the AWF family and AF.

**AWF** (adaptive weighted factoring; Banicescu, Velusamy & Devaprasad) and
its variants keep WF's weighted-batch structure but *learn* the weights from
runtime measurements instead of fixing them a priori. Following Cariño &
Banicescu ("Dynamic load balancing with adaptive factoring methods", J.
Supercomputing 2008), the variants differ in *when* weights are updated and
*what* time they measure:

================  ======================  =================================
variant           weights updated          measurement
================  ======================  =================================
AWF (timestep)    once per timestep        iteration execution time
AWF-B             at batch boundaries      iteration execution time
AWF-C             at every chunk           iteration execution time
AWF-D             at batch boundaries      total chunk time (incl. overhead)
AWF-E             at every chunk           total chunk time (incl. overhead)
================  ======================  =================================

The weight of worker ``i`` derives from its *weighted average performance*:
``wap_i = (sum_k k * t_ik) / (sum_k k)`` over its completed chunks ``k``
with mean per-iteration time ``t_ik`` (recent chunks weigh more); weights
are proportional to ``1 / wap_i`` normalized to sum to ``P``. Workers with
no completed chunk yet fall back to their a-priori relative power.

**AF** (adaptive factoring; Banicescu & Liu 2000) additionally estimates the
per-worker mean ``mu_i`` *and variance* ``sigma_i^2`` of iteration times and
sizes chunks as

    K_i = (D + 2 T - sqrt(D^2 + 4 D T)) / (2 mu_i)

with ``D = sum_j sigma_j^2 / mu_j`` and ``T = R / sum_j (1 / mu_j)`` for
``R`` remaining iterations — larger variance shrinks chunks (more frequent
re-balancing), smaller ``mu_i`` grows this worker's share. Until a worker
has measurements, a factoring-style pilot chunk bootstraps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from ..errors import SchedulingError
from .base import DLSTechnique, SchedulingSession, WorkerState
from .factoring import _FactorSpec, _WeightedSession

__all__ = [
    "AdaptiveWeightedFactoring",
    "AWFBatch",
    "AWFChunk",
    "AWFBatchChunkTime",
    "AWFChunkChunkTime",
    "AdaptiveFactoring",
]


class _AWFSession(_WeightedSession):
    """Weighted factoring with measured, periodically refreshed weights."""

    def __init__(
        self,
        n_iterations: int,
        workers: list[WorkerState],
        factor: float,
        *,
        refresh: str,
        use_chunk_time: bool,
    ) -> None:
        super().__init__(n_iterations, workers, factor)
        self._refresh = refresh
        self._use_chunk_time = use_chunk_time
        # Per-timestep weights freeze at session start: measured history
        # from previous timesteps, a-priori powers on the first.
        self._cached_weights = (
            self._measured_weights() if refresh == "timestep" else {}
        )

    # -- weight bookkeeping -------------------------------------------------

    def _measured_weights(self) -> dict[int, float]:
        waps = {
            wid: w.weighted_iter_time(self._use_chunk_time)
            for wid, w in self.workers.items()
        }
        measured = [v for v in waps.values() if v is not None]
        # Scale-free fallback: a worker with no data adopts the mean measured
        # pace, scaled by its a-priori relative power.
        default_pace = (sum(measured) / len(measured)) if measured else 1.0
        inv: dict[int, float] = {}
        for wid, w in self.workers.items():
            wap = waps[wid]
            if wap is None:
                wap = default_pace / max(w.relative_power, 1e-12)
            inv[wid] = 1.0 / max(wap, 1e-12)
        total = sum(inv.values())
        p = self.n_workers
        return {wid: p * v / total for wid, v in inv.items()}

    def _weights(self) -> dict[int, float]:
        if self._refresh == "chunk":
            return self._measured_weights()
        return self._cached_weights

    def _on_batch_start(self) -> None:
        if self._refresh == "batch":
            self._cached_weights = self._measured_weights()


class _AWFSpec(_FactorSpec):
    """The one AWF body; each variant sets the two class attributes."""

    adaptive = True
    #: When weights refresh: once per ``"timestep"`` (session), at every
    #: ``"batch"``, or at every ``"chunk"``.
    refresh: ClassVar[str] = "timestep"
    #: Measure total chunk time (incl. overhead) instead of iteration time.
    chunk_time: ClassVar[bool] = False

    def session(
        self, n_iterations: int, workers: list[WorkerState]
    ) -> SchedulingSession:
        return _AWFSession(
            n_iterations, workers, self.factor,
            refresh=self.refresh, use_chunk_time=self.chunk_time,
        )


class AdaptiveWeightedFactoring(_AWFSpec):
    """AWF (timestep variant).

    For a single loop execution (one timestep) the weights stay at their
    initial values, making AWF coincide with WF within a timestep — its
    adaptivity shows across repeated executions when the caller carries
    :class:`~repro.dls.base.WorkerState` objects (and hence their measured
    statistics) from one timestep's session to the next.
    """

    name = "AWF"


class AWFBatch(_AWFSpec):
    """AWF-B: weights refreshed at every batch from iteration times."""

    name = "AWF-B"
    refresh = "batch"


class AWFChunk(_AWFSpec):
    """AWF-C: weights refreshed at every chunk from iteration times."""

    name = "AWF-C"
    refresh = "chunk"


class AWFBatchChunkTime(_AWFSpec):
    """AWF-D: like AWF-B but weighting by total chunk time (incl. overhead)."""

    name = "AWF-D"
    refresh = "batch"
    chunk_time = True


class AWFChunkChunkTime(_AWFSpec):
    """AWF-E: like AWF-C but weighting by total chunk time (incl. overhead)."""

    name = "AWF-E"
    refresh = "chunk"
    chunk_time = True


# ------------------------------------------------------------------------- AF


class _AFSession(SchedulingSession):
    """Adaptive factoring: chunk sizes from measured (mu_i, sigma_i^2)."""

    def __init__(
        self, n_iterations: int, workers: list[WorkerState], pilot_factor: float
    ) -> None:
        super().__init__(n_iterations, workers)
        self._pilot_factor = pilot_factor

    def _compute_chunk(self, worker_id: int) -> int:
        w = self.workers[worker_id]
        mu = w.mean_iter_time
        var = w.var_iter_time
        if mu is None or var is None or mu <= 0:
            # Pilot chunk: factoring-style share until estimates exist.
            return math.ceil(
                self.remaining / (self._pilot_factor * self.n_workers)
            )
        # Estimates across all measured workers; unmeasured workers inherit
        # the requester's estimates (optimistic, quickly corrected). Each
        # worker's sums are read once, with the arithmetic of its
        # mean_iter_time and var_iter_time.
        mus: list[float] = []
        sigmas2: list[float] = []
        for other in self.workers.values():
            n = other.iterations_done
            if n == 0:
                mus.append(mu)
                sigmas2.append(var)
                continue
            om = other.sum_t / n
            mus.append(om if om > 0 else mu)
            sigmas2.append(
                max(0.0, other.sum_t2 / n - om * om) if n >= 2 else var
            )
        d = sum(s2 / m for s2, m in zip(sigmas2, mus))
        t = self.remaining / sum(1.0 / m for m in mus)
        chunk = (d + 2.0 * t - math.sqrt(d * d + 4.0 * d * t)) / (2.0 * mu)
        return max(1, math.floor(chunk))


@dataclass(frozen=True)
class AdaptiveFactoring(DLSTechnique):
    """AF: probabilistically sized chunks from runtime (mu, sigma) estimates."""

    pilot_factor: float = 8.0
    name = "AF"
    adaptive = True

    def __post_init__(self) -> None:
        if self.pilot_factor <= 1.0:
            raise SchedulingError(
                f"pilot factor must exceed 1, got {self.pilot_factor}"
            )

    def session(
        self, n_iterations: int, workers: list[WorkerState]
    ) -> SchedulingSession:
        return _AFSession(n_iterations, workers, self.pilot_factor)
