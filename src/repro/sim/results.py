"""Result records produced by the stage-II simulator."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "finish_time_cv",
    "ChunkRecord",
    "MasterFailover",
    "AppRunResult",
    "BatchRunResult",
    "ReplicatedAppStats",
    "ReplicatedBatchStats",
]


def finish_time_cv(finish_times: Iterable[float]) -> float:
    """Coefficient of variation (sigma/mu) of worker finish times.

    0 means perfect balance; the classic DLS quality metric. The one
    implementation behind :meth:`AppRunResult.load_imbalance` and
    :meth:`repro.obs.AppTimeline.load_imbalance`.
    """
    finishes = np.array(list(finish_times))
    if finishes.size <= 1:
        return 0.0
    mean = finishes.mean()
    return float(finishes.std() / mean) if mean > 0 else 0.0


@dataclass(frozen=True)
class ChunkRecord:
    """One dispatched chunk: who ran which iterations, and when."""

    worker_id: int
    size: int
    request_time: float
    start_time: float  # request + scheduling overhead
    finish_time: float

    @property
    def elapsed(self) -> float:
        """Wall-clock compute time of the chunk (excluding overhead)."""
        return self.finish_time - self.start_time


@dataclass(frozen=True)
class MasterFailover:
    """One coordinator hand-off after the master processor crashed."""

    time: float
    old_master: int
    new_master: int


@dataclass(frozen=True)
class AppRunResult:
    """Outcome of simulating one application on its processor group.

    The fault fields record what :mod:`repro.faults` injected during the
    run; they stay zero/empty for fault-free simulations.
    """

    app_name: str
    technique: str
    group_type: str
    group_size: int
    serial_time: float  # wall-clock time of the serial iterations
    makespan: float  # total wall-clock completion time of the application
    chunks: tuple[ChunkRecord, ...]
    worker_finish_times: dict[int, float]
    iterations_executed: int
    master_id: int | None = None  # worker that ran the serial phase
    crashed_workers: tuple[int, ...] = ()
    rescheduled_iterations: int = 0
    degradations_applied: int = 0
    master_failovers: tuple[MasterFailover, ...] = ()

    @property
    def parallel_time(self) -> float:
        """Wall-clock duration of the parallel loop phase."""
        return self.makespan - self.serial_time

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    def iterations_per_worker(self) -> dict[int, int]:
        out: dict[int, int] = {w: 0 for w in self.worker_finish_times}
        for c in self.chunks:
            out[c.worker_id] += c.size
        return out

    def load_imbalance(self) -> float:
        """Coefficient of variation of worker finish times in the loop phase."""
        return finish_time_cv(self.worker_finish_times.values())


@dataclass(frozen=True)
class BatchRunResult:
    """Outcome of one batch execution: all applications, one replication."""

    app_results: dict[str, AppRunResult]
    deadline: float | None = None

    @property
    def makespan(self) -> float:
        """System makespan Psi: the latest application completion."""
        return max(r.makespan for r in self.app_results.values())

    def meets_deadline(self) -> bool:
        if self.deadline is None:
            raise ValueError("no deadline recorded for this batch run")
        return self.makespan <= self.deadline

    def violating_apps(self) -> list[str]:
        """Applications whose completion exceeds the deadline."""
        if self.deadline is None:
            raise ValueError("no deadline recorded for this batch run")
        return [
            name
            for name, r in self.app_results.items()
            if r.makespan > self.deadline
        ]


@dataclass(frozen=True)
class ReplicatedAppStats:
    """Aggregate of many replications of one application simulation."""

    app_name: str
    technique: str
    makespans: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.makespans))

    @property
    def std(self) -> float:
        return float(np.std(self.makespans))

    @property
    def minimum(self) -> float:
        return float(np.min(self.makespans))

    @property
    def maximum(self) -> float:
        return float(np.max(self.makespans))

    def prob_leq(self, deadline: float) -> float:
        """Empirical probability of finishing within ``deadline``."""
        arr = np.asarray(self.makespans)
        return float((arr <= deadline).mean())

    def mean_ci(self, confidence: float = 0.95) -> tuple[float, float]:
        """Student-t confidence interval for the mean makespan.

        A single replication yields a degenerate interval at the value.
        """
        from scipy import stats as _stats

        arr = np.asarray(self.makespans, dtype=np.float64)
        n = arr.size
        mean = float(arr.mean())
        if n < 2:
            return (mean, mean)
        sem = float(arr.std(ddof=1)) / np.sqrt(n)
        if sem <= 0.0:
            return (mean, mean)
        t = float(_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
        return (mean - t * sem, mean + t * sem)


@dataclass(frozen=True)
class ReplicatedBatchStats:
    """Aggregate of many replications of a whole-batch simulation."""

    per_app: dict[str, ReplicatedAppStats]
    system_makespans: tuple[float, ...]
    deadline: float | None = None

    @property
    def mean_makespan(self) -> float:
        return float(np.mean(self.system_makespans))

    def deadline_probability(self) -> float:
        """Empirical Pr(Psi <= Delta) across replications."""
        if self.deadline is None:
            raise ValueError("no deadline recorded")
        arr = np.asarray(self.system_makespans)
        return float((arr <= self.deadline).mean())
