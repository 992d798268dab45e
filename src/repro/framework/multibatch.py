"""Multi-batch CDSF execution (paper §V: "a larger batch or multiple batches").

The paper's single-batch model already defines the semantics of batch
succession: the system makespan "Psi represents the time when the next batch
of applications will require resources" (§III-A). This module runs a stream
of applications through consecutive CDSF rounds:

1. applications accumulate in an :class:`~repro.apps.ApplicationQueue`;
2. when a batch is formed (fixed size, or everything waiting), stage I maps
   it onto the full system and stage II executes it;
3. the next batch starts at ``max(previous finish, latest member arrival)``.

Results carry per-application waiting and response times in addition to the
per-batch makespans, enabling throughput-style studies the single-batch
paper defers.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..apps import Application, Batch
from ..dls import DLSTechnique, make_technique
from ..errors import ModelError
from ..exec import SeedTree
from ..ra import RAHeuristic, StageIEvaluator
from ..rng import DEFAULT_SEED
from ..sim import LoopSimConfig, simulate_batch
from ..system import HeterogeneousSystem

__all__ = ["BatchOutcome", "MultiBatchResult", "MultiBatchScheduler"]


@dataclass(frozen=True)
class BatchOutcome:
    """One CDSF round over one batch."""

    index: int
    batch: Batch
    start_time: float
    finish_time: float  # start + batch makespan
    robustness: float  # phi_1 of the round's allocation
    app_finish_times: dict[str, float]  # absolute times

    @property
    def makespan(self) -> float:
        return self.finish_time - self.start_time


@dataclass(frozen=True)
class MultiBatchResult:
    """The full stream outcome."""

    outcomes: tuple[BatchOutcome, ...]
    arrival_times: dict[str, float]

    @property
    def total_makespan(self) -> float:
        """Completion time of the last batch (stream starts at 0)."""
        return max(o.finish_time for o in self.outcomes)

    def waiting_time(self, app_name: str) -> float:
        """Arrival -> batch start delay of one application."""
        for outcome in self.outcomes:
            if app_name in outcome.batch:
                return outcome.start_time - self.arrival_times[app_name]
        raise ModelError(f"application {app_name!r} not in any batch")

    def response_time(self, app_name: str) -> float:
        """Arrival -> completion of one application."""
        for outcome in self.outcomes:
            if app_name in outcome.batch:
                return (
                    outcome.app_finish_times[app_name]
                    - self.arrival_times[app_name]
                )
        raise ModelError(f"application {app_name!r} not in any batch")

    def mean_response_time(self) -> float:
        return sum(
            self.response_time(name) for name in self.arrival_times
        ) / len(self.arrival_times)


class MultiBatchScheduler:
    """Drives consecutive CDSF rounds over an application stream.

    Parameters
    ----------
    system:
        The heterogeneous system (fully available to every batch).
    heuristic:
        Stage-I RA heuristic applied per batch.
    technique:
        Stage-II DLS technique (name or instance) applied to every
        application, as distinct sessions.
    deadline:
        Per-batch relative deadline used by the stage-I robustness
        objective (the paper's ``Delta``; measured from batch start).
    """

    def __init__(
        self,
        system: HeterogeneousSystem,
        heuristic: RAHeuristic,
        technique: str | DLSTechnique,
        deadline: float,
        *,
        sim: LoopSimConfig | None = None,
        seed: int | None = None,
    ) -> None:
        if not deadline > 0:
            raise ModelError(f"deadline must be positive, got {deadline}")
        self._system = system
        self._heuristic = heuristic
        self._technique = (
            make_technique(technique) if isinstance(technique, str) else technique
        )
        self._deadline = deadline
        self._sim = sim or LoopSimConfig()
        self._tree = SeedTree(seed if seed is not None else DEFAULT_SEED)

    def run(
        self,
        arrivals: Sequence[tuple[float, Application]],
        *,
        batch_size: int,
    ) -> MultiBatchResult:
        """Run the stream; ``arrivals`` are time-ordered ``(time, app)``.

        Batches are formed FIFO with exactly ``batch_size`` members; a final
        partial batch collects the remainder.
        """
        if batch_size < 1:
            raise ModelError(f"batch size must be >= 1, got {batch_size}")
        if not arrivals:
            raise ModelError("need at least one arriving application")
        times = [t for t, _ in arrivals]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ModelError("arrivals must be time-ordered")
        arrival_times = {app.name: t for t, app in arrivals}
        if len(arrival_times) != len(arrivals):
            raise ModelError("application names must be unique across the stream")

        outcomes: list[BatchOutcome] = []
        free_at = 0.0
        pending = list(arrivals)
        index = 0
        while pending:
            members = pending[:batch_size]
            pending = pending[batch_size:]
            batch = Batch(app for _, app in members)
            start = max(free_at, max(t for t, _ in members))

            evaluator = StageIEvaluator(batch, self._system, self._deadline)
            stage_i = self._heuristic.allocate(evaluator)
            run = simulate_batch(
                batch,
                stage_i.allocation,
                self._technique,
                deadline=self._deadline,
                seed=self._tree.child("batch", index).seed(),
                config=self._sim,
            )
            finish = start + run.makespan
            outcomes.append(
                BatchOutcome(
                    index=index,
                    batch=batch,
                    start_time=start,
                    finish_time=finish,
                    robustness=stage_i.robustness,
                    app_finish_times={
                        name: start + result.makespan
                        for name, result in run.app_results.items()
                    },
                )
            )
            free_at = finish
            index += 1
        return MultiBatchResult(
            outcomes=tuple(outcomes), arrival_times=arrival_times
        )
