"""Abstract interface shared by all stage-I RA heuristics.

A heuristic consumes a :class:`~repro.ra.robustness.StageIEvaluator`
(which fixes the batch, system, and deadline) and returns the allocation it
considers best, together with its robustness (phi_1). Randomized heuristics
accept an RNG/seed for reproducibility. Heuristics draw their moves from one
:class:`SearchSpace`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from ..errors import AllocationError
from ..exec import ExecutionBackend
from ..obs import incr, obs_enabled, observe_value
from ..system import ProcessorGroup
from .allocation import (
    Allocation,
    candidate_assignments,
    others_can_complete,
    type_usage,
)
from .robustness import StageIEvaluator

__all__ = ["RAHeuristic", "RAResult", "SearchSpace"]


@dataclass(frozen=True)
class RAResult:
    """Outcome of a stage-I heuristic run."""

    allocation: Allocation
    robustness: float
    heuristic: str
    evaluations: int  # number of candidate allocations scored

    def __post_init__(self) -> None:
        if not 0.0 <= self.robustness <= 1.0 + 1e-12:
            raise AllocationError(
                f"robustness must be a probability, got {self.robustness}"
            )
        if obs_enabled():
            incr("ra.results")
            observe_value("ra.evaluations", float(self.evaluations))


class SearchSpace:
    """The stage-I search space of one evaluator's batch and system.

    Built once per search. ``candidates[name]`` lists the power-of-2,
    single-type groups application ``name`` could receive
    (:func:`~repro.ra.allocation.candidate_assignments`), in ``names``
    order; ``capacity`` maps each type name to its processor count.
    """

    def __init__(self, evaluator: StageIEvaluator) -> None:
        self.evaluator = evaluator
        batch, system = evaluator.batch, evaluator.system
        self.names: list[str] = list(batch.names)
        self.candidates: dict[str, list[ProcessorGroup]] = {
            name: candidate_assignments(name, batch, system) for name in self.names
        }
        self.capacity: dict[str, int] = {t.name: t.count for t in system.types}
        self._supported = {
            name: {g.ptype.name for g in groups}
            for name, groups in self.candidates.items()
        }

    def admits(
        self,
        group: ProcessorGroup,
        remaining: Mapping[str, int],
        pending: Iterable[str],
    ) -> bool:
        """Whether ``group`` may be taken with ``remaining`` processors free.

        The group must fit, and afterwards every ``pending`` application
        must still be able to get a processor (Hall's condition,
        :func:`~repro.ra.allocation.others_can_complete`). This look-ahead
        keeps incremental heuristics from starving later applications.
        """
        taken = group.ptype.name
        if group.size > remaining[taken]:
            return False
        return others_can_complete(
            {t: left - (group.size if t == taken else 0) for t, left in remaining.items()},
            [self._supported[name] for name in pending],
        )

    def fits(self, groups: Mapping[str, ProcessorGroup]) -> bool:
        """Whether an app -> group mapping respects every type's capacity."""
        return all(
            used <= self.capacity[t] for t, used in type_usage(groups.values()).items()
        )

    def result(
        self,
        heuristic: str,
        chosen: Mapping[str, ProcessorGroup],
        evaluations: int,
        robustness: float | None = None,
    ) -> RAResult:
        """The validated allocation ``chosen`` as ``heuristic``'s result.

        ``robustness`` defaults to the evaluator's phi_1 of the allocation.
        """
        evaluator = self.evaluator
        allocation = Allocation(chosen, system=evaluator.system, batch=evaluator.batch)
        if robustness is None:
            robustness = evaluator.robustness(allocation)
        return RAResult(
            allocation=allocation,
            robustness=robustness,
            heuristic=heuristic,
            evaluations=evaluations,
        )


class RAHeuristic(ABC):
    """Base class of stage-I resource-allocation heuristics."""

    #: Registry-friendly identifier; subclasses override.
    name: str = "abstract"

    @abstractmethod
    def allocate(
        self,
        evaluator: StageIEvaluator,
        *,
        backend: ExecutionBackend | None = None,
    ) -> RAResult:
        """Produce an allocation for the evaluator's (batch, system, Delta).

        ``backend`` optionally parallelizes bulk candidate scoring (see
        :func:`repro.exec.evaluate_allocations`); inherently sequential
        heuristics accept and ignore it. Results are identical on every
        backend.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
