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
from .allocation import Allocation, candidate_assignments, type_usage
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
        # Type subsets are bitmasks over the sorted type names; each
        # application's supported types are one such mask.
        self._types = sorted(self.capacity)
        bit = {t: 1 << k for k, t in enumerate(self._types)}
        self._needs = {
            name: sum(bit[t] for t in {g.ptype.name for g in groups})
            for name, groups in self.candidates.items()
        }

    def limits(
        self, remaining: Mapping[str, int], pending: Iterable[str]
    ) -> dict[str, int]:
        """The largest group each type may give now, 0 if none.

        With ``remaining`` processors free, a group of ``k`` processors of
        type ``t`` may be taken iff ``k <= limits(...)[t]``: it fits, and
        afterwards every ``pending`` application can still get a processor
        of a type it supports. This look-ahead keeps incremental heuristics
        from starving later applications; compute it once per search step.

        By Hall's theorem such an assignment exists iff every set ``S`` of
        types has ``slack[S] = capacity[S] - demand[S] >= 0``, where
        ``demand[S]`` counts the pending applications whose types all lie
        in ``S``. Taking ``k`` of ``t`` lowers the slack of the sets holding
        ``t`` by ``k``, so the limit is their least slack (the singleton
        ``{t}`` bounds it by ``remaining[t]``), or 0 if a set without ``t``
        already runs short. ``O(T 2^T)`` integer work for ``T`` types.
        """
        types = self._types
        full = 1 << len(types)
        demand = [0] * full
        for name in pending:
            demand[self._needs[name]] += 1
        for k in range(len(types)):  # sum over subsets
            bit = 1 << k
            for s in range(full):
                if s & bit:
                    demand[s] += demand[s ^ bit]
        slack = [0] * full
        capacity = [0] * full
        for s in range(1, full):
            low = s & -s
            capacity[s] = capacity[s ^ low] + remaining[types[low.bit_length() - 1]]
            slack[s] = capacity[s] - demand[s]
        out: dict[str, int] = {}
        for k, t in enumerate(types):
            bit = 1 << k
            least_with = min(slack[s] for s in range(full) if s & bit)
            short_without = any(slack[s] < 0 for s in range(full) if not s & bit)
            out[t] = 0 if short_without or least_with < 1 else least_with
        return out

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
