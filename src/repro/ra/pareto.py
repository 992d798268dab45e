"""Multi-objective view of the stage-I allocation space.

phi_1 is the paper's single stage-I objective, but allocations trade it
against other quantities an operator cares about: the expected system
makespan (throughput: when does the *next* batch start?) and the number of
processors consumed (what is left for other work?). This module enumerates
the feasible space and extracts the Pareto-efficient allocations under

* maximize ``robustness``  (phi_1),
* minimize ``expected_makespan``  (E of the makespan PMF),
* minimize ``processors``  (total allocated).

The paper example's front is small (the robust IM corner dominates most of
it); on larger instances the front exposes the real trade — e.g. giving up
2 points of phi_1 can halve the expected makespan.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AllocationError
from .allocation import Allocation, count_allocations, enumerate_allocations
from .robustness import StageIEvaluator

__all__ = ["ParetoPoint", "pareto_front"]


@dataclass(frozen=True)
class ParetoPoint:
    """One Pareto-efficient allocation and its objective values."""

    allocation: Allocation
    robustness: float  # maximize
    expected_makespan: float  # minimize
    processors: int  # minimize

    def dominates(self, other: "ParetoPoint", *, tol: float = 1e-12) -> bool:
        """Weak domination with at least one strict improvement."""
        at_least = (
            self.robustness >= other.robustness - tol
            and self.expected_makespan <= other.expected_makespan + tol
            and self.processors <= other.processors
        )
        strictly = (
            self.robustness > other.robustness + tol
            or self.expected_makespan < other.expected_makespan - tol
            or self.processors < other.processors
        )
        return at_least and strictly


def pareto_front(
    evaluator: StageIEvaluator, *, max_evaluations: int = 200_000
) -> list[ParetoPoint]:
    """Pareto-efficient allocations of the (enumerable) feasible space.

    Sorted by decreasing robustness. Intended for instances where
    enumeration is tractable (the same regime as the exhaustive allocator);
    more than ``max_evaluations`` allocations raise, before any is scored,
    rather than silently truncating.
    """
    batch, system = evaluator.batch, evaluator.system
    if count_allocations(batch, system, max_evaluations) > max_evaluations:
        raise AllocationError(
            f"Pareto enumeration exceeded {max_evaluations} allocations; "
            "restrict the instance or raise max_evaluations"
        )
    points: list[ParetoPoint] = []
    for allocation in enumerate_allocations(batch, system):
        robustness = evaluator.robustness(allocation)
        expected = max(
            evaluator.app_expected_time(app, group)
            for app, group in allocation.items()
        )
        candidate = ParetoPoint(
            allocation=allocation,
            robustness=robustness,
            expected_makespan=expected,
            processors=allocation.total_processors(),
        )
        # Insert-if-not-dominated; drop points the candidate dominates.
        if any(p.dominates(candidate) for p in points):
            continue
        points = [p for p in points if not candidate.dominates(p)]
        points.append(candidate)
    points.sort(key=lambda p: (-p.robustness, p.expected_makespan, p.processors))
    return points
