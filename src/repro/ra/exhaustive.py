"""Exhaustive optimal resource allocation (paper §IV, robust IM).

"In the robust IM case, all possible resource allocations are compared and
the one with the highest probability of all applications completing before
the system deadline is chosen." The paper notes this is only feasible for
the small demonstrative example — which is exactly the role it plays here:
it is the ground truth against which the scalable heuristics
(:mod:`repro.ra.greedy`, :mod:`repro.ra.minmin`, :mod:`repro.ra.annealing`,
:mod:`repro.ra.genetic`) are validated.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import islice

from ..contracts import check_allocation_feasible, contracts_enabled
from ..errors import InfeasibleAllocationError
from ..exec import ExecutionBackend, evaluate_allocations
from .allocation import Allocation, count_allocations, enumerate_allocations
from .base import RAHeuristic, RAResult
from .robustness import StageIEvaluator

__all__ = ["ExhaustiveAllocator", "MAX_EVALUATIONS", "best_enumerated"]

#: Most allocations one enumeration may score before it gives up.
MAX_EVALUATIONS = 2_000_000


def best_enumerated(
    evaluator: StageIEvaluator,
    backend: ExecutionBackend | None,
    limit: int,
    *,
    sizes_filter: Iterable[int] | None = None,
) -> tuple[Allocation, float, int] | None:
    """The best allocation of an enumeration as ``(allocation, phi_1, scored)``.

    The enumeration is :func:`~repro.ra.allocation.enumerate_allocations`
    under ``sizes_filter``. Best means highest phi_1, then fewest
    processors, then earliest in enumeration order. The allocations are
    counted first: more than ``limit`` raises ``InfeasibleAllocationError``
    before any is scored, and none returns ``None``. Then they are scored
    in bounded windows, each fanned out over ``backend`` by
    :func:`~repro.exec.evaluate_allocations` and reduced in order, so
    every backend picks the same allocation.
    """
    batch, system = evaluator.batch, evaluator.system
    total = count_allocations(batch, system, limit, sizes_filter=sizes_filter)
    if total > limit:
        raise InfeasibleAllocationError(
            f"enumeration exceeded {limit} allocations; use a scalable "
            "heuristic (greedy, min-min, annealing, genetic) for "
            "instances of this size"
        )
    if total == 0:
        return None
    window = max(256, 16 * (backend.workers if backend is not None else 1))
    allocations = enumerate_allocations(batch, system, sizes_filter=sizes_filter)
    best: Allocation | None = None
    best_key = (0.0, 0)
    while chunk := list(islice(allocations, window)):
        if contracts_enabled():
            for allocation in chunk:
                check_allocation_feasible(allocation, system, batch)
        scores = evaluate_allocations(
            evaluator, [dict(a.items()) for a in chunk], backend
        )
        for allocation, rob in zip(chunk, scores):
            key = (rob, -allocation.total_processors())
            if best is None or key > best_key:
                best, best_key = allocation, key
    assert best is not None
    return best, best_key[0], total


class ExhaustiveAllocator(RAHeuristic):
    """Robust IM by full enumeration of the feasible allocation space.

    Ties on robustness are broken toward the smaller total processor usage
    (frees resources at equal robustness), then toward the allocation
    enumerated first, for determinism.

    ``max_evaluations`` guards against accidentally enumerating an
    exponential space: exceeding it raises ``InfeasibleAllocationError``
    advising a scalable heuristic.
    """

    name = "exhaustive-optimal"

    def __init__(self, *, max_evaluations: int = MAX_EVALUATIONS) -> None:
        self._max_evaluations = max_evaluations

    def allocate(
        self,
        evaluator: StageIEvaluator,
        *,
        backend: ExecutionBackend | None = None,
    ) -> RAResult:
        found = best_enumerated(evaluator, backend, self._max_evaluations)
        if found is None:
            raise InfeasibleAllocationError("no feasible allocation exists")
        allocation, robustness, evaluations = found
        return RAResult(
            allocation=allocation,
            robustness=robustness,
            heuristic=self.name,
            evaluations=evaluations,
        )
