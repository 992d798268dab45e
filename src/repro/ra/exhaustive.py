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
from .allocation import Allocation, enumerate_allocations
from .base import RAHeuristic, RAResult
from .robustness import StageIEvaluator

__all__ = ["ExhaustiveAllocator", "MAX_EVALUATIONS", "best_enumerated"]

#: Most allocations one enumeration may score before it gives up.
MAX_EVALUATIONS = 2_000_000


def best_enumerated(
    evaluator: StageIEvaluator,
    allocations: Iterable[Allocation],
    backend: ExecutionBackend | None,
    limit: int,
) -> tuple[Allocation, float, int] | None:
    """The best of ``allocations`` as ``(allocation, phi_1, scored)``.

    Best means highest phi_1, then fewest processors, then earliest in
    enumeration order. The enumeration is scored in bounded windows, each
    fanned out over ``backend`` by
    :func:`~repro.exec.evaluate_allocations` and reduced in order, so
    every backend picks the same allocation. Returns ``None`` for an empty
    enumeration; raises ``InfeasibleAllocationError`` once it yields more
    than ``limit`` allocations.
    """
    window = max(256, 16 * (backend.workers if backend is not None else 1))
    allocations = iter(allocations)
    best: Allocation | None = None
    best_key = (0.0, 0)
    scored = 0
    while chunk := list(islice(allocations, window)):
        scored += len(chunk)
        if scored > limit:
            raise InfeasibleAllocationError(
                f"enumeration exceeded {limit} allocations; use a scalable "
                "heuristic (greedy, min-min, annealing, genetic) for "
                "instances of this size"
            )
        if contracts_enabled():
            for allocation in chunk:
                check_allocation_feasible(allocation, evaluator.system, evaluator.batch)
        scores = evaluate_allocations(
            evaluator, [dict(a.items()) for a in chunk], backend
        )
        for allocation, rob in zip(chunk, scores):
            key = (rob, -allocation.total_processors())
            if best is None or key > best_key:
                best, best_key = allocation, key
    if best is None:
        return None
    return best, best_key[0], scored


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
        found = best_enumerated(
            evaluator,
            enumerate_allocations(evaluator.batch, evaluator.system),
            backend,
            self._max_evaluations,
        )
        if found is None:
            raise InfeasibleAllocationError("no feasible allocation exists")
        allocation, robustness, evaluations = found
        return RAResult(
            allocation=allocation,
            robustness=robustness,
            heuristic=self.name,
            evaluations=evaluations,
        )
