"""Greedy scalable RA heuristics (the paper's §V future-work direction).

Two single-pass greedy policies over the power-of-2 assignment space:

* :class:`GreedyRobustAllocator` — applications are ordered hardest-first
  (lowest best-case deadline probability, ties in batch order: every
  application sure to meet the deadline somewhere scores exactly 1.0);
  each in turn takes the feasible group maximizing its own deadline
  probability, with ties broken toward the fewest processors so later
  applications keep options. This is the stochastic analogue of a
  "minimum completion time" list scheduler.
* :class:`GreedyPackingAllocator` — minimizes expected completion time
  instead of deadline probability; useful as a makespan-oriented baseline
  (and noticeably less robust, which the ablation benchmark shows).

Complexity is ``O(N * C)`` evaluations for ``N`` applications and ``C``
candidate groups, versus the exhaustive ``O(C^N)``.
"""

from __future__ import annotations

from ..errors import InfeasibleAllocationError
from ..exec import ExecutionBackend
from ..system import ProcessorGroup
from .base import RAHeuristic, RAResult, SearchSpace
from .robustness import StageIEvaluator

__all__ = ["GreedyRobustAllocator", "GreedyPackingAllocator"]


class _GreedyBase(RAHeuristic):
    """Shared machinery: order apps, assign best feasible group one by one."""

    # Subclasses define the per-assignment score (higher is better).
    def _score(
        self, evaluator: StageIEvaluator, app_name: str, group: ProcessorGroup
    ) -> float:
        raise NotImplementedError

    def allocate(
        self,
        evaluator: StageIEvaluator,
        *,
        backend: ExecutionBackend | None = None,
    ) -> RAResult:
        # Greedy is a sequential chain of per-assignment scores, all
        # served by the evaluator's memoization; ``backend`` is accepted
        # for interface uniformity but has nothing to parallelize.
        space = SearchSpace(evaluator)
        type_names = evaluator.system.type_names
        evaluations = 0

        # Difficulty = best achievable score if the app had the whole system;
        # hardest (lowest) first so constrained apps pick before resources
        # are consumed.
        difficulty: dict[str, float] = {}
        for name, groups in space.candidates.items():
            difficulty[name] = max(self._score(evaluator, name, g) for g in groups)
            evaluations += len(groups)
        order = sorted(space.names, key=lambda n: difficulty[n])

        remaining = dict(space.capacity)
        chosen: dict[str, ProcessorGroup] = {}
        for i, name in enumerate(order):
            limit = space.limits(remaining, order[i + 1 :])
            feasible = [
                g for g in space.candidates[name] if g.size <= limit[g.ptype.name]
            ]
            if not feasible:
                raise InfeasibleAllocationError(
                    f"greedy ran out of processors for application {name!r}"
                )
            # Highest score; tie -> fewest processors; tie -> type order.
            best_group = max(
                feasible,
                key=lambda g: (
                    self._score(evaluator, name, g),
                    -g.size,
                    -type_names.index(g.ptype.name),
                ),
            )
            evaluations += len(feasible)
            chosen[name] = best_group
            remaining[best_group.ptype.name] -= best_group.size

        return space.result(self.name, chosen, evaluations)


class GreedyRobustAllocator(_GreedyBase):
    """Hardest-first greedy maximizing per-application deadline probability."""

    name = "greedy-robust"

    def _score(self, evaluator, app_name, group):
        return evaluator.app_deadline_prob(app_name, group)


class GreedyPackingAllocator(_GreedyBase):
    """Hardest-first greedy minimizing expected completion time."""

    name = "greedy-packing"

    def _score(self, evaluator, app_name, group):
        return -evaluator.app_expected_time(app_name, group)
