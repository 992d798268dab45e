"""Stochastic Min-Min / Max-Min / Sufferage resource allocation.

Classical batch-mode mapping heuristics (Ibarra & Kim 1977; widely used in
the heterogeneous-computing literature the paper builds on, e.g. Shestak et
al. [4]) adapted to the stochastic setting: the "completion time" of an
assignment is replaced by its *deadline probability* under the execution-time
and availability PMFs.

Each round scores, for every unassigned application, its best feasible
group:

* **Min-Min** (here: *Max-Max* in probability space) — assign the
  application whose best probability is highest first: lock in safe bets,
  then spend leftover resources on hard applications.
* **Max-Min** (*Min-Max*) — assign the application whose best probability is
  lowest first: rescue the hardest application while resources remain.
* **Sufferage** — assign the application that would suffer the largest
  probability drop if it lost its best group to someone else.

All three are ``O(N^2 * C)`` evaluations — polynomial, unlike the
exhaustive search.
"""

from __future__ import annotations

from ..errors import InfeasibleAllocationError
from ..exec import ExecutionBackend
from ..system import ProcessorGroup
from .base import RAHeuristic, RAResult, SearchSpace
from .robustness import StageIEvaluator

__all__ = ["MinMinAllocator", "MaxMinAllocator", "SufferageAllocator"]

#: Resource frugality: among groups whose deadline probability is within
#: this of the application's best, the smallest group is preferred. Without
#: it the probability objective always weakly prefers more processors
#: (Eq. 2 is monotone in ``n``), and early assignments would starve later
#: applications.
FRUGALITY_EPS = 1e-4


class _RoundRobinBase(RAHeuristic):
    """Round-based assignment: pick (app, group) per a selection rule."""

    def _select(
        self, scored: dict[str, list[tuple[float, ProcessorGroup]]]
    ) -> str:
        """Return the name of the application to assign this round.

        ``scored[name]`` is that application's feasible (probability, group)
        list sorted best-first.
        """
        raise NotImplementedError

    def allocate(
        self,
        evaluator: StageIEvaluator,
        *,
        backend: ExecutionBackend | None = None,
    ) -> RAResult:
        # Round-based assignment is sequential (each round's feasibility
        # depends on the previous picks); per-assignment scores come from
        # the evaluator's memoization, so ``backend`` is accepted only
        # for interface uniformity.
        space = SearchSpace(evaluator)
        remaining = dict(space.capacity)
        unassigned = list(space.names)
        chosen: dict[str, ProcessorGroup] = {}
        evaluations = 0

        while unassigned:
            scored: dict[str, list[tuple[float, ProcessorGroup]]] = {}
            for name in unassigned:
                # A candidate is admissible only if, after taking it, every
                # other unassigned application can still get a processor.
                limit = space.limits(
                    remaining, [other for other in unassigned if other != name]
                )
                feasible = [
                    g for g in space.candidates[name] if g.size <= limit[g.ptype.name]
                ]
                if not feasible:
                    raise InfeasibleAllocationError(
                        f"no processors left for application {name!r}"
                    )
                entries = sorted(
                    (
                        (evaluator.app_deadline_prob(name, g), g)
                        for g in feasible
                    ),
                    key=lambda pg: (pg[0], -pg[1].size),
                    reverse=True,
                )
                evaluations += len(feasible)
                # Frugal best: smallest group within eps of the best prob.
                best_prob = entries[0][0]
                near = [pg for pg in entries if pg[0] >= best_prob - FRUGALITY_EPS]
                frugal_best = min(near, key=lambda pg: pg[1].size)
                rest = [pg for pg in entries if pg[1] is not frugal_best[1]]
                scored[name] = [frugal_best] + rest
            pick = self._select(scored)
            prob, group = scored[pick][0]
            chosen[pick] = group
            remaining[group.ptype.name] -= group.size
            unassigned.remove(pick)

        return space.result(self.name, chosen, evaluations)


class MinMinAllocator(_RoundRobinBase):
    """Assign the application with the *highest* best probability first."""

    name = "min-min"

    def _select(self, scored):
        return max(scored, key=lambda name: scored[name][0][0])


class MaxMinAllocator(_RoundRobinBase):
    """Assign the application with the *lowest* best probability first."""

    name = "max-min"

    def _select(self, scored):
        return min(scored, key=lambda name: scored[name][0][0])


class SufferageAllocator(_RoundRobinBase):
    """Assign the application with the largest best-vs-second-best gap."""

    name = "sufferage"

    def _select(self, scored):
        def sufferage(name: str) -> float:
            entries = scored[name]
            if len(entries) == 1:
                return float("inf")  # only one option: assign before it's gone
            return entries[0][0] - entries[1][0]

        return max(scored, key=sufferage)
