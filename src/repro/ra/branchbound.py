"""Branch-and-bound exact resource allocation.

Finds the same optimum as :class:`~repro.ra.exhaustive.ExhaustiveAllocator`
while pruning the search tree with an admissible bound: the joint
probability of a partial assignment times the product of each unassigned
application's *best possible* probability (ignoring capacity) upper-bounds
every completion of that partial assignment. Branches whose bound cannot
beat the incumbent are cut.

On the paper instance this evaluates ~3x fewer allocations than exhaustive
enumeration; the gap widens quickly with instance size, extending the reach
of provably-optimal stage-I mapping before the scalable heuristics must
take over (ablation benchmark ``abl-ra``).
"""

from __future__ import annotations

from ..errors import InfeasibleAllocationError
from ..exec import ExecutionBackend
from ..system import ProcessorGroup
from .base import RAHeuristic, RAResult, SearchSpace
from .greedy import GreedyRobustAllocator
from .robustness import StageIEvaluator

__all__ = ["BranchAndBoundAllocator"]


class BranchAndBoundAllocator(RAHeuristic):
    """Optimal stage-I mapping by bounded depth-first search.

    Applications are branched hardest-first (smallest best-case
    probability) and, within an application, candidates best-first — both
    orderings tighten the incumbent early. The greedy heuristic seeds the
    incumbent so pruning starts immediately.

    ``max_nodes`` bounds the search; exceeding it raises
    ``InfeasibleAllocationError`` (use a scalable heuristic instead).
    """

    name = "branch-and-bound"

    def __init__(self, *, max_nodes: int = 5_000_000) -> None:
        self._max_nodes = max_nodes

    def allocate(
        self,
        evaluator: StageIEvaluator,
        *,
        backend: ExecutionBackend | None = None,
    ) -> RAResult:
        # The pruned DFS is sequential by nature (the incumbent steers
        # the pruning); ``backend`` only reaches the greedy incumbent
        # seeding below.
        space = SearchSpace(evaluator)
        names = space.names
        candidates: dict[str, list[tuple[float, ProcessorGroup]]] = {}
        evaluations = 0
        for name, groups in space.candidates.items():
            candidates[name] = sorted(
                ((evaluator.app_deadline_prob(name, g), g) for g in groups),
                key=lambda pg: (-pg[0], pg[1].size),
            )
            evaluations += len(groups)
        best_possible = {name: candidates[name][0][0] for name in names}
        # Hardest first: constrained applications prune earlier.
        order = sorted(names, key=lambda n: best_possible[n])

        # Incumbent: the greedy solution (a valid lower bound).
        seed = GreedyRobustAllocator().allocate(evaluator, backend=backend)
        evaluations += seed.evaluations
        incumbent = {n: seed.allocation.group(n) for n in names}
        incumbent_value = seed.robustness

        # Suffix products of best-possible probabilities for the bound.
        suffix = [1.0] * (len(order) + 1)
        for i in range(len(order) - 1, -1, -1):
            suffix[i] = suffix[i + 1] * best_possible[order[i]]

        remaining = dict(space.capacity)
        assignment: dict[str, ProcessorGroup] = {}
        nodes = 0

        def dfs(i: int, value: float) -> None:
            nonlocal incumbent, incumbent_value, nodes
            nodes += 1
            if nodes > self._max_nodes:
                raise InfeasibleAllocationError(
                    f"branch-and-bound exceeded {self._max_nodes} nodes; "
                    "use a scalable heuristic for instances of this size"
                )
            if i == len(order):
                if value > incumbent_value:
                    incumbent = dict(assignment)
                    incumbent_value = value
                return
            name = order[i]
            limit = space.limits(remaining, order[i + 1 :])
            for prob, group in candidates[name]:
                # Bound: even perfect later assignments cannot beat the
                # incumbent through this branch.
                if value * prob * suffix[i + 1] <= incumbent_value:
                    break  # candidates are sorted best-first
                if group.size > limit[group.ptype.name]:
                    continue
                assignment[name] = group
                remaining[group.ptype.name] -= group.size
                dfs(i + 1, value * prob)
                remaining[group.ptype.name] += group.size
                del assignment[name]

        dfs(0, 1.0)
        return space.result(self.name, incumbent, evaluations + nodes, incumbent_value)
