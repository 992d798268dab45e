"""Simulated-annealing resource allocation.

A local-search heuristic over the feasible power-of-2 allocation space, for
instances too large for exhaustive enumeration (paper §V future work on
"robust and scalable resource allocation heuristics").

State: a complete feasible allocation. Moves: (a) change one application's
group size up/down one power of two, (b) move one application to a different
processor type, (c) swap the assignments of two applications (when the swap
stays feasible). The objective is stage-I robustness phi_1; infeasible
neighbors are discarded rather than penalized, so every visited state is a
valid allocation.
"""

from __future__ import annotations

import math

import numpy as np

from ..exec import ExecutionBackend
from ..rng import ensure_rng
from ..system import ProcessorGroup
from .base import RAHeuristic, RAResult, SearchSpace
from .greedy import GreedyRobustAllocator
from .robustness import StageIEvaluator

__all__ = ["AnnealingAllocator"]


class AnnealingAllocator(RAHeuristic):
    """Simulated annealing over feasible allocations.

    Parameters
    ----------
    iterations:
        Total annealing steps.
    initial_temperature, cooling:
        Geometric cooling schedule ``T_k = T_0 * cooling^k``; the objective
        is a probability in [0, 1], so the default temperature is small.
    rng:
        Seed or generator for reproducibility.
    restarts:
        Independent annealing runs; the best final state wins.
    """

    name = "simulated-annealing"

    def __init__(
        self,
        *,
        iterations: int = 2_000,
        initial_temperature: float = 0.05,
        cooling: float = 0.995,
        restarts: int = 2,
        rng=None,
    ) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 < cooling < 1:
            raise ValueError("cooling must be in (0, 1)")
        if not initial_temperature > 0:
            raise ValueError(
                f"initial_temperature must be positive, got {initial_temperature}"
            )
        if restarts < 1:
            raise ValueError("restarts must be >= 1")
        self._iterations = iterations
        self._t0 = initial_temperature
        self._cooling = cooling
        self._restarts = restarts
        self._rng = rng

    # ------------------------------------------------------------------ core

    def allocate(
        self,
        evaluator: StageIEvaluator,
        *,
        backend: ExecutionBackend | None = None,
    ) -> RAResult:
        # The annealing chain is inherently sequential (each step depends
        # on the previous state), so ``backend`` only reaches the greedy
        # seeding; scoring still shares the evaluator's memoization.
        gen = ensure_rng(self._rng)
        space = SearchSpace(evaluator)
        evaluations = 0

        # Start from the greedy solution: annealing then only has to improve.
        start = GreedyRobustAllocator().allocate(evaluator, backend=backend)
        evaluations += start.evaluations
        best_state = {name: start.allocation.group(name) for name in space.names}
        best_rob = start.robustness

        for _ in range(self._restarts):
            state = dict(best_state)
            state_rob = evaluator.joint_probability(state)
            evaluations += 1
            temperature = self._t0
            for _ in range(self._iterations):
                neighbor = self._neighbor(state, space, gen)
                if neighbor is None:
                    temperature *= self._cooling
                    continue
                rob = evaluator.joint_probability(neighbor)
                evaluations += 1
                delta = rob - state_rob
                if delta >= 0 or gen.random() < math.exp(delta / temperature):
                    state, state_rob = neighbor, rob
                    if state_rob > best_rob:
                        best_state, best_rob = dict(state), state_rob
                temperature *= self._cooling

        return space.result(self.name, best_state, evaluations, best_rob)

    # -------------------------------------------------------------- internals

    @staticmethod
    def _neighbor(
        state: dict[str, ProcessorGroup],
        space: SearchSpace,
        gen: np.random.Generator,
    ) -> dict[str, ProcessorGroup] | None:
        """One random feasible move, or None if the draw was infeasible."""
        names, candidates = space.names, space.candidates
        move = gen.integers(3)
        new = dict(state)
        if move == 0:  # resize one application
            name = names[int(gen.integers(len(names)))]
            current = state[name]
            same_type = [
                g
                for g in candidates[name]
                if g.ptype.name == current.ptype.name and g.size != current.size
            ]
            if not same_type:
                return None
            new[name] = same_type[int(gen.integers(len(same_type)))]
        elif move == 1:  # retype one application
            name = names[int(gen.integers(len(names)))]
            current = state[name]
            other_type = [
                g for g in candidates[name] if g.ptype.name != current.ptype.name
            ]
            if not other_type:
                return None
            new[name] = other_type[int(gen.integers(len(other_type)))]
        else:  # swap two applications' groups
            if len(names) < 2:
                return None
            i, j = gen.choice(len(names), size=2, replace=False)
            a, b = names[int(i)], names[int(j)]
            ga, gb = state[a], state[b]
            # The swapped group must be a valid candidate for its new owner.
            if not any(
                g.ptype.name == gb.ptype.name and g.size == gb.size
                for g in candidates[a]
            ):
                return None
            if not any(
                g.ptype.name == ga.ptype.name and g.size == ga.size
                for g in candidates[b]
            ):
                return None
            new[a], new[b] = gb, ga
        if not space.fits(new):
            return None
        return new
