"""Genetic-algorithm resource allocation.

Population-based search over the power-of-2 allocation space — the style of
scalable stochastic RA heuristic used by Shestak et al. [4], which the paper
cites as the natural stage-I engine for larger problems.

Chromosome: one gene per application, each gene an index into that
application's candidate-group list. Infeasible chromosomes (oversubscribed
types) are *repaired* by shrinking the largest groups of the oversubscribed
type until feasible; should those moves cycle, the Hall look-ahead settles
the chromosome app by app. So crossover and mutation always produce valid
allocations. Fitness is stage-I robustness phi_1; selection is tournament;
elitism preserves the best individual.
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from ..errors import InfeasibleAllocationError
from ..exec import ExecutionBackend, evaluate_allocations
from ..rng import ensure_rng
from ..system import ProcessorGroup
from .base import RAHeuristic, RAResult, SearchSpace
from .robustness import StageIEvaluator

__all__ = ["GeneticAllocator"]


class GeneticAllocator(RAHeuristic):
    """GA over allocations.

    Parameters
    ----------
    population, generations:
        Population size and number of generations.
    crossover_rate, mutation_rate:
        Uniform-crossover probability per pair and per-gene mutation
        probability.
    tournament:
        Tournament size for parent selection.
    rng:
        Seed or generator for reproducibility.
    """

    name = "genetic"

    def __init__(
        self,
        *,
        population: int = 40,
        generations: int = 60,
        crossover_rate: float = 0.9,
        mutation_rate: float = 0.1,
        tournament: int = 3,
        rng=None,
    ) -> None:
        if population < 2:
            raise ValueError("population must be >= 2")
        if generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0 <= crossover_rate <= 1 or not 0 <= mutation_rate <= 1:
            raise ValueError("rates must be probabilities")
        if tournament < 1:
            raise ValueError("tournament must be >= 1")
        self._population = population
        self._generations = generations
        self._crossover_rate = crossover_rate
        self._mutation_rate = mutation_rate
        self._tournament = tournament
        self._rng = rng

    # ------------------------------------------------------------------ main

    def allocate(
        self,
        evaluator: StageIEvaluator,
        *,
        backend: ExecutionBackend | None = None,
    ) -> RAResult:
        gen = ensure_rng(self._rng)
        space = SearchSpace(evaluator)
        names, candidates, capacity = space.names, space.candidates, space.capacity
        evaluations = 0
        # Per application (in ``names`` order) and gene: the group's type
        # name and size, the gene of the next smaller group of that type
        # (None if there is none) and the genes on other types.
        types = [[g.ptype.name for g in candidates[n]] for n in names]
        sizes = [[g.size for g in candidates[n]] for n in names]
        shrink: list[list[int | None]] = []
        others: list[list[list[int]]] = []
        for ts, ss in zip(types, sizes):
            genes = range(len(ts))
            shrink.append([
                max(
                    (k for k in genes if ts[k] == ts[g] and ss[k] < ss[g]),
                    key=ss.__getitem__,
                    default=None,
                )
                for g in genes
            ])
            others.append([[k for k in genes if ts[k] != ts[g]] for g in genes])

        def decode(chrom: np.ndarray) -> dict[str, ProcessorGroup]:
            return {
                name: candidates[name][g] for name, g in zip(names, chrom.tolist())
            }

        def repair(chrom: np.ndarray) -> np.ndarray:
            """Shrink largest groups of oversubscribed types until feasible."""
            genes = chrom.tolist()
            used = dict.fromkeys(capacity, 0)
            # The applications on each type, in application order.
            members: dict[str, list[int]] = {t: [] for t in capacity}
            for i, (ts, ss, g) in enumerate(zip(types, sizes, genes)):
                used[ts[g]] += ss[g]
                members[ts[g]].append(i)
            for _ in range(64):  # bounded; moves between types may cycle
                over = [t for t, n in used.items() if n > capacity[t]]
                if not over:
                    return np.array(genes, dtype=chrom.dtype)
                # The type of the first application, in application order,
                # on an oversubscribed type; the first of its largest groups
                # that can shrink or move to another type is the victim.
                tname = min(over, key=lambda t: members[t][0])
                victim, largest = -1, 0
                for i in members[tname]:
                    g = genes[i]
                    if sizes[i][g] > largest and (
                        shrink[i][g] is not None or others[i][g]
                    ):
                        victim, largest = i, sizes[i][g]
                if victim < 0:
                    raise InfeasibleAllocationError(
                        f"cannot repair allocation: every application on "
                        f"{tname!r} has one processor and no other type"
                    )
                g = genes[victim]
                new = shrink[victim][g]
                if new is None:
                    # Cannot shrink: move the victim to a random other type.
                    other = others[victim][g]
                    new = other[int(gen.integers(len(other)))]
                    members[tname].remove(victim)
                    insort(members[types[victim][new]], victim)
                genes[victim] = new
                used[tname] -= largest
                used[types[victim][new]] += sizes[victim][new]
            return settle(np.array(genes, dtype=chrom.dtype))

        def settle(chrom: np.ndarray) -> np.ndarray:
            """Make ``chrom`` feasible app by app under the look-ahead.

            Each gene is kept if it is admissible given the apps before it,
            else replaced by the largest admissible group; the look-ahead
            finds one for every app whenever any feasible allocation exists.
            """
            remaining = dict(capacity)
            for i, g in enumerate(chrom.tolist()):
                limit = space.limits(remaining, names[i + 1:])
                ts, ss = types[i], sizes[i]
                if ss[g] > limit[ts[g]]:
                    fits = [k for k, s in enumerate(ss) if s <= limit[ts[k]]]
                    if not fits:
                        raise InfeasibleAllocationError("no feasible allocation exists")
                    g = max(fits, key=ss.__getitem__)
                    chrom[i] = g
                remaining[ts[g]] -= ss[g]
            return chrom

        def population_fitness(chroms: list[np.ndarray]) -> list[float]:
            # One fan-out per generation through the shared stage-I
            # evaluation path (memoized serially, chunked on a parallel
            # backend).
            return evaluate_allocations(evaluator, [decode(c) for c in chroms], backend)

        # Initial population: random chromosomes, repaired.
        pop = [
            repair(
                np.array(
                    [gen.integers(len(candidates[n])) for n in names], dtype=int
                )
            )
            for _ in range(self._population)
        ]
        fit = population_fitness(pop)
        evaluations += len(pop)

        for _ in range(self._generations):
            elite_idx = fit.index(max(fit))
            new_pop = [pop[elite_idx].copy()]
            while len(new_pop) < self._population:
                pa = self._tournament_pick(pop, fit, gen)
                pb = self._tournament_pick(pop, fit, gen)
                child = pa.copy()
                if gen.random() < self._crossover_rate:
                    mask = gen.random(len(names)) < 0.5
                    child[mask] = pb[mask]
                for k, name in enumerate(names):
                    if gen.random() < self._mutation_rate:
                        child[k] = gen.integers(len(candidates[name]))
                new_pop.append(repair(child))
            pop = new_pop
            fit = population_fitness(pop)
            evaluations += len(pop)

        best_idx = fit.index(max(fit))
        return space.result(
            self.name, decode(pop[best_idx]), evaluations, float(fit[best_idx])
        )

    def _tournament_pick(
        self, pop: list[np.ndarray], fit: list[float], gen: np.random.Generator
    ) -> np.ndarray:
        contenders = gen.integers(len(pop), size=self._tournament).tolist()
        # max keeps the first of tied contenders, as np.argmax does
        return pop[max(contenders, key=fit.__getitem__)]
