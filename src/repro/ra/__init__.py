"""Stage I — robust resource allocation (initial mapping).

Allocation data structures, the phi_1 robustness evaluator, and the RA
heuristic family: naive equal-share, exhaustive and MILP optimal, greedy,
Min-Min / Max-Min / Sufferage, simulated annealing, and genetic.
"""

from .allocation import (
    Allocation,
    candidate_assignments,
    enumerate_allocations,
    powers_of_two_upto,
)
from .robustness import StageIEvaluator, AllocationReport, completion_pmf
from .base import RAHeuristic, RAResult, SearchSpace
from .naive import EqualShareAllocator
from .exhaustive import ExhaustiveAllocator
from .milp import MILPAllocator
from .greedy import GreedyRobustAllocator, GreedyPackingAllocator
from .minmin import MinMinAllocator, MaxMinAllocator, SufferageAllocator
from .annealing import AnnealingAllocator
from .genetic import GeneticAllocator
from .pareto import ParetoPoint, pareto_front

#: All heuristics by registry name.
HEURISTICS: dict[str, type[RAHeuristic]] = {
    cls.name: cls
    for cls in (
        EqualShareAllocator,
        ExhaustiveAllocator,
        MILPAllocator,
        GreedyRobustAllocator,
        GreedyPackingAllocator,
        MinMinAllocator,
        MaxMinAllocator,
        SufferageAllocator,
        AnnealingAllocator,
        GeneticAllocator,
    )
}

__all__ = [
    "Allocation",
    "candidate_assignments",
    "enumerate_allocations",
    "powers_of_two_upto",
    "StageIEvaluator",
    "AllocationReport",
    "completion_pmf",
    "RAHeuristic",
    "RAResult",
    "SearchSpace",
    "EqualShareAllocator",
    "ExhaustiveAllocator",
    "MILPAllocator",
    "GreedyRobustAllocator",
    "GreedyPackingAllocator",
    "MinMinAllocator",
    "MaxMinAllocator",
    "SufferageAllocator",
    "AnnealingAllocator",
    "GeneticAllocator",
    "ParetoPoint",
    "pareto_front",
    "HEURISTICS",
]
