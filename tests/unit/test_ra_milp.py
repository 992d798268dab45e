"""Unit tests of the exact MILP allocator (repro.ra.milp)."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps import (
    Application,
    Batch,
    ExecutionTimeModel,
    WorkloadSpec,
    normal_exectime_model,
    random_instance,
)
from repro.contracts import check_allocation_feasible
from repro.errors import AllocationError, InfeasibleAllocationError
from repro.paper import paper_batch, paper_system
from repro.pmf import PMF
from repro.ra import (
    AnnealingAllocator,
    EqualShareAllocator,
    ExhaustiveAllocator,
    GeneticAllocator,
    GreedyRobustAllocator,
    MILPAllocator,
    MinMinAllocator,
    StageIEvaluator,
    SufferageAllocator,
    enumerate_allocations,
)
from repro.ra.milp import LOG_ZERO
from repro.system import HeterogeneousSystem, ProcessorType


@pytest.fixture
def evaluator(paper_like_batch, paper_like_system):
    return StageIEvaluator(paper_like_batch, paper_like_system, 3250.0)


def table(result):
    return sorted(result.allocation.as_table())


def assert_exact(batch, system, deadline):
    """The MILP's phi_1 equals exhaustive's to 1e-12 relative, feasibly."""
    found = MILPAllocator().allocate(StageIEvaluator(batch, system, deadline))
    optimum = ExhaustiveAllocator().allocate(StageIEvaluator(batch, system, deadline))
    check_allocation_feasible(found.allocation, system, batch)
    assert found.robustness == pytest.approx(optimum.robustness, rel=1e-12, abs=0.0)
    return found, optimum


class TestOptimality:
    def test_matches_exhaustive_on_paper(self, evaluator):
        milp = MILPAllocator().allocate(evaluator)
        ex = ExhaustiveAllocator().allocate(evaluator)
        assert milp.robustness == ex.robustness
        assert table(milp) == table(ex)

    def test_heuristic_name(self, evaluator):
        assert MILPAllocator().allocate(evaluator).heuristic == "milp-optimal"

    def test_evaluations_count_the_probabilities_read(self, evaluator):
        # 3 applications x 7 candidate groups (1, 2, 4 of type1; 1, 2, 4,
        # 8 of type2).
        before = evaluator.cache_info()["prob_misses"]
        result = MILPAllocator().allocate(evaluator)
        assert result.evaluations == 21
        assert evaluator.cache_info()["prob_misses"] - before == 21

    def test_tie_returns_one_of_exhaustives_optima(self):
        # At Delta = 4000 app1 meets the deadline as surely on 1 type1
        # processor as on 2: two allocations share the optimum. Exhaustive
        # breaks the tie toward fewer processors; the MILP may not.
        batch, system = paper_batch(), paper_system("case1")
        evaluator = StageIEvaluator(batch, system, 4000.0)
        result = MILPAllocator().allocate(evaluator)
        optimum = ExhaustiveAllocator().allocate(evaluator).robustness
        tied = [
            sorted(a.as_table())
            for a in enumerate_allocations(batch, system)
            if evaluator.robustness(a) == optimum
        ]
        assert len(tied) == 2
        assert table(result) in tied
        assert result.robustness == optimum


class TestExactness:
    @pytest.mark.parametrize("deadline", [2500.0, 3250.0, 4000.0])
    @pytest.mark.parametrize("case", ["case1", "case2", "case3", "case4"])
    def test_paper_instance(self, case, deadline):
        assert_exact(paper_batch(), paper_system(case), deadline)

    @pytest.mark.parametrize("deadline", [2000.0, 2800.0, 3250.0, 5500.0])
    @pytest.mark.parametrize("seed", [1, 3, 11, 14, 19, 24])
    def test_seeded_instances(self, seed, deadline):
        # 3-6 applications on 2-4 types of 4-8 processors (3x2, 3x4, 4x2,
        # 4x3, 5x3 and 6x2 here), at seeds where enumeration stays cheap.
        gen = np.random.default_rng(seed)
        spec = WorkloadSpec(
            n_apps=int(gen.integers(3, 7)),
            n_types=int(gen.integers(2, 5)),
            procs_per_type=(4, 8),
            cv=0.3,
        )
        system, batch = random_instance(spec, seed)
        assert_exact(batch, system, deadline)

    @pytest.mark.parametrize("seed", [3, 7, 11, 21])
    def test_restricted_support_instances(self, seed):
        # Applications run on different non-empty subsets of three types.
        gen = np.random.default_rng(seed)
        system = HeterogeneousSystem(
            ProcessorType(
                f"t{j}",
                int(gen.integers(1, 9)),
                availability=PMF(np.sort(gen.uniform(0.3, 1.0, 2)), [0.5, 0.5]),
            )
            for j in range(3)
        )
        apps = []
        for i in range(4):
            support = int(gen.integers(1, 8))
            means = {
                f"t{j}": float(gen.uniform(500.0, 4000.0))
                for j in range(3)
                if support >> j & 1
            }
            apps.append(
                Application(
                    f"a{i}",
                    int(gen.integers(0, 100)),
                    int(gen.integers(50, 2000)),
                    normal_exectime_model(means, cv=0.2),
                )
            )
        assert_exact(Batch(apps), system, 2500.0)


class TestEdgeCases:
    def test_tiny_probability_beats_zero(self):
        # log(1e-300) = -690.8 must still beat a zero probability, so
        # LOG_ZERO has to lie below the log of every positive double.
        assert LOG_ZERO < math.log(5e-324)
        system = HeterogeneousSystem([ProcessorType("x", 1), ProcessorType("y", 1)])
        model = ExecutionTimeModel(
            {
                "x": PMF([100.0, 1e6], [1e-300, 1.0], normalize=True),
                "y": PMF([1e6], [1.0]),
            }
        )
        batch = Batch([Application("a", 0, 100, model)])
        result = MILPAllocator().allocate(StageIEvaluator(batch, system, 1000.0))
        assert table(result) == [("a", "x", 1)]
        assert result.robustness == 1e-300

    def test_all_allocations_zero_still_feasible(self):
        # No application can finish by Delta = 1: every candidate's
        # probability is 0, every allocation's phi_1 is 0.
        batch, system = paper_batch(), paper_system("case1")
        evaluator = StageIEvaluator(batch, system, 1.0)
        result = MILPAllocator().allocate(evaluator)
        assert result.robustness == 0.0
        assert sorted(result.allocation.app_names) == sorted(batch.names)
        check_allocation_feasible(result.allocation, system, batch)

    def test_infeasible_instance_raises(self):
        # Three applications, two processors.
        system = HeterogeneousSystem([ProcessorType("t", 2)])
        batch = Batch(
            [
                Application(f"a{i}", 0, 10, normal_exectime_model({"t": 10.0}))
                for i in range(3)
            ]
        )
        evaluator = StageIEvaluator(batch, system, 100.0)
        with pytest.raises(InfeasibleAllocationError, match="no feasible allocation"):
            MILPAllocator().allocate(evaluator)

    def test_other_solver_status_named(self, evaluator, monkeypatch):
        import scipy.optimize

        def stopped(*args, **kwargs):
            return SimpleNamespace(status=1, message="Time limit reached.", x=None)

        monkeypatch.setattr(scipy.optimize, "milp", stopped)
        with pytest.raises(AllocationError, match="status 1: Time limit reached") as err:
            MILPAllocator().allocate(evaluator)
        assert not isinstance(err.value, InfeasibleAllocationError)


def evaluator_24x6():
    """24 applications on 6 types of 16-32 processors (792 candidate
    groups), the benchmark's stage-I instance, at Δ = 2737.7 (the deadline
    the benchmark calibrated to while stage I summed completion PMFs)."""
    spec = WorkloadSpec(
        n_apps=24, n_types=6, procs_per_type=(16, 32), cv=0.5, availability_levels=4
    )
    system, batch = random_instance(spec, np.random.default_rng(2012))
    return StageIEvaluator(batch, system, 2737.7)


def test_beats_every_search_on_a_24x6_instance():
    # Enumeration is out of reach here: the optimum is proved at
    # phi_1 = 0.654, while the five searches of the benchmark's stage-I
    # workload reach at most about half of it.
    evaluator = evaluator_24x6()
    system, batch = evaluator.system, evaluator.batch
    result = MILPAllocator().allocate(evaluator)
    check_allocation_feasible(result.allocation, system, batch)
    assert result.evaluations == 792
    assert result.robustness == pytest.approx(0.654, abs=5e-4)
    searches = [
        GreedyRobustAllocator(),
        MinMinAllocator(),
        SufferageAllocator(),
        AnnealingAllocator(rng=2012),
        GeneticAllocator(rng=2012),
    ]
    for search in searches:
        found = search.allocate(evaluator)
        assert found.robustness <= result.robustness, search.name


@pytest.mark.parametrize("allocator", [EqualShareAllocator, ExhaustiveAllocator])
def test_enumerations_fail_before_scoring_on_the_24x6_instance(allocator):
    # Naive's share-4 space and exhaustive's whole space each hold more
    # than 2M allocations; both are counted, not scored, before raising.
    evaluator = evaluator_24x6()
    with pytest.raises(
        InfeasibleAllocationError,
        match=r"^enumeration exceeded 2000000 allocations; use a scalable "
        r"heuristic \(greedy, min-min, annealing, genetic\) for instances "
        r"of this size$",
    ):
        allocator().allocate(evaluator)
    assert evaluator.cache_info() == dict.fromkeys(
        ("pmf_hits", "pmf_misses", "prob_hits", "prob_misses"), 0
    )
