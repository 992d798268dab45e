"""Unit tests of the RA heuristic family (naive/exhaustive/greedy/list/meta).

The paper instance doubles as a strong oracle: Table IV fixes the naive and
optimal allocations and phi_1 values, so every heuristic can be validated
against ground truth.
"""

import inspect

import pytest

from repro.apps import Application, Batch, normal_exectime_model
from repro.errors import InfeasibleAllocationError
from repro.pmf import percent_availability
from repro.ra import (
    AnnealingAllocator,
    EqualShareAllocator,
    ExhaustiveAllocator,
    GeneticAllocator,
    GreedyPackingAllocator,
    GreedyRobustAllocator,
    HEURISTICS,
    MaxMinAllocator,
    MinMinAllocator,
    StageIEvaluator,
    SufferageAllocator,
)
from repro.system import HeterogeneousSystem, ProcessorType


@pytest.fixture
def evaluator(paper_like_batch, paper_like_system):
    return StageIEvaluator(paper_like_batch, paper_like_system, 3250.0)


def table(result):
    return sorted(result.allocation.as_table())


class TestEqualShare:
    def test_paper_table_iv_naive(self, evaluator):
        result = EqualShareAllocator().allocate(evaluator)
        assert table(result) == [
            ("app1", "type2", 4),
            ("app2", "type1", 4),
            ("app3", "type2", 4),
        ]
        assert result.robustness == pytest.approx(0.26, abs=0.005)
        assert result.heuristic == "naive-equal-share"

    def test_all_sizes_equal(self, evaluator):
        result = EqualShareAllocator().allocate(evaluator)
        sizes = {g.size for _, g in result.allocation.items()}
        assert sizes == {4}

    def test_non_power_of_two_share_falls_back(self):
        # 9 processors / 3 apps -> share 3 is not a power of two; the naive
        # policy falls back to equal shares of 2.
        system = HeterogeneousSystem([ProcessorType("t", 9)])
        batch = Batch(
            [
                Application(f"a{i}", 0, 10, normal_exectime_model({"t": 10.0}))
                for i in range(3)
            ]
        )
        ev = StageIEvaluator(batch, system, 100.0)
        result = EqualShareAllocator().allocate(ev)
        assert {g.size for _, g in result.allocation.items()} == {2}

    def test_share_below_one(self):
        system = HeterogeneousSystem([ProcessorType("t", 2)])
        batch = Batch(
            [
                Application(f"a{i}", 0, 10, normal_exectime_model({"t": 10.0}))
                for i in range(3)
            ]
        )
        ev = StageIEvaluator(batch, system, 100.0)
        with pytest.raises(InfeasibleAllocationError):
            EqualShareAllocator().allocate(ev)


class TestExhaustive:
    def test_paper_table_iv_robust(self, evaluator):
        result = ExhaustiveAllocator().allocate(evaluator)
        assert table(result) == [
            ("app1", "type1", 2),
            ("app2", "type1", 2),
            ("app3", "type2", 8),
        ]
        assert result.robustness == pytest.approx(0.745, abs=0.005)
        assert result.evaluations == 153

    def test_optimality_over_enumeration(self, evaluator):
        from repro.ra import enumerate_allocations

        best = ExhaustiveAllocator().allocate(evaluator)
        for alloc in enumerate_allocations(evaluator.batch, evaluator.system):
            assert evaluator.robustness(alloc) <= best.robustness + 1e-12

    def test_budget_guard(self, evaluator):
        with pytest.raises(InfeasibleAllocationError):
            ExhaustiveAllocator(max_evaluations=10).allocate(evaluator)


class TestGreedy:
    def test_matches_optimal_on_paper(self, evaluator):
        result = GreedyRobustAllocator().allocate(evaluator)
        assert result.robustness == pytest.approx(0.745, abs=0.005)

    def test_packing_variant_runs(self, evaluator):
        result = GreedyPackingAllocator().allocate(evaluator)
        assert 0.0 <= result.robustness <= 1.0
        assert result.heuristic == "greedy-packing"

    def test_greedy_not_worse_than_naive(self, evaluator):
        naive = EqualShareAllocator().allocate(evaluator)
        greedy = GreedyRobustAllocator().allocate(evaluator)
        assert greedy.robustness >= naive.robustness - 1e-9


class TestListHeuristics:
    @pytest.mark.parametrize(
        "cls", [MinMinAllocator, MaxMinAllocator, SufferageAllocator]
    )
    def test_feasible_and_near_optimal(self, evaluator, cls):
        result = cls().allocate(evaluator)
        # near-optimal on the paper instance (optimum = 0.7447)
        assert result.robustness >= 0.70
        usage = result.allocation.usage()
        assert usage.get("type1", 0) <= 4
        assert usage.get("type2", 0) <= 8

    def test_frugality_validation(self):
        with pytest.raises(ValueError):
            MinMinAllocator(frugality_eps=-1.0)


class TestMetaheuristics:
    def test_annealing_matches_optimal(self, evaluator):
        result = AnnealingAllocator(iterations=500, restarts=1, rng=1).allocate(
            evaluator
        )
        assert result.robustness == pytest.approx(0.745, abs=0.01)

    def test_annealing_reproducible(self, evaluator):
        a = AnnealingAllocator(iterations=200, restarts=1, rng=5).allocate(evaluator)
        b = AnnealingAllocator(iterations=200, restarts=1, rng=5).allocate(evaluator)
        assert a.allocation == b.allocation

    def test_annealing_validation(self):
        with pytest.raises(ValueError):
            AnnealingAllocator(iterations=0)
        with pytest.raises(ValueError):
            AnnealingAllocator(cooling=1.5)
        with pytest.raises(ValueError):
            AnnealingAllocator(initial_temperature=0.0)
        with pytest.raises(ValueError):
            AnnealingAllocator(restarts=0)

    def test_genetic_matches_optimal(self, evaluator):
        result = GeneticAllocator(
            population=20, generations=25, rng=3
        ).allocate(evaluator)
        assert result.robustness == pytest.approx(0.745, abs=0.01)

    def test_genetic_reproducible(self, evaluator):
        a = GeneticAllocator(population=10, generations=5, rng=2).allocate(evaluator)
        b = GeneticAllocator(population=10, generations=5, rng=2).allocate(evaluator)
        assert a.allocation == b.allocation

    def test_genetic_validation(self):
        with pytest.raises(ValueError):
            GeneticAllocator(population=1)
        with pytest.raises(ValueError):
            GeneticAllocator(generations=0)
        with pytest.raises(ValueError):
            GeneticAllocator(mutation_rate=2.0)
        with pytest.raises(ValueError):
            GeneticAllocator(tournament=0)


class TestRegistry:
    def test_all_heuristics_registered(self):
        assert set(HEURISTICS) == {
            "naive-equal-share",
            "exhaustive-optimal",
            "branch-and-bound",
            "greedy-robust",
            "greedy-packing",
            "min-min",
            "max-min",
            "sufferage",
            "simulated-annealing",
            "genetic",
        }

    def test_registry_instantiable(self, evaluator):
        for name, cls in HEURISTICS.items():
            result = cls().allocate(evaluator)
            assert result.heuristic == name


def three_type_evaluator():
    """Three processor types, four applications: the heuristics disagree here."""
    types = {
        "cpu": (2, [(100, 100)]),
        "gpu": (4, [(50, 40), (100, 60)]),
        "edge": (8, [(25, 30), (60, 30), (90, 40)]),
    }
    apps = {  # n_serial, n_parallel, mean time on cpu/gpu/edge
        "solver": (100, 2048, (3000.0, 1500.0, 6000.0)),
        "mesh": (300, 1024, (1200.0, 2500.0, 2000.0)),
        "fft": (50, 4096, (5000.0, 2000.0, 7000.0)),
        "io": (400, 512, (800.0, 900.0, 1000.0)),
    }
    system = HeterogeneousSystem(
        ProcessorType(name, count, availability=percent_availability(pulses))
        for name, (count, pulses) in types.items()
    )
    batch = Batch(
        Application(name, serial, parallel, normal_exectime_model(dict(zip(types, means))))
        for name, (serial, parallel, means) in apps.items()
    )
    return StageIEvaluator(batch, system, 2000.0)


def make_heuristic(name):
    cls = HEURISTICS[name]
    # Seed the randomized heuristics so each run is reproducible.
    seeded = "rng" in inspect.signature(cls).parameters
    return cls(rng=7) if seeded else cls()


class TestEveryHeuristic:
    """The RAHeuristic contract, for every registered heuristic."""

    @pytest.fixture(params=["paper", "three-type"])
    def instance(self, request, evaluator):
        return evaluator if request.param == "paper" else three_type_evaluator()

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_allocation_fits_the_system(self, name, instance):
        allocation = make_heuristic(name).allocate(instance).allocation
        assert sorted(allocation.app_names) == sorted(instance.batch.names)
        for _, group in allocation.items():
            assert group.size >= 1
        for type_name, used in allocation.usage().items():
            assert used <= instance.system.type(type_name).count

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_reported_robustness_is_phi1(self, name, instance):
        result = make_heuristic(name).allocate(instance)
        assert result.robustness == pytest.approx(
            instance.robustness(result.allocation), abs=1e-12
        )
        assert result.heuristic == name
        assert result.evaluations >= 1

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_never_beats_the_exhaustive_optimum(self, name, instance):
        optimum = ExhaustiveAllocator().allocate(instance).robustness
        assert make_heuristic(name).allocate(instance).robustness <= optimum + 1e-12
