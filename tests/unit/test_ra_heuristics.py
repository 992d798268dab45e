"""Unit tests of the RA heuristic family (naive/exhaustive/greedy/list/meta).

The paper instance doubles as a strong oracle: Table IV fixes the naive and
optimal allocations and phi_1 values, so every heuristic can be validated
against ground truth.
"""

import inspect

import numpy as np
import pytest

from repro.apps import (
    Application,
    Batch,
    WorkloadSpec,
    normal_exectime_model,
    random_instance,
)
from repro.errors import InfeasibleAllocationError
from repro.paper import paper_batch, paper_system
from repro.pmf import PMF, percent_availability
from repro.ra import naive as naive_module
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

    def test_enumeration_bound(self, evaluator, monkeypatch):
        # The paper instance has 3 equal-share allocations at share 4.
        monkeypatch.setattr(naive_module, "MAX_EVALUATIONS", 2)
        with pytest.raises(InfeasibleAllocationError, match="exceeded 2"):
            EqualShareAllocator().allocate(evaluator)


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

    def test_annealing_nan_temperature_rejected(self):
        # A NaN temperature would reject every worse move.
        with pytest.raises(ValueError, match="initial_temperature"):
            AnnealingAllocator(initial_temperature=float("nan"))

    def test_annealing_infinite_temperature_rejected(self):
        # An infinite temperature never cools: every feasible move would
        # be accepted.
        with pytest.raises(ValueError, match="initial_temperature must be positive and finite"):
            AnnealingAllocator(initial_temperature=float("inf"))

    @pytest.mark.parametrize("cooling", [0.5, 0.1])
    def test_annealing_survives_temperature_underflow(self, cooling):
        # 0.05 * 0.5^k is 0.0 after ~1,070 steps; from there on worse
        # neighbours are rejected (exp(-inf) = 0) instead of dividing by 0.
        evaluator = StageIEvaluator(paper_batch(), paper_system(), 3250.0)
        result = AnnealingAllocator(cooling=cooling, iterations=3000, rng=1).allocate(
            evaluator
        )
        assert result.robustness == evaluator.robustness(result.allocation)
        assert result.robustness >= GreedyRobustAllocator().allocate(evaluator).robustness

    def test_annealing_survives_temperature_underflow_on_24x6(self, instance_24x6):
        batch, system = instance_24x6
        evaluator = StageIEvaluator(batch, system, DEADLINE_24X6)
        result = AnnealingAllocator(cooling=0.5, iterations=3000, rng=1).allocate(evaluator)
        assert result.robustness == evaluator.robustness(result.allocation)

    def test_genetic_matches_optimal(self, evaluator):
        result = GeneticAllocator(
            population=20, generations=25, rng=3
        ).allocate(evaluator)
        assert result.robustness == pytest.approx(0.745, abs=0.01)

    def test_genetic_reproducible(self, evaluator):
        a = GeneticAllocator(population=10, generations=5, rng=2).allocate(evaluator)
        b = GeneticAllocator(population=10, generations=5, rng=2).allocate(evaluator)
        assert a.allocation == b.allocation

    def test_genetic_repair_moves_the_app_that_can_move(self):
        # typeA has one processor and app1 runs only there. A chromosome
        # that also puts app2 on typeA must be repaired by moving app2 to
        # typeB, not abandoned because app1 cannot shrink or move.
        system = HeterogeneousSystem(
            [ProcessorType("typeA", 1), ProcessorType("typeB", 4)]
        )
        batch = Batch(
            [
                Application("app1", 0, 100, normal_exectime_model({"typeA": 1000.0})),
                Application(
                    "app2",
                    0,
                    100,
                    normal_exectime_model({"typeA": 1000.0, "typeB": 1000.0}),
                ),
            ]
        )
        evaluator = StageIEvaluator(batch, system, 2000.0)
        assert ExhaustiveAllocator().allocate(evaluator).robustness == 1.0
        for seed in range(5):
            result = GeneticAllocator(rng=seed).allocate(evaluator)
            assert result.allocation.group("app1").ptype.name == "typeA"
            assert result.robustness == 1.0

    def test_genetic_repair_converges_when_moves_cycle(self):
        # Types t0 (2 processors), t1 (1) and t2 (3); a0 runs only on t1,
        # a3 only on t2, a1 and a2 on t1 or t2, a4 anywhere. Repair's
        # random moves send apps back and forth between t1 and t2, so it
        # finishes with the look-ahead, which always finds a feasible
        # allocation when one exists.
        gen = np.random.default_rng(172)
        nt = int(gen.integers(2, 6))
        system = HeterogeneousSystem(
            ProcessorType(
                f"t{j}",
                int(gen.integers(1, 9)),
                availability=PMF(np.sort(gen.uniform(0.3, 1.0, 2)), [0.5, 0.5]),
            )
            for j in range(nt)
        )
        apps = []
        for i in range(int(gen.integers(3, 10))):
            support = int(gen.integers(1, 2**nt))
            means = {
                f"t{j}": float(gen.uniform(500.0, 4000.0))
                for j in range(nt)
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
        batch = Batch(apps)
        optimum = ExhaustiveAllocator().allocate(
            StageIEvaluator(batch, system, 3000.0)
        ).robustness
        for seed in range(5):
            evaluator = StageIEvaluator(batch, system, 3000.0)
            result = GeneticAllocator(rng=seed).allocate(evaluator)
            for type_name, used in result.allocation.usage().items():
                assert used <= system.type(type_name).count
            assert result.robustness == evaluator.robustness(result.allocation)
            assert 0.0 < result.robustness <= optimum

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
            "milp-optimal",
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


def seeded_evaluator():
    """A seeded 4-app, 3-type instance where the heuristics disagree.

    At this deadline the optimum is phi_1 = 0.837 while greedy scores
    0.007, so a change to any heuristic's search shows in its answer.
    """
    system, batch = random_instance(
        WorkloadSpec(n_apps=4, n_types=3, procs_per_type=(4, 8), cv=0.3), 3
    )
    return StageIEvaluator(batch, system, 2800.0)


def restricted_evaluator():
    """A seeded 4-app, 3-type instance whose apps run on different type subsets.

    ``a0`` runs on every type, ``a1`` and ``a3`` only on ``t2``, ``a2`` on
    ``t1`` and ``t2``. The Hall look-ahead here rejects candidates because
    a proper subset of the types (such as ``{t2}``) would run short, which
    no instance whose apps all run on every type can show. Every heuristic
    finds an allocation, and at this deadline six distinct phi_1 values
    come out of the ten.
    """
    gen = np.random.default_rng(21)
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
        support = int(gen.integers(1, 8))  # non-empty subset of the 3 types
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
    return StageIEvaluator(Batch(apps), system, 2500.0)


#: (instance, heuristic) -> (allocation as "app:type:size" rows, exact
#: phi_1, evaluations). Randomized heuristics run with ``rng=7``. The
#: MILP's allocation is pinned only where the optimum is unique (rows
#: ``None`` otherwise): its pick among tied optima may change with SciPy.
PINNED = {
    ("paper", "exhaustive-optimal"):
        ("app1:type1:2 app2:type1:2 app3:type2:8", 0.7447125832597702, 153),
    ("paper", "genetic"):
        ("app1:type1:2 app2:type1:2 app3:type2:8", 0.7447125832597702, 2440),
    ("paper", "greedy-packing"):
        ("app1:type1:2 app2:type1:2 app3:type2:8", 0.7447125832597702, 32),
    ("paper", "greedy-robust"):
        ("app1:type1:2 app2:type1:2 app3:type2:8", 0.7447125832597702, 32),
    ("paper", "max-min"):
        ("app1:type1:1 app2:type1:2 app3:type2:8", 0.7446409629361642, 27),
    ("paper", "milp-optimal"):
        ("app1:type1:2 app2:type1:2 app3:type2:8", 0.7447125832597702, 21),
    ("paper", "min-min"):
        ("app1:type1:1 app2:type1:2 app3:type2:8", 0.7446409629361642, 38),
    ("paper", "naive-equal-share"):
        ("app1:type2:4 app2:type1:4 app3:type2:4", 0.25940610243172113, 3),
    ("paper", "simulated-annealing"):
        ("app1:type1:2 app2:type1:2 app3:type2:8", 0.7447125832597702, 2347),
    ("paper", "sufferage"):
        ("app1:type1:1 app2:type1:2 app3:type2:8", 0.7446409629361642, 27),
    ("seeded", "exhaustive-optimal"):
        ("app1:type3:4 app2:type3:4 app3:type1:4 app4:type1:2", 0.836865618833279, 5591),
    ("seeded", "genetic"):
        ("app1:type3:4 app2:type3:4 app3:type1:4 app4:type1:2", 0.836865618833279, 2440),
    ("seeded", "greedy-packing"):
        ("app1:type1:8 app2:type3:8 app3:type2:2 app4:type2:2", 0.00700468933888087, 66),
    ("seeded", "greedy-robust"):
        ("app1:type1:8 app2:type3:8 app3:type2:2 app4:type2:2", 0.00700468933888087, 66),
    ("seeded", "max-min"):
        ("app1:type1:8 app2:type3:8 app3:type2:2 app4:type2:2", 0.00700468933888087, 71),
    # Two allocations share the optimum (app4 on 2 or 4 type1
    # processors), so the MILP's pick is not pinned.
    ("seeded", "milp-optimal"): (None, 0.836865618833279, 44),
    ("seeded", "min-min"):
        ("app1:type3:8 app2:type2:4 app3:type1:4 app4:type1:2", 0.47739647842153576, 97),
    ("seeded", "naive-equal-share"):
        ("app1:type3:4 app2:type3:4 app3:type1:4 app4:type1:4", 0.836865618833279, 30),
    ("seeded", "simulated-annealing"):
        ("app1:type1:4 app2:type3:8 app3:type1:2 app4:type1:2", 0.5010691832937588, 2800),
    ("seeded", "sufferage"):
        ("app1:type1:8 app2:type3:8 app3:type2:2 app4:type2:2", 0.00700468933888087, 71),
    ("restricted", "exhaustive-optimal"):
        ("a0:t2:1 a1:t2:2 a2:t1:4 a3:t2:2", 0.3366374235920717, 145),
    ("restricted", "genetic"):
        ("a0:t2:1 a1:t2:2 a2:t1:4 a3:t2:2", 0.3366374235920717, 2440),
    ("restricted", "greedy-packing"):
        ("a0:t0:2 a1:t2:1 a2:t1:4 a3:t2:4", 0.1469355957204711, 31),
    ("restricted", "greedy-robust"):
        ("a0:t1:4 a1:t2:1 a2:t1:2 a3:t2:4", 0.17235719767278476, 31),
    ("restricted", "max-min"):
        ("a0:t1:4 a1:t2:1 a2:t2:2 a3:t2:2", 0.32969887932184466, 39),
    ("restricted", "milp-optimal"):
        ("a0:t2:1 a1:t2:2 a2:t1:4 a3:t2:2", 0.3366374235920717, 20),
    ("restricted", "min-min"):
        ("a0:t1:4 a1:t2:4 a2:t1:2 a3:t2:1", 0.05151345198197389, 31),
    ("restricted", "naive-equal-share"):
        ("a0:t1:2 a1:t2:2 a2:t1:2 a3:t2:2", 0.15326004195323326, 2),
    ("restricted", "simulated-annealing"):
        ("a0:t2:1 a1:t2:2 a2:t1:4 a3:t2:2", 0.3366374235920717, 1874),
    ("restricted", "sufferage"):
        ("a0:t1:4 a1:t2:1 a2:t2:2 a3:t2:2", 0.32969887932184466, 39),
}


@pytest.mark.parametrize("instance", ["paper", "seeded", "restricted"])
@pytest.mark.parametrize("name", sorted(HEURISTICS))
def test_pinned_answer(name, instance, evaluator):
    ev = {
        "paper": lambda: evaluator,
        "seeded": seeded_evaluator,
        "restricted": restricted_evaluator,
    }[instance]()
    result = make_heuristic(name).allocate(ev)
    rows = " ".join(f"{app}:{ptype}:{size}" for app, ptype, size in table(result))
    pinned_rows, phi1, evaluations = PINNED[instance, name]
    assert (result.robustness, result.evaluations) == (phi1, evaluations)
    if pinned_rows is not None:
        assert rows == pinned_rows


#: The deadline the stage-I benchmark (``cdsfbench`` stage1-search)
#: calibrates to on its 24-app x 6-type instance.
DEADLINE_24X6 = 2733.769136444695

#: heuristic -> (phi_1 as ``float.hex``, evaluations, probability-cache
#: hits and misses of a cold evaluator, each application's group in batch
#: order as "type number:size"). Randomized heuristics run with
#: ``rng=2012``, as in the benchmark. Unlike the small instances above,
#: the look-ahead here sees up to 23 pending applications, and genetic
#: repairs ~2,400 chromosomes per search. Together the five rows are one
#: stage1-search pass: 16,707 evaluations, 133,927 hits and 3,833 misses.
PINNED_24X6 = {
    "greedy-robust": (
        "0x1.b711b4e9db6aep-21", 927, 159, 792,
        "4:16 3:4 3:1 2:16 3:1 1:32 5:32 3:1 3:1 3:1 3:1 3:1"
        " 3:1 6:16 3:1 3:1 3:1 3:1 3:8 3:1 3:1 3:1 3:1 3:4",
    ),
    "min-min": (
        "0x1.813d2a8c3419ap-8", 6821, 6053, 792,
        "5:1 5:16 4:4 1:8 4:4 5:2 5:8 6:8 3:4 6:4 3:2 3:2"
        " 2:16 1:4 5:4 4:8 3:16 3:4 5:1 6:2 1:4 3:4 1:16 6:2",
    ),
    "sufferage": (
        "0x1.362ac21aca05dp-16", 2773, 2005, 792,
        "4:16 3:1 3:4 2:16 3:1 1:32 5:32 3:1 3:1 3:1 3:1 3:1"
        " 3:8 6:16 3:1 3:1 3:1 3:1 3:4 3:1 3:1 3:1 3:1 3:1",
    ),
    "simulated-annealing": (
        "0x1.5de3c1a600dc7p-2", 3746, 67815, 792,
        "5:4 3:4 6:8 2:4 6:4 1:16 4:4 1:8 4:2 4:2 3:2 5:8"
        " 4:4 2:8 5:4 2:2 2:2 3:2 3:8 6:4 4:4 5:16 1:8 3:16",
    ),
    "genetic": (
        "0x1.14ebe50e1ba2ap-2", 2440, 57895, 665,
        "5:4 3:4 4:2 1:4 4:2 5:8 4:2 3:4 3:2 5:8 1:4 3:2"
        " 6:8 2:4 3:8 4:4 1:8 1:8 4:4 2:4 5:4 3:4 1:8 3:8",
    ),
}


@pytest.fixture(scope="module")
def instance_24x6():
    spec = WorkloadSpec(
        n_apps=24, n_types=6, procs_per_type=(16, 32), cv=0.5, availability_levels=4
    )
    system, batch = random_instance(spec, np.random.default_rng(2012))
    return batch, system


def type_sizes(allocation, names):
    """Each application's group in ``names`` order, as "type number:size"."""
    return " ".join(
        f"{g.ptype.name.removeprefix('type')}:{g.size}" for g in map(allocation.group, names)
    )


def search_24x6(name):
    """The search ``name`` as the benchmark runs it."""
    cls = HEURISTICS[name]
    seeded = "rng" in inspect.signature(cls).parameters
    return cls(rng=2012) if seeded else cls()


@pytest.mark.parametrize("name", list(PINNED_24X6))
def test_pinned_answer_on_the_24x6_instance(name, instance_24x6):
    batch, system = instance_24x6
    evaluator = StageIEvaluator(batch, system, DEADLINE_24X6)
    result = search_24x6(name).allocate(evaluator)
    info = evaluator.cache_info()
    assert (
        result.robustness.hex(),
        result.evaluations,
        info["prob_hits"],
        info["prob_misses"],
        type_sizes(result.allocation, batch.names),
    ) == PINNED_24X6[name]
    # No completion PMF is built until the benchmark asks for the
    # answer's makespan PMF.
    assert info["pmf_hits"] == info["pmf_misses"] == 0
    evaluator.makespan_pmf(result.allocation)
    assert evaluator.cache_info()["pmf_misses"] == 24


@pytest.mark.parametrize(
    "seed, n_apps, phi1, groups",
    [
        (1, 6, "0x1.c27993c173383p-6", "1:1 2:1 1:1 2:1 2:2 3:2"),
        (3, 8, "0x1.364db073daf92p-10", "3:1 3:2 1:1 1:1 1:1 2:2 3:1 1:1"),
        (6, 8, "0x1.9403c1855b802p-9", "2:1 3:1 3:2 1:1 2:2 3:1 2:1 1:1"),
    ],
)
def test_genetic_pinned_where_repair_moves_between_types(seed, n_apps, phi1, groups):
    # 2-5 processors per type for 6-8 applications: random chromosomes
    # oversubscribe several types at once, and repair must move
    # single-processor applications between them, so which type it
    # repairs first (that of the first application on an oversubscribed
    # type, not the first such type in system order) changes the answer.
    spec = WorkloadSpec(n_apps=n_apps, n_types=3, procs_per_type=(2, 5), cv=0.3)
    system, batch = random_instance(spec, seed)
    result = GeneticAllocator(rng=7).allocate(StageIEvaluator(batch, system, 2800.0))
    assert result.robustness.hex() == phi1
    assert type_sizes(result.allocation, batch.names) == groups
