"""Unit tests of the Pareto-front analysis (repro.ra.pareto)."""

import pytest

from repro.errors import AllocationError
from repro.ra import (
    ExhaustiveAllocator,
    ParetoPoint,
    StageIEvaluator,
    enumerate_allocations,
    pareto_front,
)


@pytest.fixture(scope="module")
def evaluator():
    from repro.paper import data, paper_batch, paper_system

    return StageIEvaluator(paper_batch(), paper_system("case1"), data.DEADLINE)


@pytest.fixture(scope="module")
def front(evaluator):
    return pareto_front(evaluator)


class TestParetoFront:
    def test_nonempty_and_sorted(self, front):
        assert front
        robs = [p.robustness for p in front]
        assert robs == sorted(robs, reverse=True)

    def test_mutually_nondominated(self, front):
        for a in front:
            for b in front:
                if a is not b:
                    assert not a.dominates(b), (a, b)

    def test_optimum_on_front(self, evaluator, front):
        best = ExhaustiveAllocator().allocate(evaluator)
        assert front[0].robustness == pytest.approx(best.robustness, abs=1e-9)

    def test_every_allocation_dominated_or_on_front(self, evaluator, front):
        """Completeness: nothing outside the front dominates anything on it."""
        on_front = {p.allocation for p in front}
        for allocation in enumerate_allocations(
            evaluator.batch, evaluator.system
        ):
            if allocation in on_front:
                continue
            candidate = ParetoPoint(
                allocation=allocation,
                robustness=evaluator.robustness(allocation),
                expected_makespan=max(
                    evaluator.app_expected_time(app, group)
                    for app, group in allocation.items()
                ),
                processors=allocation.total_processors(),
            )
            assert any(
                p.dominates(candidate)
                or (
                    p.robustness == pytest.approx(candidate.robustness)
                    and p.expected_makespan
                    == pytest.approx(candidate.expected_makespan)
                    and p.processors == candidate.processors
                )
                for p in front
            ), candidate

    def test_front_spans_the_tradeoff(self, front):
        """Fewer processors are attainable at lower robustness."""
        max_procs = max(p.processors for p in front)
        min_procs = min(p.processors for p in front)
        assert min_procs < max_procs

    def test_budget_guard(self):
        from repro.paper import data, paper_batch, paper_system

        # The paper instance has 153 allocations; none is scored.
        fresh = StageIEvaluator(paper_batch(), paper_system("case1"), data.DEADLINE)
        with pytest.raises(AllocationError, match="exceeded 5 allocations"):
            pareto_front(fresh, max_evaluations=5)
        assert fresh.cache_info()["prob_misses"] == 0


class TestDomination:
    def make(self, rob, mk, procs):
        from repro.paper import paper_batch, paper_system
        from repro.ra import Allocation
        from repro.system import ProcessorGroup

        system = paper_system("case1")
        alloc = Allocation(
            {
                "app1": ProcessorGroup(system.type("type1"), 2),
                "app2": ProcessorGroup(system.type("type1"), 2),
                "app3": ProcessorGroup(system.type("type2"), 8),
            }
        )
        return ParetoPoint(alloc, rob, mk, procs)

    def test_strict_better_dominates(self):
        assert self.make(0.9, 100.0, 4).dominates(self.make(0.8, 120.0, 6))

    def test_equal_does_not_dominate(self):
        a = self.make(0.9, 100.0, 4)
        b = self.make(0.9, 100.0, 4)
        assert not a.dominates(b)

    def test_tradeoff_is_incomparable(self):
        a = self.make(0.9, 200.0, 4)
        b = self.make(0.8, 100.0, 4)
        assert not a.dominates(b)
        assert not b.dominates(a)
