"""Unit tests of multi-batch CDSF execution."""

import pytest

from repro.apps import Application, normal_exectime_model
from repro.errors import ModelError
from repro.framework import MultiBatchScheduler
from repro.ra import GreedyRobustAllocator
from repro.sim import LoopSimConfig
from repro.system import HeterogeneousSystem, ProcessorType


def make_app(name: str, mean: float = 400.0) -> Application:
    return Application(
        name, 0, 200,
        normal_exectime_model({"t": mean}, cv=0.0),
        iteration_cv=0.0,
    )


@pytest.fixture
def system():
    return HeterogeneousSystem([ProcessorType("t", 4)])


@pytest.fixture
def scheduler(system):
    return MultiBatchScheduler(
        system,
        GreedyRobustAllocator(),
        "FAC",
        deadline=1_000.0,
        sim=LoopSimConfig(overhead=0.0),
        seed=1,
    )


class TestMultiBatch:
    def test_two_batches_sequential(self, scheduler):
        arrivals = [
            (0.0, make_app("a1")),
            (0.0, make_app("a2")),
            (10.0, make_app("a3")),
            (10.0, make_app("a4")),
        ]
        result = scheduler.run(arrivals, batch_size=2)
        assert len(result.outcomes) == 2
        first, second = result.outcomes
        assert first.start_time == 0.0
        # The second batch waits for the first to finish (arrivals earlier).
        assert second.start_time == pytest.approx(first.finish_time)
        assert result.total_makespan == second.finish_time

    def test_late_arrival_delays_batch(self, scheduler):
        arrivals = [
            (0.0, make_app("a1")),
            (0.0, make_app("a2")),
            (10_000.0, make_app("a3")),
            (10_000.0, make_app("a4")),
        ]
        result = scheduler.run(arrivals, batch_size=2)
        second = result.outcomes[1]
        assert second.start_time == 10_000.0  # idle gap, not resource wait

    def test_partial_final_batch(self, scheduler):
        arrivals = [(float(i), make_app(f"a{i}")) for i in range(5)]
        result = scheduler.run(arrivals, batch_size=2)
        assert len(result.outcomes) == 3
        assert len(result.outcomes[-1].batch) == 1

    def test_waiting_and_response_times(self, scheduler):
        arrivals = [
            (0.0, make_app("a1")),
            (0.0, make_app("a2")),
            (5.0, make_app("a3")),
            (5.0, make_app("a4")),
        ]
        result = scheduler.run(arrivals, batch_size=2)
        assert result.waiting_time("a1") == 0.0
        assert result.waiting_time("a3") == pytest.approx(
            result.outcomes[1].start_time - 5.0
        )
        for name in ("a1", "a2", "a3", "a4"):
            assert result.response_time(name) > result.waiting_time(name)
        assert result.mean_response_time() > 0

    def test_each_round_reports_robustness(self, scheduler):
        arrivals = [(0.0, make_app("a1")), (0.0, make_app("a2"))]
        result = scheduler.run(arrivals, batch_size=2)
        assert 0.0 <= result.outcomes[0].robustness <= 1.0

    def test_unknown_app_queries_rejected(self, scheduler):
        result = scheduler.run([(0.0, make_app("a1"))], batch_size=1)
        with pytest.raises(ModelError):
            result.waiting_time("ghost")
        with pytest.raises(ModelError):
            result.response_time("ghost")

    def test_nan_deadline_rejected(self, system):
        with pytest.raises(ModelError, match="deadline"):
            MultiBatchScheduler(
                system, GreedyRobustAllocator(), "FAC", deadline=float("nan")
            )

    def test_validation(self, system, scheduler):
        with pytest.raises(ModelError):
            MultiBatchScheduler(
                system, GreedyRobustAllocator(), "FAC", deadline=0.0
            )
        with pytest.raises(ModelError):
            scheduler.run([], batch_size=1)
        with pytest.raises(ModelError):
            scheduler.run([(0.0, make_app("a"))], batch_size=0)
        with pytest.raises(ModelError):
            scheduler.run(
                [(5.0, make_app("a")), (1.0, make_app("b"))], batch_size=1
            )
        with pytest.raises(ModelError):
            scheduler.run(
                [(0.0, make_app("dup")), (1.0, make_app("dup"))], batch_size=1
            )

    def test_deterministic(self, scheduler):
        arrivals = [(0.0, make_app("a1")), (0.0, make_app("a2"))]
        a = scheduler.run(arrivals, batch_size=1)
        b = scheduler.run(arrivals, batch_size=1)
        assert a.total_makespan == b.total_makespan
