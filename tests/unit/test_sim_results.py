"""Unit tests of the simulation result records (repro.sim.results)."""

import numpy as np
import pytest

from repro.sim import (
    AppRunResult,
    BatchRunResult,
    ChunkRecord,
    ReplicatedAppStats,
    ReplicatedBatchStats,
)


def make_app_result(name="a", makespan=100.0, serial=10.0):
    chunks = (
        ChunkRecord(worker_id=0, size=30, request_time=serial,
                    start_time=serial + 1, finish_time=60.0),
        ChunkRecord(worker_id=1, size=70, request_time=serial,
                    start_time=serial + 1, finish_time=makespan),
    )
    return AppRunResult(
        app_name=name,
        technique="FAC",
        group_type="t",
        group_size=2,
        serial_time=serial,
        makespan=makespan,
        chunks=chunks,
        worker_finish_times={0: 60.0, 1: makespan},
        iterations_executed=100,
    )


class TestChunkRecord:
    def test_elapsed(self):
        c = ChunkRecord(0, 10, 1.0, 2.0, 7.0)
        assert c.elapsed == 5.0


class TestAppRunResult:
    def test_derived_quantities(self):
        r = make_app_result()
        assert r.parallel_time == pytest.approx(90.0)
        assert r.n_chunks == 2
        assert r.iterations_per_worker() == {0: 30, 1: 70}

    def test_load_imbalance(self):
        r = make_app_result()
        assert r.load_imbalance() > 0.0
        balanced = AppRunResult(
            app_name="b", technique="FAC", group_type="t", group_size=2,
            serial_time=0.0, makespan=50.0, chunks=(),
            worker_finish_times={0: 50.0, 1: 50.0}, iterations_executed=0,
        )
        assert balanced.load_imbalance() == 0.0

    def test_single_worker_imbalance_zero(self):
        r = AppRunResult(
            app_name="c", technique="SS", group_type="t", group_size=1,
            serial_time=0.0, makespan=10.0, chunks=(),
            worker_finish_times={0: 10.0}, iterations_executed=0,
        )
        assert r.load_imbalance() == 0.0


class TestBatchRunResult:
    def test_makespan_is_max(self):
        run = BatchRunResult(
            app_results={
                "a": make_app_result("a", makespan=100.0),
                "b": make_app_result("b", makespan=250.0),
            },
            deadline=200.0,
        )
        assert run.makespan == 250.0
        assert not run.meets_deadline()
        assert run.violating_apps() == ["b"]

    def test_no_deadline(self):
        run = BatchRunResult(app_results={"a": make_app_result()})
        with pytest.raises(ValueError):
            run.meets_deadline()


class TestReplicatedStats:
    def test_app_stats(self):
        stats = ReplicatedAppStats("a", "FAC", (10.0, 20.0, 30.0))
        assert stats.mean == 20.0
        assert stats.minimum == 10.0
        assert stats.maximum == 30.0
        assert stats.std == pytest.approx((200 / 3) ** 0.5)
        assert stats.prob_leq(20.0) == pytest.approx(2 / 3)

    def test_batch_stats(self):
        stats = ReplicatedBatchStats(
            per_app={"a": ReplicatedAppStats("a", "FAC", (10.0, 40.0))},
            system_makespans=(10.0, 40.0),
            deadline=20.0,
        )
        assert stats.mean_makespan == 25.0
        assert stats.deadline_probability() == 0.5

    def test_batch_stats_no_deadline(self):
        stats = ReplicatedBatchStats(
            per_app={}, system_makespans=(1.0,), deadline=None
        )
        with pytest.raises(ValueError):
            stats.deadline_probability()


class TestMeanCI:
    def test_interval_contains_mean(self):
        stats = ReplicatedAppStats("a", "FAC", (10.0, 12.0, 14.0, 16.0))
        lo, hi = stats.mean_ci()
        assert lo < stats.mean < hi

    def test_single_sample_degenerate(self):
        stats = ReplicatedAppStats("a", "FAC", (10.0,))
        assert stats.mean_ci() == (10.0, 10.0)

    def test_zero_variance_degenerate(self):
        stats = ReplicatedAppStats("a", "FAC", (5.0, 5.0, 5.0))
        assert stats.mean_ci() == (5.0, 5.0)

    def test_higher_confidence_wider(self):
        stats = ReplicatedAppStats("a", "FAC", (1.0, 2.0, 3.0, 4.0, 5.0))
        lo95, hi95 = stats.mean_ci(0.95)
        lo99, hi99 = stats.mean_ci(0.99)
        assert lo99 < lo95 and hi99 > hi95

    def test_shrinks_with_n(self):
        small = ReplicatedAppStats("a", "FAC", (1.0, 3.0) * 3)
        large = ReplicatedAppStats("a", "FAC", (1.0, 3.0) * 50)
        assert (large.mean_ci()[1] - large.mean_ci()[0]) < (
            small.mean_ci()[1] - small.mean_ci()[0]
        )

    @pytest.mark.parametrize("confidence", [0.8, 0.95, 0.99])
    @pytest.mark.parametrize("n", [2, 3, 7, 30, 400])
    def test_equals_scipy_stats_reference(self, n, confidence):
        # The t quantile comes from scipy.special.stdtrit; the interval
        # must keep the bits of the scipy.stats.t.ppf form it replaced.
        from scipy import stats

        makespans = tuple(1000.0 + 37.5 * ((7 * k) % 11) for k in range(n))
        arr = np.asarray(makespans)
        sem = float(arr.std(ddof=1)) / np.sqrt(n)
        t = float(stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
        mean = float(arr.mean())
        got = ReplicatedAppStats("a", "FAC", makespans).mean_ci(confidence)
        assert got == (mean - t * sem, mean + t * sem)
