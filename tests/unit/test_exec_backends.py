"""Unit tests of the execution backends (repro.exec.backends).

The contract under test: a backend only chooses *where* tasks run —
task order, results, and (with per-task seeds) every simulated draw are
identical between :class:`SerialBackend` and :class:`ProcessPoolBackend`.
"""

import os
import pickle
import signal
import tempfile
from dataclasses import dataclass

import pytest

from repro import obs
from repro.dls import make_technique
from repro.errors import ExecutionError
from repro.exec import (
    ENV_WORKERS,
    ProcessPoolBackend,
    ReplicateTask,
    SerialBackend,
    Task,
    default_workers,
    fan_out_ranges,
    get_backend,
    parse_workers,
)
from repro.sim import LoopSimConfig, replicate_application, replication_seeds


@dataclass(frozen=True)
class SquareTask:
    """Minimal picklable task for plumbing tests."""

    value: int

    def run(self) -> int:
        return self.value * self.value


@pytest.fixture
def pool():
    backend = ProcessPoolBackend(2)
    yield backend
    backend.close()


class TestDefaultWorkers:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert default_workers() == 1

    def test_env_value_parsed(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "4")
        assert default_workers() == 4

    @pytest.mark.parametrize("raw", ["auto", "AUTO", " auto ", "0"])
    def test_auto_means_all_cores(self, monkeypatch, raw):
        monkeypatch.setenv(ENV_WORKERS, raw)
        assert default_workers() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("raw", ["zero", "1.5", "-2"])
    def test_bad_values_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(ENV_WORKERS, raw)
        with pytest.raises(ExecutionError):
            default_workers()


class TestParseWorkers:
    @pytest.mark.parametrize("raw", ["auto", "Auto", 0, "0"])
    def test_auto_spellings(self, raw):
        assert parse_workers(raw) == (os.cpu_count() or 1)

    @pytest.mark.parametrize("raw,expected", [("3", 3), (5, 5), (" 2 ", 2)])
    def test_explicit_counts(self, raw, expected):
        assert parse_workers(raw) == expected

    @pytest.mark.parametrize("raw", ["many", "2.5", -1, "-4", None])
    def test_invalid_specs_rejected(self, raw):
        with pytest.raises(ExecutionError):
            parse_workers(raw)

    def test_source_named_in_error(self):
        with pytest.raises(ExecutionError, match="--workers"):
            parse_workers("nope", source="--workers")


class TestGetBackend:
    def test_one_worker_is_serial(self):
        backend = get_backend(1)
        assert isinstance(backend, SerialBackend)
        assert backend.workers == 1

    def test_many_workers_is_pool(self):
        with get_backend(3) as backend:
            assert isinstance(backend, ProcessPoolBackend)
            assert backend.workers == 3

    def test_default_comes_from_env(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert isinstance(get_backend(), SerialBackend)
        monkeypatch.setenv(ENV_WORKERS, "2")
        with get_backend() as backend:
            assert isinstance(backend, ProcessPoolBackend)
            assert backend.workers == 2

    def test_invalid_count_rejected(self):
        with pytest.raises(ExecutionError):
            get_backend(-1)
        with pytest.raises(ExecutionError):
            ProcessPoolBackend(-1)

    def test_zero_and_auto_mean_all_cores(self):
        expected = os.cpu_count() or 1
        with get_backend(0) as a, get_backend("auto") as b:
            assert a.workers == expected
            assert b.workers == expected


class TestSerialBackend:
    def test_runs_in_order(self):
        backend = SerialBackend()
        tasks = [SquareTask(v) for v in range(6)]
        assert backend.run_tasks(tasks) == [v * v for v in range(6)]

    def test_empty_batch(self):
        assert SerialBackend().run_tasks([]) == []

    def test_context_manager(self):
        with SerialBackend() as backend:
            assert backend.workers == 1


class TestFanOutRanges:
    """The one rule for splitting a batch of items over a backend."""

    def test_in_process_without_pool(self):
        assert fan_out_ranges(100, None) is None
        assert fan_out_ranges(100, SerialBackend()) is None
        assert fan_out_ranges(100, ProcessPoolBackend(1)) is None

    def test_in_process_below_two_items_per_worker(self):
        backend = ProcessPoolBackend(4)  # lazy: no pool is started
        assert fan_out_ranges(0, backend) is None
        assert fan_out_ranges(7, backend) is None
        assert fan_out_ranges(8, backend) == [(k, k + 1) for k in range(8)]

    @pytest.mark.parametrize("n_items", [4, 5, 9, 10, 37, 1000])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_ranges_tile_in_order(self, n_items, workers):
        ranges = fan_out_ranges(n_items, ProcessPoolBackend(workers))
        if n_items < 2 * workers:
            assert ranges is None
            return
        assert len(ranges) == 2 * workers
        assert ranges[0][0] == 0 and ranges[-1][1] == n_items
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in ranges]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


class TestTaskPickling:
    def test_square_task_satisfies_protocol(self):
        assert isinstance(SquareTask(2), Task)

    def test_replicate_task_roundtrips(self, tiny_app, dedicated_system):
        task = ReplicateTask(
            app=tiny_app,
            group=dedicated_system.group("fast", 4),
            technique=make_technique("FAC"),
            seeds=replication_seeds(7, 3),
            config=LoopSimConfig(overhead=0.5),
            tag=("case1", "FAC", "tiny"),
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone.run() == task.run()


class TestProcessPoolBackend:
    def test_matches_serial_order_and_values(self, pool):
        tasks = [SquareTask(v) for v in range(8)]
        assert pool.run_tasks(tasks) == SerialBackend().run_tasks(tasks)

    def test_empty_batch_skips_pool_spinup(self, pool):
        assert pool.run_tasks([]) == []
        assert pool._executor is None

    def test_executor_persists_across_batches(self, pool):
        pool.run_tasks([SquareTask(1)])
        first = pool._executor
        pool.run_tasks([SquareTask(2)])
        assert pool._executor is first
        pool.close()
        assert pool._executor is None

    def test_replications_identical_to_serial(
        self, pool, tiny_app, dedicated_system
    ):
        group = dedicated_system.group("fast", 4)
        kwargs = dict(
            replications=4, seed=11, config=LoopSimConfig(overhead=0.5)
        )
        serial = replicate_application(
            tiny_app, group, make_technique("FAC"), **kwargs
        )
        pooled = replicate_application(
            tiny_app, group, make_technique("FAC"), backend=pool, **kwargs
        )
        assert pooled.makespans == serial.makespans


@dataclass(frozen=True)
class KillOnceTask:
    """Kills its worker process the first time it runs, then succeeds.

    The sentinel file records that the kill already happened, so the
    retried submission completes normally.
    """

    sentinel: str
    value: int

    def run(self) -> int:
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        return self.value * 10


@dataclass(frozen=True)
class FailingTask:
    """Raises a deterministic in-task error."""

    def run(self) -> None:
        raise ValueError("deliberate task failure")


class TestPoolResilience:
    def test_survives_killed_worker(self, pool):
        """A SIGKILLed worker breaks the pool; the backend rebuilds it
        and re-submits the unfinished tasks, completing the batch."""
        sentinel = tempfile.mktemp(prefix="repro-kill-")
        tasks = [
            SquareTask(1),
            KillOnceTask(sentinel, 7),
            SquareTask(2),
            SquareTask(3),
        ]
        try:
            assert pool.run_tasks(tasks) == [1, 70, 4, 9]
        finally:
            if os.path.exists(sentinel):
                os.remove(sentinel)

    def test_pool_usable_after_recovery(self, pool):
        sentinel = tempfile.mktemp(prefix="repro-kill-")
        try:
            pool.run_tasks([KillOnceTask(sentinel, 1)])
        finally:
            if os.path.exists(sentinel):
                os.remove(sentinel)
        assert pool.run_tasks([SquareTask(4)]) == [16]

    def test_task_error_wrapped_and_named(self, pool):
        with pytest.raises(ExecutionError, match="FailingTask"):
            pool.run_tasks([SquareTask(1), FailingTask()])

    def test_task_error_not_retried(self, pool):
        """A raising task fails the batch immediately (deterministic
        errors are not worth pool rebuilds)."""
        with pytest.raises(ExecutionError, match="deliberate"):
            pool.run_tasks([FailingTask()])

    def test_retries_counted_when_observed(self, pool):
        sentinel = tempfile.mktemp(prefix="repro-kill-")
        try:
            with obs.observed() as session:
                result = pool.run_tasks(
                    [SquareTask(2), KillOnceTask(sentinel, 3)]
                )
            assert result == [4, 30]
            counters = session.metrics.snapshot()["counters"]
            assert counters["exec.retries"] >= 1.0
            assert counters["exec.tasks"] == 2.0
        finally:
            if os.path.exists(sentinel):
                os.remove(sentinel)


class TestWorkerObservability:
    def test_adopted_spans_carry_worker_attribute(
        self, pool, tiny_app, dedicated_system
    ):
        group = dedicated_system.group("fast", 4)
        with obs.observed() as session:
            with obs.span("parent"):
                replicate_application(
                    tiny_app,
                    group,
                    make_technique("FAC"),
                    replications=4,
                    seed=3,
                    backend=pool,
                )
        records = session.tracer.records()
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        adopted = by_name.get("sim.replicate", [])
        assert adopted, "worker spans were not merged into the parent trace"
        parent_ids = {r["id"] for r in by_name["parent"]}
        for record in adopted:
            assert record["attrs"]["worker"] > 0
            assert record["parent"] in parent_ids
        # Worker sim.app spans reparent under the adopted roots.
        replicate_ids = {r["id"] for r in adopted}
        assert any(
            r["parent"] in replicate_ids for r in by_name.get("sim.app", [])
        )

    def test_worker_metrics_merge_into_parent(
        self, pool, tiny_app, dedicated_system
    ):
        group = dedicated_system.group("fast", 4)
        with obs.observed() as session:
            replicate_application(
                tiny_app,
                group,
                make_technique("FAC"),
                replications=4,
                seed=3,
                backend=pool,
            )
        counters = session.metrics.snapshot()["counters"]
        assert counters["exec.tasks"] >= 1
        assert counters["sim.apps"] == 4.0

    def test_unobserved_run_stays_unobserved(self, pool):
        assert obs.current() is None
        assert pool.run_tasks([SquareTask(3)]) == [9]
