"""Unit tests of the fault-injection subsystem (repro.faults)."""

import math

import numpy as np
import pytest

from repro.dls import make_technique
from repro.errors import FaultError, SchedulingError
from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    apply_degradations,
    degraded_boundaries,
)
from repro.rng import DEFAULT_SEED
from repro.sim import LoopSimConfig, simulate_application


@pytest.fixture
def group(dedicated_system):
    return dedicated_system.group("fast", 4)


NO_OVERHEAD = LoopSimConfig(overhead=0.0)


class TestFaultEvent:
    def test_crash_defaults(self):
        e = FaultEvent(time=5.0, worker=1)
        assert e.kind == "crash"
        assert e.end == 5.0

    def test_end_of_degradation(self):
        e = FaultEvent(time=5.0, worker=0, kind="blackout", duration=3.0)
        assert e.end == pytest.approx(8.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"time": -1.0, "worker": 0},
            {"time": 0.0, "worker": -1},
            {"time": 0.0, "worker": 0, "kind": "meteor"},
            {"time": 0.0, "worker": 0, "kind": "blackout"},  # no duration
            {"time": 0.0, "worker": 0, "kind": "slowdown", "duration": 1.0},
            # slowdown factor must exceed 1
            # NaN fails every comparison, so each check must reject it:
            {"time": math.nan, "worker": 0},
            {"time": 0.0, "worker": 0, "kind": "blackout", "duration": math.nan},
            {"time": 0.0, "worker": 0, "kind": "slowdown", "duration": 1.0,
             "factor": math.nan},
        ],
    )
    def test_invalid_events_rejected(self, kwargs):
        with pytest.raises(FaultError):
            FaultEvent(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"time": math.inf, "worker": 0}, "time"),
            # An infinite blackout alone made the makespan infinite; with
            # a blackout rate beside it the simulator never returned.
            ({"time": 5.0, "worker": 0, "kind": "blackout", "duration": math.inf},
             "duration"),
            ({"time": 5.0, "worker": 0, "kind": "slowdown", "duration": 1.0,
              "factor": math.inf}, "factor"),
            ({"time": 5.0, "worker": 0, "duration": math.inf}, "duration"),
        ],
    )
    def test_non_finite_events_rejected(self, kwargs, field):
        with pytest.raises(FaultError, match=f"fault {field} must be finite"):
            FaultEvent(**kwargs)

    def test_events_order_by_time(self):
        a = FaultEvent(time=1.0, worker=3)
        b = FaultEvent(time=2.0, worker=0)
        assert sorted([b, a])[0] is a


class TestFaultPlan:
    def test_default_is_zero(self):
        assert FaultPlan().is_zero

    def test_scripted_event_is_not_zero(self):
        plan = FaultPlan(events=(FaultEvent(time=1.0, worker=0),))
        assert not plan.is_zero

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": -0.1},
            {"blackout_rate": 0.1, "blackout_duration": 0.0},
            {"slowdown_rate": 0.1, "slowdown_factor": 1.0},
            {"failover_delay": -1.0},
            {"crash_rate": math.nan},
            {"blackout_rate": 0.1, "blackout_duration": math.nan},
            {"slowdown_rate": 0.1, "slowdown_factor": math.nan},
            {"failover_delay": math.nan},
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(FaultError):
            FaultPlan(**kwargs)

    @pytest.mark.parametrize(
        "field",
        [
            # Infinite blackout/slowdown rates, blackout durations and
            # slowdown factors hung the simulator; an infinite crash rate
            # crashed every worker but one at t = 0, and an infinite
            # slowdown duration made every slowdown permanent.
            "crash_rate",
            "blackout_rate",
            "blackout_duration",
            "slowdown_rate",
            "slowdown_duration",
            "slowdown_factor",
            "failover_delay",
        ],
    )
    def test_non_finite_plans_rejected(self, field):
        with pytest.raises(FaultError, match=f"^{field} must be finite, got inf"):
            FaultPlan(**{field: math.inf})

    @pytest.mark.parametrize("intensity", [math.inf, math.nan, 0.0, -1e-3])
    def test_chaos_intensity_named(self, intensity):
        # chaos(nan) used to fail on "crash_rate", a field the caller
        # never passed; chaos(inf) hung the simulator.
        with pytest.raises(FaultError, match="chaos intensity must be finite"):
            FaultPlan.chaos(intensity)

    def test_chaos_scales_with_intensity(self):
        plan = FaultPlan.chaos(1e-3)
        assert not plan.is_zero
        assert plan.crash_rate == pytest.approx(2e-4)
        assert plan.blackout_rate == pytest.approx(1e-3)
        assert plan.failover_delay > 0

    def test_kinds_registry(self):
        assert set(FAULT_KINDS) == {"crash", "blackout", "slowdown"}


class TestFaultInjector:
    def test_zero_plan_realizes_nothing(self):
        inj = FaultPlan().realize(7, 4)
        for w in range(4):
            assert inj.crash_time(w) is None
            assert inj.degradations_until(w, 1e9) == []

    def test_deterministic_for_fixed_seed(self):
        plan = FaultPlan.chaos(1e-2)
        a = plan.realize(42, 4)
        b = plan.realize(42, 4)
        for w in range(4):
            assert a.crash_time(w) == b.crash_time(w)
            assert a.degradations_until(w, 5000.0) == b.degradations_until(
                w, 5000.0
            )

    def test_seed_changes_the_draw(self):
        plan = FaultPlan.chaos(1e-2)
        a = plan.realize(1, 4)
        b = plan.realize(2, 4)
        assert [a.crash_time(w) for w in range(4)] != [
            b.crash_time(w) for w in range(4)
        ]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            FaultPlan.chaos().realize(-3, 2)

    def test_scripted_crash_beats_drawn(self):
        plan = FaultPlan(
            crash_rate=1e-9,  # drawn crash lands astronomically late
            events=(FaultEvent(time=10.0, worker=2),),
        )
        inj = plan.realize(0, 4)
        assert inj.crash_time(2) == pytest.approx(10.0)
        assert inj.crash_time(0) is not None  # drawn, far away
        assert inj.crash_time(0) > 1e6

    def test_degradations_materialize_in_time_order(self):
        plan = FaultPlan(blackout_rate=1e-2, blackout_duration=5.0)
        inj = plan.realize(3, 2)
        events = inj.degradations_until(0, 2000.0)
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(e.kind == "blackout" for e in events)
        # The horizon only ever grows the prefix.
        assert inj.degradations_until(0, 500.0) == events[: len(
            inj.degradations_until(0, 500.0)
        )]

    def test_worker_out_of_range(self):
        inj = FaultPlan().realize(0, 2)
        with pytest.raises(FaultError):
            inj.crash_time(2)
        with pytest.raises(FaultError):
            inj.degradations_until(-1, 10.0)

    def test_scripted_event_beyond_group_rejected(self):
        plan = FaultPlan(events=(FaultEvent(time=1.0, worker=9),))
        with pytest.raises(FaultError):
            plan.realize(0, 4)
        with pytest.raises(FaultError):
            FaultInjector(plan, seed=0, n_workers=4)


class TestApplyDegradations:
    def test_blackout_shifts_later_boundaries(self):
        boundaries = np.array([1.0, 2.0, 3.0, 4.0])
        event = FaultEvent(time=1.5, worker=0, kind="blackout", duration=2.0)
        adjusted, applied = apply_degradations(0.0, boundaries, [event])
        assert applied == 1
        assert adjusted == pytest.approx([1.0, 4.0, 5.0, 6.0])

    def test_blackout_straddling_window_start_is_discounted(self):
        # Blackout [2, 6) against a window starting at 5: only the last
        # time unit of the pause stalls this chunk.
        boundaries = np.array([7.0, 9.0])
        event = FaultEvent(time=2.0, worker=0, kind="blackout", duration=4.0)
        adjusted, applied = apply_degradations(5.0, boundaries, [event])
        assert applied == 1
        assert adjusted == pytest.approx([8.0, 10.0])

    def test_event_outside_window_ignored(self):
        boundaries = np.array([3.0])
        before = FaultEvent(time=0.5, worker=0, kind="blackout", duration=1.0)
        after = FaultEvent(time=3.0, worker=0, kind="blackout", duration=1.0)
        adjusted, applied = apply_degradations(2.0, boundaries, [before, after])
        assert applied == 0
        assert adjusted == pytest.approx([3.0])

    def test_slowdown_stretches_overlap(self):
        boundaries = np.array([10.0])
        event = FaultEvent(
            time=2.0, worker=0, kind="slowdown", duration=4.0, factor=2.0
        )
        adjusted, applied = apply_degradations(0.0, boundaries, [event])
        # overlap [2, 6) runs 2x slower: +4 time units.
        assert applied == 1
        assert adjusted == pytest.approx([14.0])

    def test_pause_exposes_later_event_via_fixpoint(self):
        # One blackout pushes the finish past a second blackout that the
        # un-degraded timeline would never have reached.
        plan = FaultPlan(
            events=(
                FaultEvent(time=1.0, worker=0, kind="blackout", duration=5.0),
                FaultEvent(time=8.0, worker=0, kind="blackout", duration=5.0),
            )
        )
        inj = plan.realize(0, 1)
        boundaries = np.array([2.0, 4.0])
        adjusted, applied = degraded_boundaries(inj, 0, 0.0, boundaries)
        # First pause: [2, 4] -> [7, 9]; finish 9 now overlaps the
        # second blackout at 8, adding 5 more to boundaries past 8.
        assert applied == 2
        assert adjusted == pytest.approx([7.0, 14.0])


class TestRequeue:
    def _session(self, n=100, workers=4):
        from repro.dls import WorkerState

        states = [WorkerState(worker_id=i) for i in range(workers)]
        return make_technique("FAC").session(n, states)

    def test_requeue_returns_iterations(self):
        session = self._session()
        size = session.next_chunk(0)
        before = session.remaining
        session.requeue(size)
        assert session.remaining == before + size

    def test_requeued_work_is_redispatched(self):
        session = self._session(n=10, workers=2)
        total = 0
        first = session.next_chunk(0)
        session.requeue(first)
        while (size := session.next_chunk(1)) > 0:
            total += size
        assert total == 10

    @pytest.mark.parametrize("bad", [0, -3])
    def test_non_positive_requeue_rejected(self, bad):
        session = self._session()
        session.next_chunk(0)
        with pytest.raises(SchedulingError):
            session.requeue(bad)

    def test_requeue_more_than_scheduled_rejected(self):
        session = self._session()
        size = session.next_chunk(0)
        with pytest.raises(SchedulingError):
            session.requeue(size + 1)


class TestSimulationUnderFaults:
    def test_zero_rate_plan_bit_for_bit_identical(self, tiny_app, group):
        base = simulate_application(
            tiny_app, group, make_technique("FAC"), seed=5, config=NO_OVERHEAD
        )
        zero = simulate_application(
            tiny_app, group, make_technique("FAC"), seed=5,
            config=LoopSimConfig(overhead=0.0, faults=FaultPlan()),
        )
        assert zero.makespan == base.makespan
        assert zero.chunks == base.chunks
        assert zero.worker_finish_times == base.worker_finish_times
        assert zero.crashed_workers == ()
        assert zero.rescheduled_iterations == 0

    def test_no_seed_replays_the_default_root(
        self, paper_like_batch, paper_like_system
    ):
        """Fault draws follow the same default root as the worker streams."""
        app = paper_like_batch.app("app3")
        group = paper_like_system.group("type2", 8)
        config = LoopSimConfig(faults=FaultPlan.chaos(1e-3))
        a, b, default = (
            simulate_application(
                app, group, make_technique("FAC"), seed=seed, config=config
            )
            for seed in (None, None, DEFAULT_SEED)
        )
        assert a.degradations_applied > 0
        assert a.makespan == b.makespan == default.makespan
        assert a.chunks == b.chunks == default.chunks

    def test_scripted_crash_conserves_iterations(self, tiny_app, group):
        # tiny_app: 10 serial + 100 parallel iterations of 1.0 each, so
        # worker 1 is mid-chunk at t=15 under every technique.
        plan = FaultPlan(events=(FaultEvent(time=15.0, worker=1),))
        result = simulate_application(
            tiny_app, group, make_technique("FAC"), seed=5,
            config=LoopSimConfig(overhead=0.0, faults=plan),
        )
        assert result.iterations_executed == tiny_app.n_parallel
        assert sum(c.size for c in result.chunks) == tiny_app.n_parallel
        assert result.crashed_workers == (1,)
        assert result.rescheduled_iterations > 0
        # The dead worker takes no chunks after its crash time.
        assert all(
            c.request_time < 15.0
            for c in result.chunks
            if c.worker_id == 1
        )

    def test_crash_delays_completion(self, tiny_app, group):
        base = simulate_application(
            tiny_app, group, make_technique("FAC"), seed=5, config=NO_OVERHEAD
        )
        plan = FaultPlan(events=(FaultEvent(time=15.0, worker=1),))
        crashed = simulate_application(
            tiny_app, group, make_technique("FAC"), seed=5,
            config=LoopSimConfig(overhead=0.0, faults=plan),
        )
        assert crashed.makespan > base.makespan

    def test_master_failover_best_available(self, tiny_app, group):
        config = LoopSimConfig(
            overhead=0.0,
            master_policy="best-available",
            faults=FaultPlan(
                events=(FaultEvent(time=15.0, worker=0),),
                failover_delay=5.0,
            ),
        )
        base = simulate_application(
            tiny_app, group, make_technique("FAC"), seed=5,
            config=LoopSimConfig(overhead=0.0, master_policy="best-available"),
        )
        assert base.master_id == 0  # dedicated system: ties break low
        result = simulate_application(
            tiny_app, group, make_technique("FAC"), seed=5, config=config
        )
        assert result.iterations_executed == tiny_app.n_parallel
        assert len(result.master_failovers) == 1
        failover = result.master_failovers[0]
        assert failover.old_master == 0
        assert failover.new_master != 0
        assert result.master_id == failover.new_master

    def test_all_workers_crash_last_survivor_finishes(self, tiny_app, group):
        plan = FaultPlan(
            events=tuple(
                FaultEvent(time=12.0 + i, worker=i) for i in range(4)
            )
        )
        result = simulate_application(
            tiny_app, group, make_technique("FAC"), seed=5,
            config=LoopSimConfig(overhead=0.0, faults=plan),
        )
        assert result.iterations_executed == tiny_app.n_parallel
        # Exactly one designated survivor keeps computing.
        assert len(result.crashed_workers) == 3

    def test_blackout_stretches_makespan(self, tiny_app, group):
        base = simulate_application(
            tiny_app, group, make_technique("STATIC"), seed=5,
            config=NO_OVERHEAD,
        )
        plan = FaultPlan(
            events=(
                FaultEvent(
                    time=15.0, worker=1, kind="blackout", duration=40.0
                ),
            )
        )
        result = simulate_application(
            tiny_app, group, make_technique("STATIC"), seed=5,
            config=LoopSimConfig(overhead=0.0, faults=plan),
        )
        assert result.degradations_applied >= 1
        assert result.makespan == pytest.approx(base.makespan + 40.0)

    def test_contract_checked_under_validation(self, tiny_app, group):
        import repro.contracts as contracts

        plan = FaultPlan(events=(FaultEvent(time=15.0, worker=1),))
        with contracts.validation(True):
            result = simulate_application(
                tiny_app, group, make_technique("FAC"), seed=5,
                config=LoopSimConfig(overhead=0.0, faults=plan),
            )
        assert result.iterations_executed == tiny_app.n_parallel


class TestZeroChunkWorkers:
    def test_never_dispatched_worker_reports_loop_start(
        self, dedicated_system
    ):
        """Regression: a worker that never receives a chunk must report
        the loop start (its pre-seeded finish time), not be dropped."""
        from repro.apps import Application, normal_exectime_model

        app = Application(
            "two",
            n_serial=10,
            n_parallel=2,
            exec_time=normal_exectime_model({"fast": 12.0}, cv=0.0),
            iteration_cv=0.0,
        )
        group = dedicated_system.group("fast", 4)
        result = simulate_application(
            app, group, make_technique("SS"), seed=0, config=NO_OVERHEAD
        )
        per_worker = result.iterations_per_worker()
        idle = [w for w, n in per_worker.items() if n == 0]
        assert len(idle) == 2  # SS hands 1 iteration to each of 2 workers
        for w in idle:
            assert result.worker_finish_times[w] == pytest.approx(
                result.serial_time
            )
        assert result.iterations_executed == 2
