"""Unit tests of the loop-scheduling simulation (repro.sim.loopsim)."""

import math

import pytest

from repro.apps import Application, normal_exectime_model
from repro.dls import ALL_TECHNIQUES, SchedulingSession, make_technique
from repro.errors import SimulationError
from repro.faults import FaultPlan
from repro.sim import (
    LoopSimConfig,
    replicate_application,
    simulate_application,
)
from repro.system import (
    ConstantAvailability,
    TraceAvailability,
)


@pytest.fixture
def group(dedicated_system):
    return dedicated_system.group("fast", 4)


NO_OVERHEAD = LoopSimConfig(overhead=0.0)


class TestDeterministicExecution:
    def test_static_equals_amdahl(self, tiny_app, group):
        """On dedicated processors with no noise, STATIC realizes Eq. (2)."""
        result = simulate_application(
            tiny_app, group, make_technique("STATIC"), seed=0, config=NO_OVERHEAD
        )
        # serial: 10 iters x 1.0; parallel: 100 iters / 4 procs x 1.0.
        assert result.serial_time == pytest.approx(10.0)
        assert result.makespan == pytest.approx(10.0 + 25.0)

    def test_all_iterations_executed(self, tiny_app, group):
        for name in sorted(ALL_TECHNIQUES):
            result = simulate_application(
                tiny_app, group, make_technique(name), seed=1, config=NO_OVERHEAD
            )
            assert result.iterations_executed == tiny_app.n_parallel, name
            total = sum(c.size for c in result.chunks)
            assert total == tiny_app.n_parallel, name

    def test_makespan_is_max_finish(self, tiny_app, group):
        result = simulate_application(
            tiny_app, group, make_technique("FAC"), seed=2, config=NO_OVERHEAD
        )
        assert result.makespan == pytest.approx(
            max(c.finish_time for c in result.chunks)
        )
        assert result.parallel_time == pytest.approx(
            result.makespan - result.serial_time
        )

    def test_overhead_increases_makespan(self, tiny_app, group):
        fast = simulate_application(
            tiny_app, group, make_technique("SS"), seed=3, config=NO_OVERHEAD
        )
        slow = simulate_application(
            tiny_app, group, make_technique("SS"), seed=3,
            config=LoopSimConfig(overhead=0.5),
        )
        assert slow.makespan > fast.makespan

    def test_no_serial_phase_option(self, group):
        # An application without serial iterations runs no serial phase.
        app = Application(
            "loop-only", 0, 100,
            normal_exectime_model({"fast": 100.0}, cv=0.0),
            iteration_cv=0.0,
        )
        result = simulate_application(
            app, group, make_technique("STATIC"), seed=0, config=NO_OVERHEAD,
        )
        assert result.serial_time == 0.0
        assert result.master_id is None
        assert result.makespan == pytest.approx(25.0)

    def test_chunk_records_ordered(self, tiny_app, group):
        result = simulate_application(
            tiny_app, group, make_technique("GSS"), seed=4, config=NO_OVERHEAD
        )
        for c in result.chunks:
            assert c.finish_time >= c.start_time >= c.request_time
            assert c.elapsed >= 0.0


class TestAvailabilityEffects:
    def test_constant_availability_override(self, tiny_app, group):
        result = simulate_application(
            tiny_app, group, make_technique("STATIC"), seed=0,
            config=NO_OVERHEAD,
            availability=ConstantAvailability(0.5),
        )
        # Everything takes twice as long.
        assert result.makespan == pytest.approx(2 * 35.0)

    def test_per_worker_availability_list(self, tiny_app, group):
        # One crippled worker: STATIC should be dragged by it, DLS not.
        avail = [ConstantAvailability(1.0)] * 3 + [ConstantAvailability(0.1)]
        static = simulate_application(
            tiny_app, group, make_technique("STATIC"), seed=0,
            config=NO_OVERHEAD, availability=avail,
        )
        fac = simulate_application(
            tiny_app, group, make_technique("AWF-C"), seed=0,
            config=NO_OVERHEAD, availability=avail,
        )
        # STATIC: slow worker does 25 iterations at rate 0.1 = 250 units.
        assert static.makespan == pytest.approx(260.0)
        assert fac.makespan < static.makespan

    def test_wrong_length_list_rejected(self, tiny_app, group):
        with pytest.raises(SimulationError):
            simulate_application(
                tiny_app, group, make_technique("STATIC"),
                availability=[ConstantAvailability(1.0)] * 3,
            )

    def test_master_policy_best_available(self, tiny_app, group):
        trace_bad = TraceAvailability(((1e6, 0.1),))
        trace_good = TraceAvailability(((1e6, 1.0),))
        avail = [trace_bad, trace_good, trace_good, trace_good]
        first = simulate_application(
            tiny_app, group, make_technique("STATIC"), seed=0,
            config=LoopSimConfig(overhead=0.0, master_policy="first"),
            availability=avail,
        )
        best = simulate_application(
            tiny_app, group, make_technique("STATIC"), seed=0,
            config=LoopSimConfig(overhead=0.0, master_policy="best-available"),
            availability=avail,
        )
        # Serial on worker 0 (alpha=0.1) takes 100; on a good worker, 10.
        assert first.serial_time == pytest.approx(100.0)
        assert best.serial_time == pytest.approx(10.0)


class TestReproducibility:
    def test_same_seed_same_result(self, paper_like_batch, paper_like_system):
        app = paper_like_batch.app("app3")
        group = paper_like_system.group("type2", 8)
        a = simulate_application(app, group, make_technique("FAC"), seed=11)
        b = simulate_application(app, group, make_technique("FAC"), seed=11)
        assert a.makespan == b.makespan
        assert [c.size for c in a.chunks] == [c.size for c in b.chunks]

    def test_different_seed_differs(self, paper_like_batch, paper_like_system):
        app = paper_like_batch.app("app3")
        group = paper_like_system.group("type2", 8)
        a = simulate_application(app, group, make_technique("FAC"), seed=11)
        b = simulate_application(app, group, make_technique("FAC"), seed=12)
        assert a.makespan != b.makespan


class TestReplication:
    def test_stats(self, tiny_app, group):
        stats = replicate_application(
            tiny_app, group, make_technique("STATIC"),
            replications=5, seed=0, config=NO_OVERHEAD,
        )
        assert len(stats.makespans) == 5
        assert stats.minimum <= stats.mean <= stats.maximum
        # Deterministic app on dedicated processors: all equal.
        assert stats.std == pytest.approx(0.0)
        assert stats.prob_leq(35.0) == 1.0
        assert stats.prob_leq(1.0) == 0.0

    def test_replications_validated(self, tiny_app, group):
        with pytest.raises(SimulationError):
            replicate_application(
                tiny_app, group, make_technique("STATIC"), replications=0
            )

    def test_no_seed_means_fresh_entropy(
        self, paper_like_batch, paper_like_system
    ):
        """``seed=None`` draws a new experiment, not a replay of seed 0."""
        app = paper_like_batch.app("app1")
        group = paper_like_system.group("type1", 2)
        a = replicate_application(
            app, group, make_technique("FAC"), replications=3, seed=None
        )
        b = replicate_application(
            app, group, make_technique("FAC"), replications=3, seed=None
        )
        zero = replicate_application(
            app, group, make_technique("FAC"), replications=3, seed=0
        )
        assert a.makespans != b.makespans
        assert a.makespans != zero.makespans

    def test_explicit_seed_reproducible(
        self, paper_like_batch, paper_like_system
    ):
        app = paper_like_batch.app("app1")
        group = paper_like_system.group("type1", 2)
        a = replicate_application(
            app, group, make_technique("FAC"), replications=3, seed=17
        )
        b = replicate_application(
            app, group, make_technique("FAC"), replications=3, seed=17
        )
        assert a.makespans == b.makespans

    def test_prefix_stability(self, paper_like_batch, paper_like_system):
        """Extending the replication count keeps the earlier replications."""
        app = paper_like_batch.app("app1")
        group = paper_like_system.group("type1", 2)
        five = replicate_application(
            app, group, make_technique("FAC"), replications=5, seed=9
        )
        ten = replicate_application(
            app, group, make_technique("FAC"), replications=10, seed=9
        )
        assert ten.makespans[:5] == five.makespans


class TestEveryTechnique:
    """Record invariants of the loop simulator under every DLS technique.

    ``tiny_app`` (1-unit iterations, no noise) on four workers whose
    constant availabilities differ, with a per-chunk overhead, so every
    chunk's timing is known in closed form.
    """

    LEVELS = (1.0, 0.5, 0.5, 0.25)
    OVERHEAD = 0.5

    @pytest.fixture(params=sorted(ALL_TECHNIQUES))
    def result(self, request, tiny_app, group):
        return simulate_application(
            tiny_app, group, make_technique(request.param), seed=1,
            config=LoopSimConfig(overhead=self.OVERHEAD),
            availability=[ConstantAvailability(level) for level in self.LEVELS],
        )

    @staticmethod
    def by_worker(result):
        chunks = {}
        for c in result.chunks:
            chunks.setdefault(c.worker_id, []).append(c)
        return chunks

    def test_chunks_on_a_worker_never_overlap(self, result):
        for chunks in self.by_worker(result).values():
            assert chunks[0].request_time >= result.serial_time
            for prev, nxt in zip(chunks, chunks[1:]):
                assert nxt.request_time >= prev.finish_time

    def test_worker_finish_time_is_its_last_chunk(self, result):
        for wid, chunks in self.by_worker(result).items():
            assert result.worker_finish_times[wid] == pytest.approx(
                max(c.finish_time for c in chunks)
            )

    def test_chunk_time_is_work_over_availability(self, result):
        for c in result.chunks:
            assert c.start_time == pytest.approx(c.request_time + self.OVERHEAD)
            assert c.elapsed == pytest.approx(c.size / self.LEVELS[c.worker_id])

    def test_no_worker_idles_while_work_remains(self, result):
        # Self-scheduling keeps every worker busy until the last dispatch,
        # so that dispatch comes no later than the busy time spread evenly.
        busy = sum(c.elapsed + self.OVERHEAD for c in result.chunks)
        last_dispatch = max(c.request_time for c in result.chunks)
        assert last_dispatch <= result.serial_time + busy / len(self.LEVELS) + 1e-9


FIXED_RULE = sorted(
    name for name, cls in ALL_TECHNIQUES.items() if not cls.adaptive
)


class TestMeasurement:
    """Only sessions of adaptive techniques are measured.

    ``run_parallel_loop`` skips the wall times and ``record`` when the
    technique's ``adaptive`` flag is false; forcing the flag on must
    change nothing for a technique whose chunk rule reads no measurements.
    """

    @pytest.fixture
    def setup(self, paper_like_batch, paper_like_system):
        return paper_like_batch.app("app3"), paper_like_system.group("type2", 8)

    @pytest.mark.parametrize(
        "plan", [None, FaultPlan.chaos(1e-3)], ids=["clean", "chaos"]
    )
    @pytest.mark.parametrize("name", FIXED_RULE)
    def test_forced_measurement_changes_nothing(
        self, setup, name, plan, monkeypatch
    ):
        app, group = setup
        technique = make_technique(name)
        config = LoopSimConfig(faults=plan)
        plain = simulate_application(app, group, technique, seed=5, config=config)
        monkeypatch.setattr(type(technique), "adaptive", True)
        measured = simulate_application(
            app, group, technique, seed=5, config=config
        )
        assert measured == plain  # makespan, chunks, finish times, faults
        if plan is not None:
            assert plain.degradations_applied > 0

    @pytest.mark.parametrize("name", ["FAC", "WF", "AWF-B", "AF"])
    def test_record_called_only_for_adaptive(self, setup, name, monkeypatch):
        app, group = setup
        calls = []
        record = SchedulingSession.record

        def spy(self, *args, **kwargs):
            calls.append(args[0])
            return record(self, *args, **kwargs)

        monkeypatch.setattr(SchedulingSession, "record", spy)
        technique = make_technique(name)
        result = simulate_application(app, group, technique, seed=5)
        # Each completed chunk is recorded at its worker's next request.
        assert len(calls) == (len(result.chunks) if technique.adaptive else 0)


class TestConfigValidation:
    def test_bad_overhead(self):
        with pytest.raises(SimulationError):
            LoopSimConfig(overhead=-1.0)

    def test_bad_interval(self):
        with pytest.raises(SimulationError):
            LoopSimConfig(availability_interval=0.0)

    @pytest.mark.parametrize("overhead", [math.nan, math.inf])
    def test_non_finite_overhead_rejected(self, overhead):
        with pytest.raises(SimulationError, match="overhead"):
            LoopSimConfig(overhead=overhead)

    def test_nan_interval_rejected(self):
        with pytest.raises(SimulationError, match="availability_interval"):
            LoopSimConfig(availability_interval=math.nan)

    def test_bad_master_policy(self):
        with pytest.raises(SimulationError):
            LoopSimConfig(master_policy="wat")
