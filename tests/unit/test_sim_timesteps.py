"""Unit tests of the time-stepping simulation (repro.sim.timesteps)."""

import pytest

from repro import obs
from repro.apps import Application, normal_exectime_model
from repro.dls import ALL_TECHNIQUES, make_technique
from repro.errors import SimulationError
from repro.faults import FaultEvent, FaultPlan
from repro.sim import LoopSimConfig, simulate_application, simulate_timestepped
from repro.system import ConstantAvailability, HeterogeneousSystem, ProcessorType


@pytest.fixture
def system():
    return HeterogeneousSystem([ProcessorType("t", 4)])


@pytest.fixture
def app():
    return Application(
        "ts", 8, 400,
        normal_exectime_model({"t": 408.0}, cv=0.0),
        iteration_cv=0.0,
    )


NO_OVERHEAD = LoopSimConfig(overhead=0.0)


class TestTimestepped:
    def test_steps_contiguous(self, app, system):
        result = simulate_timestepped(
            app, system.group("t", 4), make_technique("FAC"),
            n_timesteps=4, seed=0, config=NO_OVERHEAD,
        )
        assert len(result.steps) == 4
        for prev, nxt in zip(result.steps, result.steps[1:]):
            assert nxt.start_time == pytest.approx(prev.finish_time)
        assert result.makespan == result.steps[-1].finish_time

    def test_every_step_executes_all_iterations(self, app, system):
        result = simulate_timestepped(
            app, system.group("t", 4), make_technique("AWF"),
            n_timesteps=3, seed=1, config=NO_OVERHEAD,
        )
        for step in result.steps:
            assert sum(c.size for c in step.chunks) == app.n_parallel

    def test_deterministic_app_constant_steps(self, app, system):
        result = simulate_timestepped(
            app, system.group("t", 4), make_technique("STATIC"),
            n_timesteps=3, seed=2, config=NO_OVERHEAD,
        )
        durations = result.step_durations
        assert durations[0] == pytest.approx(durations[1])
        # serial 8 iters x 1.0 + parallel 400/4 x 1.0 = 108 per step.
        assert durations[0] == pytest.approx(108.0)

    def test_awf_improves_across_timesteps(self, system):
        """AWF learns a persistently slow worker between timesteps."""
        app = Application(
            "ts", 0, 400,
            normal_exectime_model({"t": 400.0}, cv=0.0),
            iteration_cv=0.0,
        )
        models = [ConstantAvailability(1.0)] * 3 + [ConstantAvailability(0.2)]
        awf = simulate_timestepped(
            app, system.group("t", 4), make_technique("AWF"),
            n_timesteps=4, seed=3, config=NO_OVERHEAD, availability=models,
        )
        # First step: uniform weights; later steps: adapted -> faster.
        assert awf.improvement_ratio() > 1.1
        wf = simulate_timestepped(
            app, system.group("t", 4), make_technique("WF"),
            n_timesteps=4, seed=3, config=NO_OVERHEAD, availability=models,
        )
        # WF never adapts: no systematic improvement.
        assert awf.steps[-1].duration < wf.steps[-1].duration

    def test_reproducible(self, app, system):
        a = simulate_timestepped(
            app, system.group("t", 4), make_technique("AF"),
            n_timesteps=2, seed=5,
        )
        b = simulate_timestepped(
            app, system.group("t", 4), make_technique("AF"),
            n_timesteps=2, seed=5,
        )
        assert a.makespan == b.makespan

    def test_validation(self, app, system):
        with pytest.raises(SimulationError):
            simulate_timestepped(
                app, system.group("t", 4), make_technique("FAC"),
                n_timesteps=0,
            )

    def test_crashed_master_serves_no_later_step(self, app, system):
        """A master that crashed in step 0 runs no later serial phase."""
        plan = FaultPlan(
            events=(FaultEvent(time=30.0, worker=0),), failover_delay=7.0
        )
        config = LoopSimConfig(overhead=0.0, master_policy="first", faults=plan)
        # Worker 0 (the first master) runs at half speed: 8 serial
        # iterations take it 16 units, a healthy worker 8.
        models = [ConstantAvailability(0.5)] + [ConstantAvailability(1.0)] * 3
        with obs.observed() as session:
            result = simulate_timestepped(
                app, system.group("t", 4), make_technique("FAC"),
                n_timesteps=3, seed=0, config=config, availability=models,
            )
        serial = [
            min(c.request_time for c in step.chunks) - step.start_time
            for step in result.steps
        ]
        assert serial == pytest.approx([16.0, 8.0, 8.0])
        assert result.crashed_workers == (0,)
        for step in result.steps[1:]:
            assert all(c.worker_id != 0 for c in step.chunks)
        failovers = [e for e in session.tracer.events if e.name == "sim.failover"]
        assert len(failovers) == 1
        assert result.makespan == pytest.approx(434.0)

    def test_master_skips_worker_past_its_crash_time(self, app, system):
        """A worker that died idle, unseen by the loop, is not next master."""
        # STATIC: worker 0 (full speed) finishes its share at 108 and idles;
        # it dies at 150, before the half-speed workers end step 0 at 208.
        plan = FaultPlan(
            events=(FaultEvent(time=150.0, worker=0),), failover_delay=7.0
        )
        config = LoopSimConfig(overhead=0.0, master_policy="first", faults=plan)
        models = [ConstantAvailability(1.0)] + [ConstantAvailability(0.5)] * 3
        with obs.observed() as session:
            result = simulate_timestepped(
                app, system.group("t", 4), make_technique("STATIC"),
                n_timesteps=2, seed=0, config=config, availability=models,
            )
        first, second = result.steps
        assert first.finish_time == pytest.approx(208.0)
        # Step 1's serial phase runs on half-speed worker 1, not on dead 0.
        loop_start = min(c.request_time for c in second.chunks)
        assert loop_start - second.start_time == pytest.approx(16.0)
        assert all(c.worker_id != 0 for c in second.chunks)
        assert result.crashed_workers == (0,)
        assert not [e for e in session.tracer.events if e.name == "sim.failover"]

    def test_dead_worker_not_revived_as_survivor(self, app, system):
        """The loop's last survivor stays the only worker in later steps."""
        # Worker 1 dies at 50; worker 0's crash at 60 is suppressed (last
        # worker standing), so it alone must serve step 1.
        plan = FaultPlan(events=(
            FaultEvent(time=50.0, worker=1), FaultEvent(time=60.0, worker=0),
        ))
        config = LoopSimConfig(overhead=0.0, faults=plan)
        result = simulate_timestepped(
            app, system.group("t", 2), make_technique("FAC"),
            n_timesteps=2, seed=0, config=config,
        )
        assert result.crashed_workers == (1,)
        assert {c.worker_id for c in result.steps[1].chunks} == {0}
        assert sum(c.size for c in result.steps[1].chunks) == app.n_parallel


@pytest.mark.parametrize("faults", [None, FaultPlan.chaos(2e-3)], ids=["clean", "chaos"])
@pytest.mark.parametrize("technique", sorted(ALL_TECHNIQUES))
def test_one_step_equals_single_run(technique, faults, system):
    """Step 0 of a time-stepped run is exactly simulate_application."""
    app = Application(
        "one", 20, 600, normal_exectime_model({"t": 4000.0}, cv=0.1),
    )
    group = system.group("t", 4)
    config = LoopSimConfig(faults=faults)
    single = simulate_application(
        app, group, make_technique(technique), seed=11, config=config,
    )
    stepped = simulate_timestepped(
        app, group, make_technique(technique),
        n_timesteps=1, seed=11, config=config,
    )
    (step,) = stepped.steps
    assert step.chunks == single.chunks
    assert step.finish_time == single.makespan
    assert stepped.crashed_workers == single.crashed_workers
