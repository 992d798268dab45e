"""Property-based tests of fault injection (hypothesis).

Three promises must hold for arbitrary plans, techniques, and seeds:

* a zero-rate :class:`FaultPlan` is *inert* — results are bit-for-bit
  identical to running with no plan at all;
* with crashes enabled, every lost chunk is re-executed: the loop
  conserves iterations exactly (``executed == n_parallel``);
* fault draws are a pure function of the seed, so makespans are
  deterministic — including across serial and process-pool backends.

The quiet-chunk guard (``FaultInjector.may_degrade``) must be exact: a
chunk it lets skip the degradation pass is one that pass would not have
changed, so every result is the same as running the pass on every chunk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import Application, normal_exectime_model
from repro.dls import ALL_TECHNIQUES, make_technique
from repro.exec import ProcessPoolBackend, SerialBackend
from repro.faults import FaultEvent, FaultInjector, FaultPlan, degraded_boundaries
from repro.sim import (
    LoopSimConfig,
    replicate_application,
    simulate_application,
    simulate_timestepped,
)
from repro.sim import loopsim
from repro.system import HeterogeneousSystem, ProcessorType

TECHNIQUES = ["STATIC", "SS", "FAC", "WF", "AWF-B", "AF"]


def _instance(n_parallel, mean_time, cv):
    app = Application(
        "faultprop",
        16,
        n_parallel,
        normal_exectime_model({"t": mean_time}, cv=cv),
        iteration_cv=cv,
    )
    system = HeterogeneousSystem([ProcessorType("t", 8)])
    return app, system


@st.composite
def fault_scenarios(draw):
    technique = draw(st.sampled_from(TECHNIQUES))
    n_parallel = draw(st.integers(32, 600))
    group_size = draw(st.sampled_from([2, 4, 8]))
    cv = draw(st.sampled_from([0.0, 0.2]))
    mean_time = draw(st.floats(200.0, 2000.0))
    seed = draw(st.integers(0, 2**20))
    return technique, n_parallel, group_size, cv, mean_time, seed


@settings(max_examples=30, deadline=None)
@given(fault_scenarios())
def test_zero_rate_plan_is_inert(bundle):
    technique, n_parallel, group_size, cv, mean_time, seed = bundle
    app, system = _instance(n_parallel, mean_time, cv)
    group = system.group("t", group_size)
    base = simulate_application(
        app, group, make_technique(technique), seed=seed,
        config=LoopSimConfig(overhead=1.0),
    )
    zero = simulate_application(
        app, group, make_technique(technique), seed=seed,
        config=LoopSimConfig(overhead=1.0, faults=FaultPlan()),
    )
    assert zero.makespan == base.makespan
    assert zero.chunks == base.chunks
    assert zero.worker_finish_times == base.worker_finish_times


@settings(max_examples=30, deadline=None)
@given(fault_scenarios(), st.floats(1e-4, 5e-3))
def test_crashes_conserve_iterations(bundle, crash_rate):
    technique, n_parallel, group_size, cv, mean_time, seed = bundle
    app, system = _instance(n_parallel, mean_time, cv)
    group = system.group("t", group_size)
    plan = FaultPlan(crash_rate=crash_rate, failover_delay=5.0)
    result = simulate_application(
        app, group, make_technique(technique), seed=seed,
        config=LoopSimConfig(overhead=1.0, faults=plan),
    )
    assert result.iterations_executed == app.n_parallel
    assert sum(c.size for c in result.chunks) == app.n_parallel
    # Crashed workers never take work after their crash.
    for wid in result.crashed_workers:
        last = max(
            (c.request_time for c in result.chunks if c.worker_id == wid),
            default=None,
        )
        if last is not None:
            assert last <= result.makespan


@settings(max_examples=20, deadline=None)
@given(fault_scenarios())
def test_scripted_and_stochastic_mix_conserves(bundle):
    technique, n_parallel, group_size, cv, mean_time, seed = bundle
    app, system = _instance(n_parallel, mean_time, cv)
    group = system.group("t", group_size)
    plan = FaultPlan(
        crash_rate=1e-3,
        blackout_rate=5e-4,
        blackout_duration=20.0,
        slowdown_rate=5e-4,
        slowdown_factor=3.0,
        events=(
            FaultEvent(time=30.0, worker=0),
            FaultEvent(time=40.0, worker=1, kind="blackout", duration=25.0),
        ),
    )
    result = simulate_application(
        app, group, make_technique(technique), seed=seed,
        config=LoopSimConfig(overhead=1.0, faults=plan),
    )
    assert result.iterations_executed == app.n_parallel


@settings(max_examples=20, deadline=None)
@given(fault_scenarios())
def test_fault_draws_deterministic(bundle):
    technique, n_parallel, group_size, cv, mean_time, seed = bundle
    app, system = _instance(n_parallel, mean_time, cv)
    group = system.group("t", group_size)
    config = LoopSimConfig(overhead=1.0, faults=FaultPlan.chaos(2e-3))
    a = simulate_application(
        app, group, make_technique(technique), seed=seed, config=config
    )
    b = simulate_application(
        app, group, make_technique(technique), seed=seed, config=config
    )
    assert a.makespan == b.makespan
    assert a.chunks == b.chunks
    assert a.crashed_workers == b.crashed_workers
    assert a.rescheduled_iterations == b.rescheduled_iterations


@pytest.fixture(scope="module")
def pool():
    backend = ProcessPoolBackend(2)
    yield backend
    backend.close()


def test_backends_agree_under_faults(pool):
    """Serial and pooled replication produce identical makespans with
    faults enabled — the plan rides inside the pickled task config."""
    app, system = _instance(256, 600.0, 0.2)
    group = system.group("t", 4)
    config = LoopSimConfig(overhead=1.0, faults=FaultPlan.chaos(2e-3))
    kwargs = dict(replications=8, seed=2012, config=config)
    serial = replicate_application(
        app, group, make_technique("FAC"),
        backend=SerialBackend(), **kwargs,
    )
    pooled = replicate_application(
        app, group, make_technique("FAC"), backend=pool, **kwargs
    )
    assert serial.makespans == pooled.makespans


# ----------------------------------------------------- quiet-chunk guard


@st.composite
def degradation_plans(draw):
    """Random blackout/slowdown rates plus scripted events on worker 0,
    among them long blackouts that outlast the events after them."""
    scripted = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["blackout", "slowdown"]))
        scripted.append(
            FaultEvent(
                time=draw(st.floats(0.0, 400.0)),
                worker=0,
                kind=kind,
                duration=draw(st.floats(1e-3, 600.0)),
                factor=3.0 if kind == "slowdown" else 1.0,
            )
        )
    plan = FaultPlan(
        blackout_rate=draw(st.sampled_from([0.0, 1e-3, 1e-2])),
        blackout_duration=draw(st.floats(1.0, 200.0)),
        slowdown_rate=draw(st.sampled_from([0.0, 1e-3, 1e-2])),
        slowdown_duration=draw(st.floats(1.0, 200.0)),
        events=tuple(scripted),
    )
    return plan, draw(st.integers(0, 2**20))


@settings(max_examples=150, deadline=None)
@given(degradation_plans(), st.data())
def test_may_degrade_false_means_no_degradation(bundle, data):
    plan, seed = bundle
    # Window edges include every event's `time` and `end` (drawn from a
    # twin injector), so chunks start and finish exactly on them.
    events = plan.realize(seed, 2).degradations_until(0, 1500.0)
    edges = sorted({e.time for e in events} | {e.end for e in events})
    edge = st.sampled_from(edges) if edges else st.floats(0.0, 1500.0)
    injector = plan.realize(seed, 2)
    # Windows come in any order, so the injector has often materialized
    # well past the chunk being asked about.
    for _ in range(data.draw(st.integers(1, 12))):
        start = data.draw(st.floats(0.0, 1500.0) | edge)
        finish = data.draw(st.floats(0.0, 1500.0) | edge)
        if not finish > start:
            finish = start + data.draw(st.floats(1e-6, 300.0))
        size = data.draw(st.integers(1, 6))
        boundaries = np.linspace(start, finish, size + 1)[1:]
        assert boundaries[-1] == finish
        for worker in (0, 1):
            if injector.may_degrade(worker, start, finish):
                continue
            adjusted, applied = degraded_boundaries(
                injector, worker, start, boundaries
            )
            assert applied == 0
            np.testing.assert_array_equal(adjusted, boundaries)


_TINY = st.floats(0.0, 1e-300) | st.sampled_from([5e-324, 1e-310, 1e-9, 1e-3])
_NEAR_POWER_OF_TWO = st.builds(
    lambda k, back: max(2.0**k - back, 0.0),
    st.integers(-20, 40),
    st.floats(0.0, 4.0),
)


@settings(max_examples=500, deadline=None)
@given(
    st.just(0.0) | _TINY | _NEAR_POWER_OF_TWO | st.floats(0.0, 1e7),
    st.lists(
        st.floats(0.0, 1e3) | st.floats(0.0, 8.0) | st.floats(0.0, 1e-6),
        min_size=1,
        max_size=80,
    ),
)
def test_degradation_horizon_bounds_the_rebuilt_finish(start, offsets):
    # A chunk's finish times, its wall times taken as their differences
    # (as the loop takes them), and the finish `degraded_boundaries` is
    # asked about when it rebuilds the boundaries from those wall times.
    # A start far below the finish times makes the first difference
    # inexact; finish times just past `start` near 2**k cross a binade.
    ends = np.sort(start + np.asarray(offsets))
    wall = ends.copy()
    wall[1:] -= ends[:-1]
    wall[0] -= start
    finish = float(ends[-1])
    rebuilt = float((start + np.cumsum(wall))[-1])
    assert rebuilt <= loopsim._degradation_horizon(finish, len(offsets))


def _fault_instance():
    app = Application(
        "guard",
        8,
        240,
        normal_exectime_model({"t": 900.0}, cv=0.2),
        iteration_cv=0.2,
    )
    system = HeterogeneousSystem([ProcessorType("t", 8)])
    return app, system.group("t", 4)


_CHAOS = FaultPlan.chaos(2e-3)
_SCRIPTED = FaultPlan(
    crash_rate=_CHAOS.crash_rate,
    blackout_rate=_CHAOS.blackout_rate,
    slowdown_rate=_CHAOS.slowdown_rate,
    failover_delay=_CHAOS.failover_delay,
    events=(
        # A blackout that outlasts the slowdown scripted inside it.
        FaultEvent(time=20.0, worker=1, kind="blackout", duration=300.0),
        FaultEvent(time=60.0, worker=1, kind="slowdown", duration=30.0, factor=2.5),
    ),
)


def _simulate_both_ways(monkeypatch, simulate):
    """``simulate()`` with the guard, then with every chunk degraded.

    Returns both results, how often the guard said ``False``, and for
    every unguarded degradation pass the horizon it queried next to the
    bound the guard would have materialized through.
    """
    quiet = []
    real = FaultInjector.may_degrade

    def counting(self, worker, start, until):
        answer = real(self, worker, start, until)
        quiet.append(not answer)
        return answer

    monkeypatch.setattr(FaultInjector, "may_degrade", counting)
    guarded = simulate()

    pairs = []
    original = loopsim.degraded_boundaries

    def always(self, worker, start, until):
        pairs.append([until])
        return True

    def checked(injector, worker, start, boundaries):
        pairs[-1].append(float(boundaries[-1]))
        return original(injector, worker, start, boundaries)

    monkeypatch.setattr(FaultInjector, "may_degrade", always)
    monkeypatch.setattr(loopsim, "degraded_boundaries", checked)
    unguarded = simulate()
    return guarded, unguarded, sum(quiet), pairs


@pytest.mark.parametrize("plan", [_CHAOS, _SCRIPTED], ids=["chaos", "scripted"])
@pytest.mark.parametrize("technique", sorted(ALL_TECHNIQUES))
def test_guard_is_bit_identical_to_degrading_every_chunk(
    technique, plan, monkeypatch
):
    app, group = _fault_instance()
    config = LoopSimConfig(overhead=1.0, faults=plan)

    def simulate():
        return [
            simulate_application(
                app, group, make_technique(technique), seed=seed, config=config
            )
            for seed in (3, 2012)
        ]

    guarded, unguarded, quiet, pairs = _simulate_both_ways(monkeypatch, simulate)
    assert guarded == unguarded
    # Not vacuous: some chunks were degraded and some skipped the pass.
    assert sum(r.degradations_applied for r in guarded) > 0
    assert quiet > 0
    assert all(horizon <= until for until, horizon in pairs)


def test_guard_is_bit_identical_when_timestepped(monkeypatch):
    app, group = _fault_instance()
    config = LoopSimConfig(overhead=1.0, faults=_SCRIPTED)

    def simulate():
        return simulate_timestepped(
            app, group, make_technique("AWF-C"),
            n_timesteps=3, seed=7, config=config,
        )

    guarded, unguarded, quiet, pairs = _simulate_both_ways(monkeypatch, simulate)
    assert guarded == unguarded
    assert quiet > 0
    assert all(horizon <= until for until, horizon in pairs)
