"""Property-based tests of the loop simulator (hypothesis).

Conservation (every parallel iteration executed exactly once), record
consistency, and determinism must hold for arbitrary applications, group
sizes, techniques, and availability models.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import Application, normal_exectime_model
from repro.dls import ALL_TECHNIQUES, make_technique
from repro.pmf import PMF
from repro.sim import LoopSimConfig, simulate_application
from repro.system import (
    ConstantAvailability,
    HeterogeneousSystem,
    ProcessorType,
)


@st.composite
def scenarios(draw):
    technique = draw(st.sampled_from(sorted(ALL_TECHNIQUES)))
    n_serial = draw(st.integers(0, 50))
    n_parallel = draw(st.integers(1, 2000))
    group_size = draw(st.sampled_from([1, 2, 4, 8]))
    cv = draw(st.sampled_from([0.0, 0.1, 0.5]))
    mean_time = draw(st.floats(100.0, 5000.0))
    seed = draw(st.integers(0, 2**20))
    overhead = draw(st.sampled_from([0.0, 0.5, 2.0]))
    levels = draw(
        st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3, unique=True)
    )
    weights = [1.0] * len(levels)
    avail_pmf = PMF(levels, [w / len(levels) for w in weights], normalize=True)
    app = Application(
        "prop",
        n_serial,
        n_parallel,
        normal_exectime_model({"t": mean_time}, cv=cv),
        iteration_cv=cv,
    )
    system = HeterogeneousSystem(
        [ProcessorType("t", 8, availability=avail_pmf)]
    )
    return app, system.group("t", group_size), technique, seed, overhead


@settings(max_examples=50, deadline=None)
@given(scenarios())
def test_conservation_and_consistency(bundle):
    app, group, technique, seed, overhead = bundle
    result = simulate_application(
        app,
        group,
        make_technique(technique),
        seed=seed,
        config=LoopSimConfig(overhead=overhead, availability_interval=200.0),
    )
    # Every parallel iteration executed exactly once.
    assert result.iterations_executed == app.n_parallel
    assert sum(c.size for c in result.chunks) == app.n_parallel
    # Chunks belong to group workers and have sane time stamps.
    for c in result.chunks:
        assert 0 <= c.worker_id < group.size
        assert c.request_time >= 0
        assert c.start_time == c.request_time + overhead
        assert c.finish_time >= c.start_time
    # Makespan dominates everything.
    assert result.makespan >= result.serial_time
    for c in result.chunks:
        assert result.makespan >= c.finish_time - 1e-9
    # Per-worker iteration counts match the chunk log.
    per_worker = result.iterations_per_worker()
    assert sum(per_worker.values()) == app.n_parallel
    assert result.load_imbalance() >= 0.0


@settings(max_examples=25, deadline=None)
@given(scenarios())
def test_determinism(bundle):
    app, group, technique, seed, overhead = bundle
    config = LoopSimConfig(overhead=overhead, availability_interval=200.0)
    a = simulate_application(
        app, group, make_technique(technique), seed=seed, config=config
    )
    b = simulate_application(
        app, group, make_technique(technique), seed=seed, config=config
    )
    assert a.makespan == b.makespan
    assert [c.size for c in a.chunks] == [c.size for c in b.chunks]


def _dedicated_run(technique, n_parallel, group_size, level):
    """One app of ``n_parallel`` identical iterations (1000 time units in
    all, cv 0) on ``group_size`` workers at constant ``level``, no
    overhead."""
    app = Application(
        "lb",
        0,
        n_parallel,
        normal_exectime_model({"t": 1000.0}, cv=0.0),
        iteration_cv=0.0,
    )
    system = HeterogeneousSystem([ProcessorType("t", 4)])
    return simulate_application(
        app,
        system.group("t", group_size),
        make_technique(technique),
        seed=1,
        config=LoopSimConfig(overhead=0.0),
        availability=ConstantAvailability(level),
    )


dedicated_runs = given(
    st.sampled_from(sorted(ALL_TECHNIQUES)),
    st.integers(1, 500),
    st.sampled_from([1, 2, 4]),
    st.floats(0.1, 1.0),
)


@settings(max_examples=25, deadline=None)
@dedicated_runs
def test_dedicated_lower_bound(technique, n_parallel, group_size, level):
    """Wall-clock time is never below the dedicated-work lower bound."""
    result = _dedicated_run(technique, n_parallel, group_size, level)
    per_iter = 1000.0 / n_parallel
    lower_bound = n_parallel * per_iter / (group_size * level)
    assert result.makespan >= lower_bound - 1e-6


@settings(max_examples=25, deadline=None)
@dedicated_runs
def test_dedicated_upper_bound(technique, n_parallel, group_size, level):
    """No worker idles while iterations remain undispatched.

    Each of the n iterations takes tau = 1000/n of dedicated time, so
    tau/l of wall time at level l, on P workers with no overhead. Let t_d
    be the time of the last dispatch. Until then iterations remain
    undispatched, so no worker idles: the P*l*t_d/tau iterations done by
    t_d are at most n, and t_d <= n*tau/(P*l). A chunk of c iterations
    dispatched at t <= t_d ends by t_d + c*tau/l, so with c_max the
    largest dispatched chunk

        makespan <= n*tau/(P*l) + c_max*tau/l.

    A worker left idle while work remains pushes the makespan past it.
    """
    result = _dedicated_run(technique, n_parallel, group_size, level)
    per_iter = 1000.0 / n_parallel
    c_max = max(chunk.size for chunk in result.chunks)
    upper_bound = (n_parallel / group_size + c_max) * per_iter / level
    assert result.makespan <= upper_bound * (1 + 1e-9)
