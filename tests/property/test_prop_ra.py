"""Property-based tests of stage-I allocation (hypothesis).

On random small instances: every heuristic produces feasible allocations,
no heuristic beats the exhaustive optimum, the MILP matches it, and the
search space's bitmask look-ahead gives Hall's condition's verdict and
depends on the pending applications only through their sets of types. On
the paper's, the benchmark's and seeded instances: the evaluator's
deadline probabilities agree with the completion-PMF path within a stated
bound, and bit for bit with a lookup of each assignment on its own.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    Application,
    Batch,
    ExecutionTimeModel,
    WorkloadSpec,
    degraded_availability,
    normal_exectime_model,
    random_instance,
)
from repro.contracts import check_allocation_feasible
from repro.errors import InfeasibleAllocationError, ModelError
from repro.paper import paper_batch, paper_system
from repro.pmf import PMF, amdahl_time, deterministic, dilate_by_availability
from repro.ra import (
    ExhaustiveAllocator,
    GreedyRobustAllocator,
    MaxMinAllocator,
    MILPAllocator,
    MinMinAllocator,
    SearchSpace,
    StageIEvaluator,
    SufferageAllocator,
    completion_pmf,
    enumerate_allocations,
)
from repro.ra.allocation import count_allocations
from repro.system import HeterogeneousSystem, ProcessorType

HEURISTICS = [
    GreedyRobustAllocator,
    MinMinAllocator,
    MaxMinAllocator,
    SufferageAllocator,
]


@st.composite
def instances(draw):
    n_types = draw(st.integers(1, 2))
    types = []
    for j in range(n_types):
        count = draw(st.sampled_from([2, 4, 8]))
        levels = draw(
            st.lists(st.floats(0.2, 1.0), min_size=1, max_size=2, unique=True)
        )
        pmf = PMF(levels, [1.0 / len(levels)] * len(levels), normalize=True)
        types.append(ProcessorType(f"t{j}", count, availability=pmf))
    system = HeterogeneousSystem(types)
    # Keep instances feasible: every application can get >= 1 processor.
    n_apps = draw(st.integers(1, min(3, system.total_processors)))
    apps = []
    for i in range(n_apps):
        means = {
            t.name: draw(st.floats(500.0, 8000.0)) for t in system.types
        }
        apps.append(
            Application(
                f"a{i}",
                draw(st.integers(0, 100)),
                draw(st.integers(50, 2000)),
                normal_exectime_model(means, cv=0.1),
            )
        )
    deadline = draw(st.floats(500.0, 10_000.0))
    return system, Batch(apps), deadline


@settings(max_examples=25, deadline=None)
@given(instances())
def test_exhaustive_is_optimal_upper_bound(instance):
    system, batch, deadline = instance
    evaluator = StageIEvaluator(batch, system, deadline)
    best = ExhaustiveAllocator().allocate(evaluator)
    for cls in HEURISTICS:
        result = cls().allocate(evaluator)
        assert result.robustness <= best.robustness + 1e-9, cls.name
        # feasibility
        for tname, used in result.allocation.usage().items():
            assert used <= system.type(tname).count


@settings(max_examples=20, deadline=None)
@given(instances())
def test_milp_matches_exhaustive(instance):
    system, batch, deadline = instance
    evaluator = StageIEvaluator(batch, system, deadline)
    optimum = ExhaustiveAllocator().allocate(evaluator).robustness
    found = MILPAllocator().allocate(evaluator)
    check_allocation_feasible(found.allocation, system, batch)
    assert found.robustness == pytest.approx(optimum, rel=1e-12, abs=0.0)


@settings(max_examples=25, deadline=None)
@given(instances())
def test_heuristic_robustness_matches_evaluator(instance):
    system, batch, deadline = instance
    evaluator = StageIEvaluator(batch, system, deadline)
    for cls in HEURISTICS:
        result = cls().allocate(evaluator)
        assert result.robustness == pytest.approx(
            evaluator.robustness(result.allocation)
        )


@settings(max_examples=15, deadline=None)
@given(instances())
def test_enumeration_yields_unique_feasible(instance):
    system, batch, _ = instance
    seen = set()
    for alloc in enumerate_allocations(batch, system):
        assert alloc not in seen
        seen.add(alloc)
        for tname, used in alloc.usage().items():
            assert used <= system.type(tname).count
        for _, group in alloc.items():
            assert group.size & (group.size - 1) == 0


@settings(max_examples=25, deadline=None)
@given(
    instances(),
    st.sampled_from([None, {1}, {2}, {1, 4}, {8}]),
    st.integers(0, 60),
)
def test_count_matches_enumeration(instance, sizes, limit):
    system, batch, _ = instance
    try:
        enumerated = sum(
            1 for _ in enumerate_allocations(batch, system, sizes_filter=sizes)
        )
    except InfeasibleAllocationError:
        enumerated = 0  # an application has no group of these sizes
    counted = count_allocations(batch, system, limit, sizes_filter=sizes)
    assert counted == min(enumerated, limit + 1)


def others_can_complete(remaining, needs):
    """Hall's condition by a set-based scan of every type subset (oracle).

    Each pending application, given by the set of types it runs on, needs
    one processor of one of them. Such an assignment exists iff no subset
    ``S`` of types holds more applications (those whose types all lie in
    ``S``) than free processors.
    """
    needs = list(needs)
    if not needs:
        return True
    types = sorted(remaining)
    for mask in range(1, 1 << len(types)):
        subset = {types[k] for k in range(len(types)) if mask >> k & 1}
        capacity = sum(remaining[name] for name in subset)
        demand = sum(1 for need in needs if need <= subset)
        if demand > capacity:
            return False
    return True


def limits_space(types, supports):
    """The search space of 8 processors per type and applications ``a{i}``
    running on the types ``supports[i]``."""
    system = HeterogeneousSystem(ProcessorType(t, 8) for t in types)
    batch = Batch(
        Application(
            f"a{i}", 0, 1, ExecutionTimeModel({t: deterministic(1.0) for t in sorted(s)})
        )
        for i, s in enumerate(supports)
    )
    return SearchSpace(StageIEvaluator(batch, system, 1.0))


def check_limits(remaining, supports, pending):
    """``limits`` admits exactly the groups the capacity + Hall scan admits.

    ``supports[i]`` is the set of types application ``a{i}`` runs on and
    ``pending`` the indices of the applications still to be placed.
    """
    space = limits_space(list(remaining), supports)
    limits = space.limits(remaining, [f"a{i}" for i in pending])
    assert set(limits) == set(remaining)
    needs = [supports[i] for i in pending]
    for t, left in remaining.items():
        for k in range(1, 9):
            after = {**remaining, t: left - k}
            expected = k <= left and others_can_complete(after, needs)
            assert (k <= limits[t]) == expected, (t, k, limits)


@st.composite
def lookahead_states(draw):
    types = [f"t{j}" for j in range(draw(st.integers(1, 6)))]
    remaining = {t: draw(st.integers(0, 8)) for t in types}
    supports = draw(
        st.lists(
            st.sets(st.sampled_from(types), min_size=1), min_size=1, max_size=8
        )
    )
    pending = draw(st.sets(st.integers(0, len(supports) - 1)))
    return remaining, supports, sorted(pending)


@settings(max_examples=200, deadline=None)
@given(lookahead_states())
def test_limits_match_the_hall_condition(state):
    check_limits(*state)


@pytest.mark.parametrize(
    "remaining, supports, pending",
    [
        # No pending applications: only capacity binds.
        ({"t0": 3, "t1": 0, "t2": 8}, [{"t0"}, {"t1", "t2"}], []),
        # A single type.
        ({"t0": 5}, [{"t0"}] * 4, [0, 1, 2]),
        ({"t0": 2}, [{"t0"}] * 3, [0, 1, 2]),
        # A type with nothing left, and one that must be kept for others.
        ({"t0": 0, "t1": 4, "t2": 1}, [{"t0", "t1"}, {"t2"}, {"t1"}], [0, 1, 2]),
        # A proper subset binds: {t1} holds two apps on two processors.
        ({"t0": 6, "t1": 2}, [{"t1"}, {"t1"}, {"t0", "t1"}], [0, 1, 2]),
    ],
)
def test_limits_match_the_hall_condition_on_edge_cases(remaining, supports, pending):
    check_limits(remaining, supports, pending)


# ------------------------------------------------ deadline-probability oracle
#
# StageIEvaluator.app_deadline_prob reads Pr(T_eff <= Delta) as
# sum_alpha p_alpha F_T(Delta alpha / c); the completion PMF's prob_leq is
# the reference. The two round differently: the PMF path compares
# (s t + (1 - s) t / n) / alpha, which the merge of the clipped zero
# pulses may rewrite as (p v) / p, with Delta, the lookup compares t with
# Delta alpha / c. So besides rounding (ORACLE_RTOL relative), a pulse
# within ORACLE_RTOL of Delta may fall on either side of it in the two.

ORACLE_RTOL = 1e-12
SEEDED_SPEC = WorkloadSpec(n_apps=4, n_types=3, procs_per_type=(4, 8), cv=0.3)
SPEC_24X6 = WorkloadSpec(
    n_apps=24, n_types=6, procs_per_type=(16, 32), cv=0.5, availability_levels=4
)
ORACLE_INSTANCES = ["paper", "24x6", "seeded-0", "seeded-1", "seeded-2", "degraded-3"]


def oracle_instance(name):
    """``(batch, evaluation system, system the groups come from, deadline)``."""
    if name == "paper":
        return paper_batch(), paper_system(), paper_system(), 3250.0
    if name == "24x6":
        system, batch = random_instance(SPEC_24X6, np.random.default_rng(2012))
        return batch, system, system, 2737.6656123848184
    kind, seed = name.split("-")
    system, batch = random_instance(SEEDED_SPEC, int(seed))
    if kind == "seeded":
        return batch, system, system, 2800.0
    # Score groups built from the original system under a degraded one,
    # as the sensitivity studies do.
    degraded = system.with_availabilities(
        {
            t.name: degraded_availability(t.availability, f)
            for t, f in zip(system.types, (0.6, 0.75, 0.9))
        }
    )
    return batch, degraded, system, 2800.0


def assignments(batch, system):
    """Every (application, power-of-two group) a search can score."""
    for app in batch:
        for ptype in system.types:
            if app.exec_time.supports(ptype.name):
                size = 1
                while size <= ptype.count:
                    yield app, system.group(ptype.name, size)
                    size *= 2


def check_against_reference(batch, system, app, group, reference, rng, draws):
    """``app_deadline_prob`` against ``reference.prob_leq`` at deadlines
    drawn uniformly inside the support, at the reference's support points
    and at the unmerged pulses ``c t / alpha``, on them and just either
    side of them, clear of the boundary band (``draws`` of each)."""
    own_group = system.group(group.ptype.name, group.size)
    c = amdahl_time(1.0, app.serial_frac, group.size)
    times = app.single_proc_pmf(group.ptype.name)
    levels = own_group.availability
    values = (c * times.values[:, None] / levels.values[None, :]).ravel()
    masses = (times.probs[:, None] * levels.probs[None, :]).ravel()
    lo, hi = reference.support()
    pulses = rng.choice(values, draws)
    deadlines = np.concatenate(
        [
            rng.uniform(lo, hi, draws),
            rng.choice(reference.values, draws),
            pulses,
            pulses * (1.0 - 4 * ORACLE_RTOL),
            pulses * (1.0 + 4 * ORACLE_RTOL),
        ]
    )
    for deadline in map(float, deadlines[deadlines > 0.0]):
        lookup = StageIEvaluator(batch, system, deadline).app_deadline_prob(
            app.name, group
        )
        exact = reference.prob_leq(deadline)
        on_boundary = masses[
            np.abs(values - deadline) <= ORACLE_RTOL * max(deadline, 1.0)
        ].sum()
        assert abs(lookup - exact) <= ORACLE_RTOL * exact + on_boundary, (
            app.name, group, deadline, lookup, exact,
        )


@pytest.mark.parametrize("name", ORACLE_INSTANCES)
def test_deadline_prob_matches_the_completion_pmf(name):
    batch, system, groups_from, _ = oracle_instance(name)
    rng = np.random.default_rng(7)
    draws = 3 if name == "24x6" else 8
    for app, group in assignments(batch, groups_from):
        reference = completion_pmf(app, system.group(group.ptype.name, group.size))
        check_against_reference(batch, system, app, group, reference, rng, draws)
        # Clear of the boundary band, the lookup saturates exactly.
        lo, hi = reference.support()
        above = StageIEvaluator(batch, system, hi * (1.0 + 1e-9))
        assert above.app_deadline_prob(app.name, group) == 1.0
        if lo > 0.0:
            below = StageIEvaluator(batch, system, lo * (1.0 - 1e-9))
            assert below.app_deadline_prob(app.name, group) == 0.0


@pytest.mark.parametrize("name", ORACLE_INSTANCES)
def test_saturated_assignments_tie_at_exactly_one(name):
    batch, system, groups_from, _ = oracle_instance(name)
    for deadline in (1e9, float("inf")):
        evaluator = StageIEvaluator(batch, system, deadline)
        for app, group in assignments(batch, groups_from):
            assert evaluator.app_deadline_prob(app.name, group) == 1.0


@pytest.mark.parametrize("name", ORACLE_INSTANCES)
def test_phi1_matches_the_completion_pmf_path(name):
    batch, system, _, deadline = oracle_instance(name)
    evaluator = StageIEvaluator(batch, system, deadline)
    for cls in (GreedyRobustAllocator, MinMinAllocator):
        allocation = cls().allocate(evaluator).allocation
        exact = 1.0
        for app_name, group in allocation.items():
            exact *= completion_pmf(batch.app(app_name), group).prob_leq(deadline)
        assert evaluator.robustness(allocation) == pytest.approx(
            exact, rel=ORACLE_RTOL, abs=0.0
        ), cls.name


def test_deadline_prob_never_truncates():
    # 1,001 time pulses x 5 availability levels: more completion pulses
    # than the 4,096 the default dilation keeps.
    levels = PMF([0.33, 0.47, 0.61, 0.79, 0.97], [0.2] * 5)
    system = HeterogeneousSystem([ProcessorType("t0", 4, availability=levels)])
    app = Application(
        "a0", 100, 900, normal_exectime_model({"t0": 2000.0}, cv=0.3, n_points=1001)
    )
    assert len(app.single_proc_pmf("t0")) == 1001
    rng = np.random.default_rng(11)
    for size in (1, 2, 4):
        group = system.group("t0", size)
        full = dilate_by_availability(
            app.parallel_time_pmf("t0", size), levels, max_points=None
        )
        assert len(full) > 4096 and len(completion_pmf(app, group)) < len(full)
        check_against_reference(Batch([app]), system, app, group, full, rng, 40)


# ------------------------------------- one pass per (application, type)
#
# A probability miss computes every power-of-two size of the assignment's
# (application, type) pair at once. Each value must be what a lookup of
# that one assignment computes, bit for bit, whatever order the
# assignments are read in.

BIT_INSTANCES = ORACLE_INSTANCES + ["restricted"]


def bit_instance(name):
    """``(batch, evaluation system, system the groups come from, deadline)``."""
    if name != "restricted":
        return oracle_instance(name)
    # Applications on different subsets of the types (4-8 processors each).
    system, batch = random_instance(SEEDED_SPEC, 5)
    names = system.type_names
    batch = Batch(
        replace(
            app,
            exec_time=ExecutionTimeModel(
                {t: app.exec_time.pmf(t) for t in names[i % len(names):]}
            ),
        )
        for i, app in enumerate(batch)
    )
    return batch, system, system, 2800.0


def one_assignment(batch, system, deadline, app_name, group):
    """``Pr(T_eff <= deadline)`` of one assignment, computed on its own."""
    app = batch.app(app_name)
    times = app.single_proc_pmf(group.ptype.name)
    levels = system.group(group.ptype.name, group.size).availability
    c = amdahl_time(1.0, app.serial_frac, group.size)
    reach = deadline * levels.values / c
    if reach[0] >= times.values[-1]:
        return 1.0
    return float(times.cdf(reach) @ levels.probs)


def every_group(batch, system, *, all_sizes):
    """Each application's groups: every power of two, plus every other
    size (``all_sizes``) or just 3 and the whole type."""
    out = []
    for app in batch:
        for ptype in system.types:
            if not app.exec_time.supports(ptype.name):
                continue
            sizes = set(range(1, ptype.count + 1)) if all_sizes else {
                1 << k for k in range(ptype.count.bit_length())
            } | {min(3, ptype.count), ptype.count}
            out.extend((app.name, system.group(ptype.name, n)) for n in sorted(sizes))
    return out


@pytest.mark.parametrize("name", BIT_INSTANCES)
def test_deadline_prob_equals_the_one_assignment_formula(name):
    batch, system, groups_from, deadline = bit_instance(name)
    rng = np.random.default_rng(13)
    groups = every_group(batch, groups_from, all_sizes=name != "24x6")
    assert any(g.size & (g.size - 1) for _, g in groups)  # non-powers of two
    # Deadlines on completion-PMF support points and on the unmerged
    # pulses c t / alpha (where reach = Delta alpha / c meets a time
    # pulse), beside the instance's own and two where all saturate.
    deadlines = [deadline, 1e9, float("inf")]
    for k in rng.choice(len(groups), 4, replace=False):
        app_name, group = groups[k]
        app = batch.app(app_name)
        own = system.group(group.ptype.name, group.size)
        deadlines.append(float(rng.choice(completion_pmf(app, own).values)))
        c = amdahl_time(1.0, app.serial_frac, group.size)
        t = float(rng.choice(app.single_proc_pmf(group.ptype.name).values))
        deadlines.append(c * t / float(rng.choice(own.availability.values)))
    for delta in deadlines:
        evaluator = StageIEvaluator(batch, system, delta)
        order = rng.permutation(len(groups))
        for k in order:
            app_name, group = groups[k]
            got = evaluator.app_deadline_prob(app_name, group)
            want = one_assignment(batch, system, delta, app_name, group)
            assert got.hex() == want.hex(), (name, delta, app_name, group)
        # One miss per assignment on its first read, hits after.
        assert evaluator.cache_info()["prob_misses"] == len(groups)
        for k in order[::-1]:
            evaluator.app_deadline_prob(*groups[k])
        assert evaluator.cache_info()["prob_hits"] == len(groups)


def test_group_larger_than_the_evaluators_type_raises():
    # Groups of the original system scored under one with a single
    # processor per type, as a sensitivity study might ask.
    batch, system, _, deadline = oracle_instance("seeded-0")
    small = HeterogeneousSystem(
        ProcessorType(t.name, 1, availability=t.availability) for t in system.types
    )
    evaluator = StageIEvaluator(batch, small, deadline)
    app_name, ptype = batch.names[0], system.types[0]
    message = f"^group of 2 exceeds the 1 processors of type '{ptype.name}'$"
    for _ in range(2):  # nothing is cached by the failed read
        with pytest.raises(ModelError, match=message):
            evaluator.app_deadline_prob(app_name, system.group(ptype.name, 2))
    one = system.group(ptype.name, 1)
    assert evaluator.app_deadline_prob(app_name, one) == one_assignment(
        batch, small, deadline, app_name, one
    )
    assert evaluator.cache_info()["prob_misses"] == 3


@st.composite
def limits_calls(draw):
    """A search space's applications, as sets of supported types drawn
    from a few shared sets, and a sequence of ``(remaining, pending,
    twins)`` look-ups, their ``remaining`` drawn from a few shared states:
    ``twins`` are other applications with the same multiset of
    supported-type sets as ``pending``, in another order."""
    types = [f"t{j}" for j in range(draw(st.integers(1, 5)))]
    shared = draw(
        st.lists(st.frozensets(st.sampled_from(types), min_size=1), min_size=1, max_size=3)
    )
    supports = draw(st.lists(st.sampled_from(shared), min_size=1, max_size=10))
    states = draw(
        st.lists(
            st.fixed_dictionaries({t: st.integers(0, 8) for t in types}),
            min_size=1,
            max_size=2,
        )
    )
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        remaining = draw(st.sampled_from(states))
        pending = draw(st.lists(st.integers(0, len(supports) - 1), max_size=10))
        twins = [
            draw(st.sampled_from([j for j, s in enumerate(supports) if s == supports[i]]))
            for i in pending
        ]
        calls.append((remaining, pending, draw(st.permutations(twins))))
    return types, supports, calls


@settings(max_examples=150, deadline=None)
@given(limits_calls())
def test_limits_depend_on_pending_only_through_its_type_sets(case):
    types, supports, calls = case
    space = limits_space(types, supports)
    for remaining, pending, twins in calls:
        got = space.limits(remaining, [f"a{i}" for i in pending])
        # The same answer for other applications with the same type sets,
        # and the same as a space that has answered nothing before.
        assert space.limits(remaining, [f"a{i}" for i in twins]) == got
        fresh = limits_space(types, supports)
        assert fresh.limits(remaining, [f"a{i}" for i in pending]) == got
