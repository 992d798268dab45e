"""Property-based tests of stage-I allocation (hypothesis).

On random small instances: every heuristic produces feasible allocations,
no heuristic beats the exhaustive optimum, the MILP matches it, and the
search space's bitmask look-ahead gives Hall's condition's verdict.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import Application, Batch, ExecutionTimeModel, normal_exectime_model
from repro.contracts import check_allocation_feasible
from repro.errors import InfeasibleAllocationError
from repro.pmf import PMF, deterministic
from repro.ra import (
    ExhaustiveAllocator,
    GreedyRobustAllocator,
    MaxMinAllocator,
    MILPAllocator,
    MinMinAllocator,
    SearchSpace,
    StageIEvaluator,
    SufferageAllocator,
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


def check_limits(remaining, supports, pending):
    """``limits`` admits exactly the groups the capacity + Hall scan admits.

    ``supports[i]`` is the set of types application ``a{i}`` runs on and
    ``pending`` the indices of the applications still to be placed.
    """
    system = HeterogeneousSystem(ProcessorType(t, 8) for t in remaining)
    batch = Batch(
        Application(
            f"a{i}", 0, 1, ExecutionTimeModel({t: deterministic(1.0) for t in types})
        )
        for i, types in enumerate(supports)
    )
    space = SearchSpace(StageIEvaluator(batch, system, 1.0))
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
