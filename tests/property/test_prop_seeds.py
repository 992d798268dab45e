"""Oracle tests of stream derivation against numpy's own path (hypothesis).

:func:`repro.rng.rngs_from_words` builds generators in batches: it
assembles each stream's entropy words itself, lets numpy mix the pool,
and restates numpy's ``SeedSequence.generate_state`` output hash as one
vectorized pass. Every stream it builds must be the one numpy derives:

* ``SeedTree.rng()`` is ``default_rng(node.seed_sequence())`` and
  ``SeedTree.seed()`` reads ``seed_sequence().generate_state(4)``;
* ``spawn_rngs(seed, n)`` is ``SeedSequence(seed).spawn(n)``;
* the primitive on raw keys is ``SeedSequence(entropy, spawn_key=key)``,
  key ints that split to one word (below 2**32, zero) included;
* ``Generator.spawn`` and ``bit_generator.jumped()`` are unchanged;
* ``FaultPlan.realize`` draws each fault stream from
  ``default_rng(tree.child(kind, w).seed_sequence())``.

Generators are compared by their full PCG64 state (state and increment),
which pins every later draw.
"""

import heapq

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import SeedTree
from repro.faults import FaultEvent, FaultPlan
from repro.rng import entropy_words, rngs_from_words, spawn_rngs

#: Roots at the word boundaries of numpy's entropy assembly.
EDGE_ROOTS = [0, 1, 2**32 - 1, 2**32, 2**128 - 1, 2**128]

roots = st.one_of(
    st.sampled_from(EDGE_ROOTS),
    st.integers(0, 2**20).map(lambda k: 2**160 + k),
    st.integers(0, 2**160),
)
components = st.one_of(
    st.integers(-(2**40), 2**40),
    st.text(alphabet="abcdefgh_:0123456789", max_size=6),
)
paths = st.lists(components, max_size=4)
#: Spawn-key ints: one-word values (0 and below 2**32) and wide ones.
key_ints = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**96),
)


def _node(root, path):
    tree = SeedTree(root)
    return tree.child(*path) if path else tree


def _same_generator(ours, theirs):
    assert ours.bit_generator.state == theirs.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(roots, paths)
def test_tree_rng_and_seed_match_numpy(root, path):
    node = _node(root, path)
    reference = node.seed_sequence()
    _same_generator(node.rng(), np.random.default_rng(reference))
    words = reference.generate_state(4)
    assert node.seed() == int.from_bytes(
        b"".join(int(w).to_bytes(4, "big") for w in words), "big"
    )


@settings(max_examples=60, deadline=None)
@given(roots, st.lists(paths, min_size=0, max_size=6))
def test_tree_batch_matches_one_at_a_time(root, batch):
    nodes = [_node(root, path) for path in batch]
    built = SeedTree.rngs(nodes)
    assert len(built) == len(nodes)
    for node, rng in zip(nodes, built):
        _same_generator(rng, np.random.default_rng(node.seed_sequence()))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(roots, st.integers(0, 2**62).map(np.int64),
              st.integers(0, 2**32 - 1).map(np.uint32)),
    st.integers(0, 20),
)
def test_spawn_rngs_matches_numpy_spawn(seed, n):
    ours = spawn_rngs(seed, n)
    children = np.random.SeedSequence(seed).spawn(n)
    assert len(ours) == n
    for rng, child in zip(ours, children):
        _same_generator(rng, np.random.default_rng(child))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(roots, st.lists(key_ints, max_size=5)), max_size=5))
def test_raw_keys_match_seed_sequence(streams):
    keys = [
        np.array(entropy_words(entropy, key), dtype=np.uint32)
        for entropy, key in streams
    ]
    for (entropy, key), rng in zip(streams, rngs_from_words(keys)):
        reference = np.random.SeedSequence(entropy, spawn_key=key)
        _same_generator(rng, np.random.default_rng(reference))


@settings(max_examples=40, deadline=None)
@given(roots, paths)
def test_spawned_and_jumped_generators_unchanged(root, path):
    node = _node(root, path)
    for ours, theirs in (
        (node.rng(), np.random.default_rng(node.seed_sequence())),
        (spawn_rngs(root, 3)[2], np.random.default_rng(
            np.random.SeedSequence(root).spawn(3)[2])),
    ):
        for a, b in zip(ours.spawn(2), theirs.spawn(2)):
            _same_generator(a, b)
        # The parents' spawn counters moved on alike: spawn again.
        _same_generator(ours.spawn(1)[0], theirs.spawn(1)[0])
        assert (
            ours.bit_generator.jumped().state
            == theirs.bit_generator.jumped().state
        )
        # Seeding through the batch left the later stream untouched.
        assert (ours.random(5) == theirs.random(5)).all()


def _reference_realization(plan, seed, n_workers, n_events):
    """Crash times and first ``n_events`` degradations, numpy's way."""
    tree = SeedTree(seed).child("faults")

    def stream(*path):
        return np.random.default_rng(tree.child(*path).seed_sequence())

    crashes, events = [], []
    for w in range(n_workers):
        times = [
            e.time for e in plan.events if e.worker == w and e.kind == "crash"
        ]
        if plan.crash_rate > 0:
            times.append(float(stream("crash", w).exponential(1 / plan.crash_rate)))
        crashes.append(min(times) if times else None)
        merged = [
            e for e in plan.events if e.worker == w and e.kind != "crash"
        ]
        for kind, rate, mean in (
            ("blackout", plan.blackout_rate, plan.blackout_duration),
            ("slowdown", plan.slowdown_rate, plan.slowdown_duration),
        ):
            if rate <= 0:
                continue
            arrivals, durations = stream(kind, w), stream(kind, "duration", w)
            t = 0.0
            for _ in range(n_events):
                t += float(arrivals.exponential(1 / rate))
                duration = max(float(durations.exponential(mean)), 1e-9)
                factor = plan.slowdown_factor if kind == "slowdown" else 1.0
                merged.append(FaultEvent(t, w, kind, duration, factor))
        events.append(heapq.nsmallest(n_events, merged))
    return crashes, events


rates = st.sampled_from([0.0, 1e-3, 1e-2])


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from(EDGE_ROOTS), st.integers(0, 2**128)),
    st.integers(1, 8),
    rates,
    rates,
    rates,
    st.booleans(),
)
def test_fault_realization_matches_numpy_streams(
    seed, n_workers, crash_rate, blackout_rate, slowdown_rate, scripted
):
    events = (
        (FaultEvent(3.0, 0, "crash"), FaultEvent(5.0, 0, "blackout", 2.0))
        if scripted else ()
    )
    plan = FaultPlan(
        crash_rate=crash_rate,
        blackout_rate=blackout_rate,
        slowdown_rate=slowdown_rate,
        events=events,
    )
    n_events = 20
    crashes, expected = _reference_realization(plan, seed, n_workers, n_events)
    injector = plan.realize(seed, n_workers)
    for w in range(n_workers):
        assert injector.crash_time(w) == crashes[w]
        horizon = expected[w][-1].time if expected[w] else 1e9
        got = injector.degradations_until(w, horizon)[:n_events]
        assert got == expected[w]
