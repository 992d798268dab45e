"""Property-based tests of the DLS policies (hypothesis).

Dispatch invariants must hold for every technique under arbitrary loop
sizes, worker counts, request interleavings, and measured timings.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dls import ALL_TECHNIQUES, WorkerState, make_technique

TECH_NAMES = sorted(ALL_TECHNIQUES)


@st.composite
def sessions(draw):
    name = draw(st.sampled_from(TECH_NAMES))
    n_iter = draw(st.integers(1, 5000))
    n_workers = draw(st.integers(1, 16))
    powers = draw(
        st.lists(
            st.floats(0.1, 10.0), min_size=n_workers, max_size=n_workers
        )
    )
    workers = [
        WorkerState(worker_id=i, relative_power=p)
        for i, p in enumerate(powers)
    ]
    return name, make_technique(name).session(n_iter, workers), n_iter, n_workers


class TestDrainInvariants:
    @settings(max_examples=60, deadline=None)
    @given(sessions(), st.randoms(use_true_random=False))
    def test_random_interleaving_drains_exactly(self, bundle, rnd):
        name, session, n_iter, n_workers = bundle
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        dispatched = 0
        active = set(range(n_workers))
        guard = 0
        while active:
            wid = rnd.choice(sorted(active))
            size = session.next_chunk(wid)
            if size == 0:
                if name == "STATIC" and session.remaining > 0:
                    # STATIC gives one chunk per worker; a second request
                    # legitimately returns 0 while other workers still owe.
                    active.discard(wid)
                    continue
                active.discard(wid)
                continue
            assert 1 <= size
            dispatched += size
            # Feed random measurements so adaptive paths execute.
            times = np.abs(rng.normal(1.0, 0.4, size)) + 1e-3
            session.record(wid, size, times, chunk_time=float(times.sum()) + 0.5)
            guard += 1
            assert guard < 50_000, "runaway session"
        # STATIC may leave iterations unassigned only if some worker never
        # requested; here every worker requests until told 0, so all
        # techniques must dispatch everything.
        assert dispatched == n_iter
        assert session.remaining == 0


@settings(max_examples=40, deadline=None)
@given(sessions())
def test_chunk_log_matches_dispatch(bundle):
    """Recorded worker statistics account for exactly what was dispatched."""
    name, session, n_iter, n_workers = bundle
    total = 0
    chunks = 0
    for round_ in range(100_000):
        wid = round_ % n_workers
        size = session.next_chunk(wid)
        if size:
            total += size
            chunks += 1
            session.record(wid, size, np.full(size, 1.0))
        if session.remaining == 0 and size == 0:
            break
    states = session.workers.values()
    assert sum(w.iterations_done for w in states) == total == n_iter
    assert sum(w.chunks_done for w in states) == chunks


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([n for n in TECH_NAMES if n != "STATIC"]),
    st.integers(1, 2000),
    st.integers(1, 8),
)
def test_single_worker_can_drain_alone(name, n_iter, n_workers):
    """Any non-static technique lets one worker finish the whole loop."""
    workers = [WorkerState(worker_id=i) for i in range(n_workers)]
    session = make_technique(name).session(n_iter, workers)
    total = 0
    for _ in range(100_000):
        size = session.next_chunk(0)
        if size == 0:
            break
        session.record(0, size, np.full(size, 1.0))
        total += size
    assert total == n_iter
