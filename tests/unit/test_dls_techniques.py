"""Unit tests of the DLS chunk policies, driven directly (no simulator).

Every technique must satisfy the dispatch invariants:
* chunks are positive and never exceed the remaining iterations,
* the chunk sizes over a full drain sum exactly to N,
* a drained session returns 0 forever.
"""

import numpy as np
import pytest

from repro.dls import (
    ALL_TECHNIQUES,
    AdaptiveFactoring,
    AWFBatch,
    DLSTechnique,
    Factoring,
    FixedSizeChunking,
    Guided,
    PAPER_TECHNIQUES,
    ROBUST_SET,
    SelfScheduling,
    Static,
    Trapezoid,
    WeightedFactoring,
    WorkerState,
    make_technique,
)
from repro.errors import SchedulingError


def make_workers(n, powers=None):
    powers = powers or [1.0] * n
    return [WorkerState(worker_id=i, relative_power=powers[i]) for i in range(n)]


def drain(session, n_workers, *, feed=None):
    """Round-robin drain of a session; returns the chunk list.

    ``feed`` optionally supplies per-iteration times to record (enables the
    adaptive paths).
    """
    chunks = []
    guard = 0
    done = set()
    while len(done) < n_workers:
        for w in range(n_workers):
            if w in done:
                continue
            size = session.next_chunk(w)
            if size == 0:
                done.add(w)
                continue
            chunks.append((w, size))
            if feed is not None:
                times = feed(w, size)
                session.record(w, size, times)
        guard += 1
        if guard > 10_000:
            raise AssertionError("session never drained")
    return chunks


def total(chunks):
    return sum(size for _, size in chunks)


UNIFORM_FEED = lambda w, size: np.full(size, 1.0)


class TestInvariantsAllTechniques:
    @pytest.mark.parametrize("name", sorted(ALL_TECHNIQUES))
    @pytest.mark.parametrize("n_iter,n_workers", [(100, 4), (1, 1), (7, 3), (4096, 8)])
    def test_drain_sums_to_n(self, name, n_iter, n_workers):
        tech = make_technique(name)
        session = tech.session(n_iter, make_workers(n_workers))
        chunks = drain(session, n_workers, feed=UNIFORM_FEED)
        assert total(chunks) == n_iter
        assert all(size >= 1 for _, size in chunks)
        assert session.remaining == 0

    @pytest.mark.parametrize("name", sorted(ALL_TECHNIQUES))
    def test_drained_session_returns_zero(self, name):
        tech = make_technique(name)
        session = tech.session(16, make_workers(2))
        drain(session, 2, feed=UNIFORM_FEED)
        assert session.next_chunk(0) == 0
        assert session.next_chunk(1) == 0

    @pytest.mark.parametrize("name", sorted(ALL_TECHNIQUES))
    def test_unknown_worker_rejected(self, name):
        session = make_technique(name).session(10, make_workers(2))
        with pytest.raises(SchedulingError):
            session.next_chunk(99)
        with pytest.raises(SchedulingError):
            session.record(99, 1, np.array([1.0]))


def skewed_feed(w, size):
    """Per-iteration times that differ by worker, so adaptive rules react."""
    return np.full(size, 1.0 + 0.5 * w)


class TestRecoveryAllTechniques:
    """The fault-recovery hooks need no per-technique support (base.py).

    ``requeue`` and ``retire`` are generic; these tests hold every
    technique's chunk rule to that claim, the way the simulator drives it
    when a worker crashes mid-chunk.
    """

    @pytest.mark.parametrize("name", sorted(ALL_TECHNIQUES))
    def test_requeued_chunk_is_redispatched(self, name):
        session = make_technique(name).session(1000, make_workers(4))
        lost = session.next_chunk(0)
        session.requeue(lost)
        assert session.remaining == 1000
        chunks = drain(session, 4, feed=skewed_feed)
        assert total(chunks) == 1000
        assert session.remaining == 0

    @pytest.mark.parametrize("name", sorted(ALL_TECHNIQUES))
    def test_survivors_finish_after_mid_loop_crash(self, name):
        session = make_technique(name).session(1000, make_workers(4))
        lost = session.next_chunk(0)  # in flight when worker 0 crashes
        completed = 0
        for w in (1, 2, 3):
            size = session.next_chunk(w)
            session.record(w, size, skewed_feed(w, size))
            completed += size
        session.requeue(lost)
        session.retire(0)
        survivors = [1, 2, 3]
        done = set()
        while len(done) < len(survivors):
            for w in survivors:
                if w in done:
                    continue
                size = session.next_chunk(w)
                if size == 0:
                    done.add(w)
                    continue
                session.record(w, size, skewed_feed(w, size))
                completed += size
        assert completed == 1000
        assert session.retired == frozenset({0})

    @pytest.mark.parametrize("name", sorted(ALL_TECHNIQUES))
    def test_heterogeneous_powers_drain(self, name):
        session = make_technique(name).session(
            1000, make_workers(4, powers=[1.0, 2.0, 0.5, 4.0])
        )
        chunks = drain(session, 4, feed=skewed_feed)
        assert total(chunks) == 1000
        assert all(size >= 1 for _, size in chunks)

    @pytest.mark.parametrize("name", sorted(ALL_TECHNIQUES))
    def test_same_measurements_same_chunks(self, name):
        def run():
            session = make_technique(name).session(
                1000, make_workers(4, powers=[1.0, 2.0, 0.5, 4.0])
            )
            return drain(session, 4, feed=skewed_feed)

        assert run() == run()


FIXED_RULE = sorted(
    name for name, cls in ALL_TECHNIQUES.items() if not cls.adaptive
)


class TestAdaptiveFlag:
    """``DLSTechnique.adaptive`` must tell the truth.

    The simulator feeds ``record`` only to adaptive techniques, so a
    technique that declares ``adaptive = False`` must size its chunks the
    same whatever its sessions are told.
    """

    @staticmethod
    def chunks(name, rng):
        """Two sessions over one set of worker states, drained round-robin;
        with ``rng``, every completed chunk records random iteration times
        and a random chunk time."""
        states = make_workers(4, powers=[1.0, 2.0, 0.5, 4.0])
        out = []
        for _ in range(2):  # states carry over, as in time-stepped runs
            session = make_technique(name).session(1000, states)
            live = list(range(4))
            while live:
                for w in list(live):
                    size = session.next_chunk(w)
                    if size == 0:
                        live.remove(w)
                        continue
                    out.append((w, size))
                    if rng is not None:
                        times = rng.exponential(1.0 + w, size)
                        session.record(
                            w, size, times,
                            chunk_time=times.sum() + rng.exponential(5.0),
                        )
        return out

    def test_nine_fixed_rule_techniques(self):
        assert FIXED_RULE == sorted(
            ["STATIC", "SS", "FSC", "mFSC", "GSS", "TSS", "TFSS", "FAC", "WF"]
        )

    @pytest.mark.parametrize("name", FIXED_RULE)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fixed_rule_ignores_measurements(self, name, seed):
        rng = np.random.default_rng(seed)
        assert self.chunks(name, rng) == self.chunks(name, None)

    @pytest.mark.parametrize("name", ["FAC-P", "AWF", "AWF-B", "AF"])
    def test_measurements_move_adaptive_chunks(self, name):
        # The check above can fail: these techniques read what they are fed.
        rng = np.random.default_rng(0)
        assert self.chunks(name, rng) != self.chunks(name, None)

    def test_unset_flag_means_measured(self):
        class Custom(DLSTechnique):
            name = "custom"

            def session(self, n_iterations, workers):
                return Factoring().session(n_iterations, workers)

        assert Custom.adaptive is True
        assert Custom().session(10, make_workers(1)).measured is True


class TestStatic:
    def test_equal_chunks(self):
        session = Static().session(100, make_workers(4))
        sizes = [session.next_chunk(w) for w in range(4)]
        assert sizes == [25, 25, 25, 25]

    def test_remainder_to_early_requesters(self):
        session = Static().session(10, make_workers(4))
        sizes = [session.next_chunk(w) for w in range(4)]
        assert sorted(sizes, reverse=True) == [3, 3, 2, 2]
        assert sum(sizes) == 10

    def test_single_request_per_worker(self):
        session = Static().session(100, make_workers(4))
        assert session.next_chunk(0) == 25
        assert session.next_chunk(0) == 0  # no second helping
        assert session.remaining == 75

    def test_fewer_iterations_than_workers(self):
        session = Static().session(2, make_workers(4))
        sizes = [session.next_chunk(w) for w in range(4)]
        assert sorted(sizes, reverse=True) == [1, 1, 0, 0]


class TestSelfScheduling:
    def test_unit_chunks(self):
        session = SelfScheduling().session(5, make_workers(2))
        assert [session.next_chunk(0) for _ in range(5)] == [1] * 5
        assert session.next_chunk(0) == 0


class TestFSC:
    def test_explicit_chunk(self):
        session = FixedSizeChunking(chunk_size=7).session(20, make_workers(2))
        assert session.next_chunk(0) == 7
        assert session.next_chunk(1) == 7
        assert session.next_chunk(0) == 6  # clamped to remaining

    def test_kruskal_weiss_formula(self):
        tech = FixedSizeChunking(overhead=2.0, sigma=1.0)
        k = tech._resolved_chunk(10_000, 8)
        expected = ((np.sqrt(2) * 10_000 * 2.0) / (1.0 * 8 * np.sqrt(np.log(8)))) ** (
            2 / 3
        )
        assert k == max(1, round(expected))

    def test_fallback(self):
        assert FixedSizeChunking()._resolved_chunk(100, 4) == int(np.ceil(100 / 16))

    def test_invalid_chunk(self):
        with pytest.raises(SchedulingError):
            FixedSizeChunking(chunk_size=0)


class TestGuided:
    def test_decreasing_chunks(self):
        session = Guided().session(100, make_workers(4))
        sizes = [session.next_chunk(0) for _ in range(5)]
        assert sizes[0] == 25
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_first_chunk_formula(self):
        session = Guided().session(1000, make_workers(8))
        assert session.next_chunk(0) == int(np.ceil(1000 / 8))


class TestTrapezoid:
    def test_linear_decrease(self):
        session = Trapezoid().session(1000, make_workers(4))
        sizes = []
        while True:
            s = session.next_chunk(0)
            if s == 0:
                break
            sizes.append(s)
        assert sizes[0] == int(np.ceil(1000 / 8))
        deltas = [a - b for a, b in zip(sizes, sizes[1:])]
        # roughly constant decrement until the floor/last-chunk clamp
        assert all(d >= 0 for d in deltas[:-1])

    def test_explicit_first_last(self):
        session = Trapezoid(first=10, last=2).session(50, make_workers(2))
        assert session.next_chunk(0) == 10

    def test_validation(self):
        with pytest.raises(SchedulingError):
            Trapezoid(first=0)
        with pytest.raises(SchedulingError):
            Trapezoid(last=0)


class TestFactoring:
    def test_batch_halving(self):
        session = Factoring().session(1024, make_workers(4))
        # Batch 1: 4 chunks of 1024/(2*4) = 128.
        sizes = [session.next_chunk(w) for w in range(4)]
        assert sizes == [128] * 4
        # Batch 2: 512 remaining -> chunks of 64.
        assert session.next_chunk(0) == 64

    def test_any_worker_may_take_batch_slots(self):
        session = Factoring().session(1024, make_workers(4))
        sizes = [session.next_chunk(0) for _ in range(4)]
        assert sizes == [128] * 4

    def test_custom_factor(self):
        session = Factoring(factor=4.0).session(1024, make_workers(4))
        assert session.next_chunk(0) == 64  # 1024/(4*4)

    def test_invalid_factor(self):
        with pytest.raises(SchedulingError):
            Factoring(factor=1.0)


class TestWeightedFactoring:
    def test_uniform_weights_match_fac(self):
        wf = WeightedFactoring().session(1024, make_workers(4))
        fac = Factoring().session(1024, make_workers(4))
        assert [wf.next_chunk(w) for w in range(4)] == [
            fac.next_chunk(w) for w in range(4)
        ]

    def test_weighted_chunks_proportional(self):
        workers = make_workers(2, powers=[3.0, 1.0])
        session = WeightedFactoring().session(800, workers)
        fast = session.next_chunk(0)
        slow = session.next_chunk(1)
        assert fast == 3 * slow
        assert fast + slow == 400  # half of the iterations

    def test_zero_powers_rejected(self):
        workers = make_workers(2, powers=[0.0, 0.0])
        session = WeightedFactoring().session(100, workers)
        with pytest.raises(SchedulingError):
            session.next_chunk(0)

    def test_invalid_factor(self):
        with pytest.raises(SchedulingError):
            WeightedFactoring(factor=0.5)


class TestAWFFamily:
    def test_awf_b_adapts_batch_boundary(self):
        # Worker 1 is 4x slower; after the first batch its chunks shrink.
        session = AWFBatch().session(1024, make_workers(2))
        c0 = session.next_chunk(0)
        c1 = session.next_chunk(1)
        assert c0 == c1  # no information yet
        session.record(0, c0, np.full(c0, 1.0))
        session.record(1, c1, np.full(c1, 4.0))
        n0 = session.next_chunk(0)  # new batch -> weights refreshed
        n1 = session.next_chunk(1)
        assert n0 > n1
        assert n0 / max(n1, 1) >= 2.0

    def test_awf_c_adapts_within_batch(self):
        session = make_technique("AWF-C").session(4096, make_workers(4))
        first = [session.next_chunk(w) for w in range(4)]
        session.record(0, first[0], np.full(first[0], 1.0))
        session.record(1, first[1], np.full(first[1], 10.0))
        session.record(2, first[2], np.full(first[2], 1.0))
        session.record(3, first[3], np.full(first[3], 1.0))
        # Next batch: the slow worker's chunk is smaller than the others'.
        fast_chunk = session.next_chunk(0)
        slow_chunk = session.next_chunk(1)
        assert fast_chunk > slow_chunk

    def test_awf_d_uses_chunk_time(self):
        session = make_technique("AWF-D").session(1024, make_workers(2))
        c0 = session.next_chunk(0)
        c1 = session.next_chunk(1)
        # Same iteration times, wildly different overhead-inclusive times.
        session.record(0, c0, np.full(c0, 1.0), chunk_time=c0 * 1.0)
        session.record(1, c1, np.full(c1, 1.0), chunk_time=c1 * 5.0)
        assert session.next_chunk(0) > session.next_chunk(1)

    def test_awf_timestep_static_within_run(self):
        # AWF freezes weights at session start -> behaves like WF inside one
        # timestep even after recording.
        session = make_technique("AWF").session(1024, make_workers(2))
        c0 = session.next_chunk(0)
        c1 = session.next_chunk(1)
        session.record(0, c0, np.full(c0, 1.0))
        session.record(1, c1, np.full(c1, 9.0))
        n0 = session.next_chunk(0)
        n1 = session.next_chunk(1)
        assert n0 == n1  # no intra-timestep adaptation

    def test_awf_carries_history_across_sessions(self):
        # Re-using WorkerState across sessions = next timestep adapts.
        workers = make_workers(2)
        first = make_technique("AWF").session(512, workers)
        c0 = first.next_chunk(0)
        c1 = first.next_chunk(1)
        first.record(0, c0, np.full(c0, 1.0))
        first.record(1, c1, np.full(c1, 5.0))
        second = make_technique("AWF").session(512, workers)
        n0 = second.next_chunk(0)
        n1 = second.next_chunk(1)
        assert n0 > n1


    def test_weighted_iter_time_over_chunks(self):
        """AWF's weighted average performance: chunk k weighs k."""
        w = make_workers(1)[0]
        session = AWFBatch().session(1000, [w])
        feeds = [(4, 1.0, 6.0), (2, 3.0, 8.0), (3, 2.0, 12.0)]
        for size, per_iter, chunk_time in feeds:
            session.record(0, size, np.full(size, per_iter), chunk_time=chunk_time)
        # Mean iteration times 1, 3, 2 weighted 1, 2, 3; chunk-time means
        # 6/4, 8/2, 12/3 likewise.
        assert w.weighted_iter_time() == pytest.approx((1 + 2 * 3 + 3 * 2) / 6)
        assert w.weighted_iter_time(chunk_time=True) == pytest.approx(
            (1.5 + 2 * 4.0 + 3 * 4.0) / 6
        )
        assert WorkerState(worker_id=1).weighted_iter_time() is None


class TestAdaptiveFactoring:
    def test_pilot_chunks(self):
        session = AdaptiveFactoring(pilot_factor=8.0).session(
            4096, make_workers(8)
        )
        assert session.next_chunk(0) == int(np.ceil(4096 / (8 * 8)))

    def test_af_gives_slow_worker_less(self):
        session = AdaptiveFactoring().session(4096, make_workers(2))
        c0 = session.next_chunk(0)
        c1 = session.next_chunk(1)
        session.record(0, c0, np.full(c0, 1.0))
        session.record(1, c1, np.full(c1, 10.0))
        assert session.next_chunk(0) > session.next_chunk(1)

    def test_af_variance_shrinks_chunks(self):
        rng = np.random.default_rng(0)
        low_var = AdaptiveFactoring().session(4096, make_workers(2))
        high_var = AdaptiveFactoring().session(4096, make_workers(2))
        for session, spread in ((low_var, 0.01), (high_var, 0.9)):
            for w in range(2):
                c = session.next_chunk(w)
                times = np.abs(rng.normal(1.0, spread, c)) + 0.01
                times *= 1.0 / times.mean()  # same mean, different variance
                session.record(w, c, times)
        assert high_var.next_chunk(0) < low_var.next_chunk(0)

    def test_invalid_pilot(self):
        with pytest.raises(SchedulingError):
            AdaptiveFactoring(pilot_factor=1.0)


class TestRegistry:
    def test_paper_sets(self):
        assert ROBUST_SET == ("FAC", "WF", "AWF-B", "AF")
        assert PAPER_TECHNIQUES == ("STATIC", "FAC", "WF", "AWF-B", "AF")

    def test_all_names_construct(self):
        for name in ALL_TECHNIQUES:
            tech = make_technique(name)
            assert tech.name == name

    def test_case_insensitive(self):
        assert make_technique("fac").name == "FAC"

    def test_kwargs_forwarded(self):
        assert make_technique("FAC", factor=3.0).factor == 3.0

    def test_unknown_rejected(self):
        with pytest.raises(SchedulingError):
            make_technique("NOPE")


class TestSessionValidation:
    def test_negative_iterations(self):
        with pytest.raises(SchedulingError):
            Static().session(-1, make_workers(1))

    def test_no_workers(self):
        with pytest.raises(SchedulingError):
            Static().session(10, [])

    def test_duplicate_worker_ids(self):
        workers = [WorkerState(worker_id=0), WorkerState(worker_id=0)]
        with pytest.raises(SchedulingError):
            Static().session(10, workers)

    def test_record_size_mismatch(self):
        session = Static().session(10, make_workers(1))
        size = session.next_chunk(0)
        with pytest.raises(SchedulingError):
            session.record(0, size, np.ones(size + 1))

    def test_chunk_log(self):
        # The recorded per-worker statistics account for every dispatch.
        session = Factoring().session(64, make_workers(2))
        chunks = drain(session, 2, feed=UNIFORM_FEED)
        states = session.workers.values()
        assert sum(w.iterations_done for w in states) == total(chunks) == 64
        assert sum(w.chunks_done for w in states) == len(chunks)

    def test_worker_state_statistics(self):
        session = Factoring().session(64, make_workers(1))
        size = session.next_chunk(0)
        session.record(0, size, np.full(size, 2.0), chunk_time=size * 2.0 + 5.0)
        w = session.workers[0]
        assert w.iterations_done == size
        assert w.chunks_done == 1
        assert w.mean_iter_time == pytest.approx(2.0)
        assert w.weighted_iter_time() == pytest.approx(2.0)
        assert w.weighted_iter_time(chunk_time=True) == pytest.approx(
            (size * 2.0 + 5.0) / size
        )

    def test_record_empty_chunk_rejected(self):
        session = Factoring().session(64, make_workers(1))
        with pytest.raises(SchedulingError, match=">= 1 iteration"):
            session.record(0, 0, np.empty(0))

    def test_worker_state_variance(self):
        session = Factoring().session(64, make_workers(1))
        size = session.next_chunk(0)
        times = np.array([1.0, 3.0] * (size // 2) + [1.0] * (size % 2))
        session.record(0, size, times)
        w = session.workers[0]
        assert w.var_iter_time == pytest.approx(float(np.var(times)))

    def test_no_data_estimates_none(self):
        w = WorkerState(worker_id=0)
        assert w.mean_iter_time is None
        assert w.var_iter_time is None
