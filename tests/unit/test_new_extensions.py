"""Unit tests for FAC-P (probabilistic factoring)."""

import numpy as np
import pytest

from repro.dls import ProbabilisticFactoring, WorkerState, make_technique
from repro.errors import SchedulingError


def make_workers(n):
    return [WorkerState(worker_id=i) for i in range(n)]


class TestProbabilisticFactoring:
    def test_registered(self):
        assert make_technique("FAC-P").name == "FAC-P"

    def test_drains_exactly(self):
        session = ProbabilisticFactoring().session(777, make_workers(4))
        total = 0
        while True:
            size = session.next_chunk(total % 4)
            if size == 0:
                break
            session.record(total % 4, size, np.full(size, 1.0))
            total += size
        assert total == 777

    def test_zero_variance_single_even_batch(self):
        """cv = 0 -> the first batch covers everything, split evenly."""
        session = ProbabilisticFactoring(prior_cv=0.0).session(
            1000, make_workers(4)
        )
        first = session.next_chunk(0)
        assert first == 250

    def test_high_variance_shrinks_batches(self):
        low = ProbabilisticFactoring(prior_cv=0.05).session(
            4096, make_workers(8)
        )
        high = ProbabilisticFactoring(prior_cv=2.0).session(
            4096, make_workers(8)
        )
        assert high.next_chunk(0) < low.next_chunk(0)

    def test_adapts_ratio_from_measurements(self):
        rng = np.random.default_rng(0)

        def second_batch_chunk(spread: float) -> int:
            session = ProbabilisticFactoring(prior_cv=0.05).session(
                4096, make_workers(4)
            )
            sizes = [session.next_chunk(w) for w in range(4)]
            for w, size in enumerate(sizes):
                times = np.abs(rng.normal(1.0, spread, size)) + 1e-3
                session.record(w, size, times)
            return session.next_chunk(0)

        # Noisier measured iteration times -> smaller second-batch chunks.
        assert second_batch_chunk(1.5) < second_batch_chunk(0.01)

    def test_validation(self):
        with pytest.raises(SchedulingError):
            ProbabilisticFactoring(prior_cv=-0.1)
