"""Unit tests of the DES substrate (events, worker)."""

import numpy as np
import pytest

from repro.apps import IterationTimeModel
from repro.errors import SimulationError
from repro.sim import EventQueue, SimWorker
from repro.system import ConstantAvailability, TraceAvailability


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(5.0, "b")
        q.push(1.0, "a")
        q.push(3.0, "c")
        assert [q.pop() for _ in range(3)] == [(1.0, "a"), (3.0, "c"), (5.0, "b")]

    def test_fifo_tiebreak(self):
        q = EventQueue()
        q.push(1.0, "first")
        q.push(1.0, "second")
        assert q.pop() == (1.0, "first")
        assert q.pop() == (1.0, "second")

    def test_empty_errors(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.pop()
        assert not q and len(q) == 0

    @pytest.mark.parametrize("time", [-1.0, float("nan")])
    def test_negative_time_rejected(self, time):
        # NaN fails every comparison, so a `time < 0` test let it through
        # and the heap then popped it before every real event.
        with pytest.raises(SimulationError, match=">= 0"):
            EventQueue().push(time)


class TestSimWorker:
    def test_deterministic_chunk(self):
        worker = SimWorker(0, ConstantAvailability(1.0).spawn(), np.random.default_rng(0))
        model = IterationTimeModel(mean=2.0, cv=0.0)
        ends = worker.execute_chunk(10.0, 5, model)
        assert np.allclose(ends, [12.0, 14.0, 16.0, 18.0, 20.0])

    def test_availability_stretches_wall_times(self):
        worker = SimWorker(0, ConstantAvailability(0.5).spawn(), np.random.default_rng(0))
        model = IterationTimeModel(mean=1.0, cv=0.0)
        ends = worker.execute_chunk(0.0, 4, model)
        assert ends[-1] == pytest.approx(8.0)
        assert np.allclose(np.diff(ends, prepend=0.0), 2.0)

    def test_mid_chunk_availability_change(self):
        # 10 units at alpha=1 then alpha=0.5: iterations in the slow segment
        # must report longer wall times.
        trace = TraceAvailability(((10.0, 1.0), (100.0, 0.5)))
        worker = SimWorker(0, trace.spawn(), np.random.default_rng(0))
        model = IterationTimeModel(mean=1.0, cv=0.0)
        ends = worker.execute_chunk(0.0, 20, model)
        # 10 iterations in the fast segment, 10 at half speed.
        assert ends[-1] == pytest.approx(30.0)
        walls = np.diff(ends, prepend=0.0)
        assert np.allclose(walls[:10], 1.0)
        assert np.allclose(walls[10:], 2.0)
        assert walls.sum() == pytest.approx(30.0)

    def test_capacity_speeds_up(self):
        proc = ConstantAvailability(1.0).spawn(capacity=2.0)
        worker = SimWorker(0, proc, np.random.default_rng(0))
        model = IterationTimeModel(mean=1.0, cv=0.0)
        ends = worker.execute_chunk(0.0, 10, model)
        assert ends[-1] == pytest.approx(5.0)

    def test_empty_chunk_rejected(self):
        worker = SimWorker(0, ConstantAvailability(1.0).spawn(), np.random.default_rng(0))
        with pytest.raises(SimulationError):
            worker.execute_chunk(0.0, 0, IterationTimeModel(mean=1.0))

    def test_stochastic_chunk_reproducible(self):
        model = IterationTimeModel(mean=1.0, cv=0.5)
        a = SimWorker(0, ConstantAvailability(1.0).spawn(), np.random.default_rng(3))
        b = SimWorker(0, ConstantAvailability(1.0).spawn(), np.random.default_rng(3))
        ends_a = a.execute_chunk(0.0, 50, model)
        ends_b = b.execute_chunk(0.0, 50, model)
        assert np.array_equal(ends_a, ends_b)
        assert np.all(np.diff(ends_a) > 0)
