"""Unit tests of runtime availability processes (repro.system.availability)."""

import math

import numpy as np
import pytest

from repro.errors import ModelError, SimulationError
from repro.pmf import percent_availability
from repro.system import (
    AvailabilityProcess,
    ConstantAvailability,
    MarkovAvailability,
    ResampledAvailability,
    TraceAvailability,
    quota_levels,
)


class TestConstant:
    def test_level_everywhere(self):
        proc = ConstantAvailability(0.5).spawn()
        assert proc.level_at(0.0) == 0.5
        assert proc.level_at(1e6) == 0.5

    def test_finish_time_scaling(self):
        proc = ConstantAvailability(0.25).spawn()
        assert proc.finish_time(10.0, 5.0) == pytest.approx(10.0 + 20.0)

    def test_capacity_scaling(self):
        proc = ConstantAvailability(0.5).spawn(capacity=2.0)
        assert proc.finish_time(0.0, 10.0) == pytest.approx(10.0)

    def test_zero_work(self):
        proc = ConstantAvailability(1.0).spawn()
        assert proc.finish_time(3.0, 0.0) == 3.0

    def test_expected_level(self):
        assert ConstantAvailability(0.7).expected_level() == 0.7

    def test_invalid_level(self):
        with pytest.raises(ModelError):
            ConstantAvailability(0.0)
        with pytest.raises(ModelError):
            ConstantAvailability(1.5)

    def test_negative_queries_rejected(self):
        proc = ConstantAvailability(1.0).spawn()
        with pytest.raises(SimulationError):
            proc.level_at(-1.0)
        with pytest.raises(SimulationError):
            proc.finish_time(-1.0, 1.0)
        with pytest.raises(SimulationError):
            proc.finish_time(0.0, -1.0)


class TestResampled:
    @pytest.fixture
    def model(self, type2_availability):
        return ResampledAvailability(type2_availability, interval=10.0)

    def test_levels_in_support(self, model):
        proc = model.spawn(1)
        levels = {proc.level_at(t) for t in np.arange(0, 500, 5.0)}
        assert levels <= {0.25, 0.5, 1.0}

    def test_reproducible(self, model):
        a = model.spawn(42)
        b = model.spawn(42)
        ts = np.arange(0, 300, 7.0)
        assert [a.level_at(t) for t in ts] == [b.level_at(t) for t in ts]

    def test_expected_level(self, model, type2_availability):
        assert model.expected_level() == pytest.approx(type2_availability.mean())

    def test_longrun_time_average(self, model):
        proc = model.spawn(3)
        avg = proc.mean_level(0.0, 50_000.0)
        assert avg == pytest.approx(0.6875, abs=0.02)

    def test_work_integral_inverse(self, model):
        proc = model.spawn(9)
        for start, work in [(0.0, 3.0), (12.5, 40.0), (101.0, 7.7)]:
            finish = proc.finish_time(start, work)
            assert proc.work_between(start, finish) == pytest.approx(work, rel=1e-9)

    def test_invalid_interval(self, type2_availability):
        with pytest.raises(ModelError):
            ResampledAvailability(type2_availability, interval=0.0)
        with pytest.raises(ModelError, match="interval"):
            ResampledAvailability(type2_availability, interval=math.nan)

    def test_bad_pmf_support(self):
        bad = percent_availability([(50, 100)]).map_values(lambda v: v + 1.0)
        with pytest.raises(ModelError):
            ResampledAvailability(bad, interval=1.0)


class TestFinishTimesVectorized:
    def test_matches_scalar(self, type2_availability):
        proc = ResampledAvailability(type2_availability, interval=5.0).spawn(4)
        cum = np.cumsum(np.full(40, 0.9))
        vec = proc.finish_times(2.0, cum)
        for k in (0, 10, 39):
            assert vec[k] == pytest.approx(proc.finish_time(2.0, cum[k]), rel=1e-9)

    def test_monotone(self, type2_availability):
        proc = ResampledAvailability(type2_availability, interval=3.0).spawn(8)
        cum = np.cumsum(np.abs(np.random.default_rng(0).normal(1.0, 0.3, 100)))
        vec = proc.finish_times(0.0, cum)
        assert np.all(np.diff(vec) >= -1e-12)

    def test_empty(self):
        proc = ConstantAvailability(1.0).spawn()
        assert proc.finish_times(0.0, np.array([])).size == 0

    def test_decreasing_rejected(self):
        proc = ConstantAvailability(1.0).spawn()
        with pytest.raises(SimulationError):
            proc.finish_times(0.0, np.array([2.0, 1.0]))

    def test_negative_start_rejected(self):
        proc = ConstantAvailability(1.0).spawn()
        with pytest.raises(SimulationError, match="start"):
            proc.finish_times(-1.0, np.array([1.0, 2.0]))

    def test_single_segment_chunk_skips_scalar_walk(
        self, type2_availability, monkeypatch
    ):
        proc = ResampledAvailability(type2_availability, interval=1000.0).spawn(3)
        walks = []

        def counting_walk(start, work):
            walks.append(work)
            return AvailabilityProcess.finish_time(proc, start, work)

        monkeypatch.setattr(proc, "finish_time", counting_walk)
        proc.finish_times(10.0, np.cumsum(np.full(5, 1.0)))
        assert walks == []
        proc.finish_times(10.0, np.array([1.0, 5000.0]))
        assert walks == [5000.0]


class TestNonFiniteRejected:
    """Non-finite times and work raise instead of looping forever."""

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_level_at(self, t):
        with pytest.raises(SimulationError, match="time t"):
            ConstantAvailability(0.5).spawn().level_at(t)

    @pytest.mark.parametrize("work", [math.inf, math.nan])
    def test_finish_time_work(self, work):
        with pytest.raises(SimulationError, match="work"):
            ConstantAvailability(0.5).spawn().finish_time(0.0, work)

    @pytest.mark.parametrize("start", [math.inf, math.nan])
    def test_finish_time_start(self, start):
        with pytest.raises(SimulationError, match="start"):
            ConstantAvailability(0.5).spawn().finish_time(start, 1.0)

    @pytest.mark.parametrize(
        "works",
        [[1.0, math.inf], [1.0, math.nan], [1.0, math.nan, 2.0]],
        ids=["inf", "nan", "interior-nan"],
    )
    def test_finish_times_work(self, type2_availability, works):
        # An interior NaN passes the start and total checks; only the
        # pairwise pass can catch it.
        proc = ResampledAvailability(type2_availability, interval=10.0).spawn(1)
        with pytest.raises(SimulationError, match="work"):
            proc.finish_times(0.0, np.array(works))

    @pytest.mark.parametrize("start", [math.inf, math.nan])
    def test_finish_times_start(self, start):
        with pytest.raises(SimulationError, match="start"):
            ConstantAvailability(0.5).spawn().finish_times(start, np.array([1.0]))

    def test_nan_segment_duration(self):
        proc = AvailabilityProcess(iter([(math.nan, 0.5)]))
        with pytest.raises(SimulationError, match="duration"):
            proc.level_at(0.0)

    # A timeline of three segments: a check that came after extending the
    # timeline to an infinite end would exhaust it, never hang.
    BAD_INTERVALS = pytest.mark.parametrize(
        "t0, t1, name",
        [
            (math.nan, 5.0, "t0"),
            (0.0, math.nan, "t1"),
            (-5.0, 5.0, "t0"),
            (0.0, math.inf, "t1"),
            (math.inf, math.inf, "t0"),
        ],
    )

    @staticmethod
    def short_process():
        return AvailabilityProcess(iter([(10.0, 1.0)] * 3))

    @BAD_INTERVALS
    def test_work_between(self, t0, t1, name):
        with pytest.raises(SimulationError, match=f"{name} must be finite"):
            self.short_process().work_between(t0, t1)

    @BAD_INTERVALS
    def test_mean_level(self, t0, t1, name):
        with pytest.raises(SimulationError, match=f"{name} must be finite"):
            self.short_process().mean_level(t0, t1)

    def test_reversed_interval(self):
        with pytest.raises(SimulationError, match="interval reversed"):
            self.short_process().work_between(5.0, 3.0)
        with pytest.raises(SimulationError, match="need t1 > t0"):
            self.short_process().mean_level(5.0, 3.0)


class TestMarkov:
    @pytest.fixture
    def model(self):
        return MarkovAvailability(
            levels=(1.0, 0.25),
            mean_sojourn=(50.0, 10.0),
            transition=((0.0, 1.0), (1.0, 0.0)),
        )

    def test_levels_alternate(self, model):
        proc = model.spawn(5)
        seen = {proc.level_at(t) for t in np.arange(0, 2000, 1.0)}
        assert seen == {1.0, 0.25}

    def test_expected_level_two_state(self, model):
        # pi = (1/2, 1/2) embedded; time weights 50:10.
        expected = (50 * 1.0 + 10 * 0.25) / 60
        assert model.expected_level() == pytest.approx(expected)

    def test_longrun_matches_expectation(self, model):
        proc = model.spawn(17)
        assert proc.mean_level(0.0, 200_000.0) == pytest.approx(
            model.expected_level(), abs=0.02
        )

    def test_validation(self):
        with pytest.raises(ModelError):
            MarkovAvailability((), (), ())
        with pytest.raises(ModelError):
            MarkovAvailability((1.0,), (0.0,), ((1.0,),))  # sojourn <= 0
        with pytest.raises(ModelError):
            MarkovAvailability((2.0,), (1.0,), ((1.0,),))  # level > 1
        with pytest.raises(ModelError):
            MarkovAvailability((1.0, 0.5), (1.0, 1.0), ((0.5, 0.4), (1.0, 0.0)))
        with pytest.raises(ModelError):
            MarkovAvailability((1.0,), (1.0,), ((1.0,),), start_state=3)

    @pytest.mark.parametrize(
        "sojourn, field",
        [((1.0, math.nan), r"mean_sojourn\[1\]"),
         ((math.inf, 1.0), r"mean_sojourn\[0\]")],
    )
    def test_non_finite_sojourn_rejected(self, sojourn, field):
        with pytest.raises(ModelError, match=field):
            MarkovAvailability((1.0, 0.5), sojourn, ((0.0, 1.0), (1.0, 0.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_transition_rejected(self, bad):
        with pytest.raises(ModelError, match=r"transition\[1\]"):
            MarkovAvailability((1.0, 0.5), (1.0, 1.0), ((0.0, 1.0), (bad, 1.0)))


class TestTrace:
    def test_replay(self):
        trace = TraceAvailability(((10.0, 0.5), (5.0, 1.0)))
        proc = trace.spawn()
        assert proc.level_at(0.0) == 0.5
        assert proc.level_at(9.99) == 0.5
        assert proc.level_at(12.0) == 1.0

    def test_last_level_persists(self):
        trace = TraceAvailability(((1.0, 0.5), (1.0, 0.25)))
        proc = trace.spawn()
        assert proc.level_at(1e5) == 0.25

    def test_expected_level(self):
        trace = TraceAvailability(((10.0, 0.5), (10.0, 1.0)))
        assert trace.expected_level() == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ModelError):
            TraceAvailability(())
        with pytest.raises(ModelError):
            TraceAvailability(((0.0, 0.5),))
        with pytest.raises(ModelError):
            TraceAvailability(((1.0, 0.0),))

    @pytest.mark.parametrize(
        "segments, field",
        [(((math.nan, 0.5),), r"segments\[0\] duration"),
         (((10.0, 0.5), (math.inf, 1.0)), r"segments\[1\] duration"),
         (((10.0, 0.5), (1.0, math.nan)), r"segments\[1\] level")],
    )
    def test_non_finite_segment_rejected(self, segments, field):
        with pytest.raises(ModelError, match=field):
            TraceAvailability(segments)


class TestQuota:
    def test_paper_case1_type2(self, type2_availability):
        assert quota_levels(type2_availability, 8) == [
            0.25, 0.25, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0,
        ]

    def test_rounding_pessimistic(self):
        pmf = percent_availability([(50, 90), (75, 10)])
        # 2 processors: raw quotas 1.8 / 0.2 -> both at the 50% level.
        assert quota_levels(pmf, 2) == [0.5, 0.5]

    def test_counts_sum(self, type2_availability):
        for n in (1, 3, 5, 8, 13):
            assert len(quota_levels(type2_availability, n)) == n

    def test_mean_close_to_pmf_mean(self, type2_availability):
        levels = quota_levels(type2_availability, 8)
        assert np.mean(levels) == pytest.approx(type2_availability.mean(), abs=0.1)

    def test_for_group(self, type2_availability):
        # A group's quota models: one constant level per processor.
        levels = quota_levels(type2_availability, 8)
        models = [ConstantAvailability(level) for level in levels]
        assert [m.expected_level() for m in models] == levels
        assert models[0].spawn().level_at(123.0) == 0.25

    def test_invalid(self, type2_availability):
        with pytest.raises(ModelError):
            quota_levels(type2_availability, 0)
        with pytest.raises(ModelError):
            ConstantAvailability(0.0)
