"""Unit tests of the stage-I evaluator (repro.ra.robustness)."""

import pytest

import repro.obs as obs
from repro.ra import (
    Allocation,
    GreedyRobustAllocator,
    MILPAllocator,
    StageIEvaluator,
    completion_pmf,
)
from repro.system import ProcessorGroup


@pytest.fixture
def evaluator(paper_like_batch, paper_like_system):
    return StageIEvaluator(paper_like_batch, paper_like_system, 3250.0)


def paper_alloc(system, mapping):
    return Allocation(
        {app: ProcessorGroup(system.type(t), n) for app, (t, n) in mapping.items()}
    )


ROBUST = {"app1": ("type1", 2), "app2": ("type1", 2), "app3": ("type2", 8)}
NAIVE = {"app1": ("type2", 4), "app2": ("type1", 4), "app3": ("type2", 4)}


class TestCompletionPMF:
    def test_paper_value(self, paper_like_batch, paper_like_system):
        pmf = completion_pmf(
            paper_like_batch.app("app1"), paper_like_system.group("type1", 2)
        )
        assert pmf.mean() == pytest.approx(1365.0, rel=1e-3)


class TestEvaluator:
    def test_deadline_validation(self, paper_like_batch, paper_like_system):
        with pytest.raises(ValueError):
            StageIEvaluator(paper_like_batch, paper_like_system, 0.0)

    def test_nan_deadline_rejected(self, paper_like_batch, paper_like_system):
        with pytest.raises(ValueError, match="deadline"):
            StageIEvaluator(paper_like_batch, paper_like_system, float("nan"))

    def test_infinite_deadline_valid(self, paper_like_batch, paper_like_system):
        evaluator = StageIEvaluator(paper_like_batch, paper_like_system, float("inf"))
        robustness = evaluator.robustness(paper_alloc(paper_like_system, NAIVE))
        assert robustness == pytest.approx(1.0)

    def test_robustness_paper_values(self, evaluator, paper_like_system):
        naive = paper_alloc(paper_like_system, NAIVE)
        robust = paper_alloc(paper_like_system, ROBUST)
        assert evaluator.robustness(naive) == pytest.approx(0.26, abs=0.005)
        assert evaluator.robustness(robust) == pytest.approx(0.745, abs=0.005)

    def test_report_contents(self, evaluator, paper_like_system):
        report = evaluator.report(paper_alloc(paper_like_system, ROBUST))
        assert set(report.per_app_prob) == {"app1", "app2", "app3"}
        assert report.robustness == pytest.approx(
            report.per_app_prob["app1"]
            * report.per_app_prob["app2"]
            * report.per_app_prob["app3"]
        )
        assert report.expected_times["app3"] == pytest.approx(2700.0, rel=1e-3)
        assert report.meets_deadline_in_expectation()

    def test_report_naive_expected_times(self, evaluator, paper_like_system):
        report = evaluator.report(paper_alloc(paper_like_system, NAIVE))
        assert report.expected_times["app1"] == pytest.approx(3800.0, rel=1e-3)
        assert report.expected_times["app2"] == pytest.approx(1306.7, rel=1e-3)
        assert report.expected_times["app3"] == pytest.approx(4600.0, rel=1e-3)
        assert not report.meets_deadline_in_expectation()

    def test_cache_consistency(self, evaluator, paper_like_system):
        group = paper_like_system.group("type1", 2)
        first = evaluator.app_completion_pmf("app1", group)
        second = evaluator.app_completion_pmf("app1", group)
        assert first is second  # memoized

    def test_joint_probability_matches_robustness(
        self, evaluator, paper_like_system
    ):
        alloc = paper_alloc(paper_like_system, ROBUST)
        assert evaluator.joint_probability(dict(alloc.items())) == (
            evaluator.robustness(alloc)
        )

    def test_cache_info_counts_hits_and_misses(
        self, paper_like_batch, paper_like_system
    ):
        evaluator = StageIEvaluator(paper_like_batch, paper_like_system, 3250.0)
        group = paper_like_system.group("type1", 2)
        assert evaluator.cache_info() == {
            "pmf_hits": 0,
            "pmf_misses": 0,
            "prob_hits": 0,
            "prob_misses": 0,
        }
        for _ in range(3):
            evaluator.app_deadline_prob("app1", group)
        # A probability is read from the time CDF: no completion PMF is
        # built for it.
        assert evaluator.cache_info() == {
            "pmf_hits": 0,
            "pmf_misses": 0,
            "prob_hits": 2,
            "prob_misses": 1,
        }
        for _ in range(2):
            evaluator.app_expected_time("app1", group)
        # The distribution views build the PMF once, then reuse it.
        assert evaluator.cache_info() == {
            "pmf_hits": 1,
            "pmf_misses": 1,
            "prob_hits": 2,
            "prob_misses": 1,
        }

    @pytest.mark.parametrize("allocator", [GreedyRobustAllocator, MILPAllocator])
    def test_probability_searches_build_no_completion_pmf(self, allocator, evaluator):
        with obs.observed() as session:
            allocator().allocate(evaluator)
        assert evaluator.cache_info()["prob_misses"] > 0
        assert evaluator.cache_info()["pmf_misses"] == 0
        assert "pmf.dilations" not in session.metrics.snapshot()["counters"]

    def test_cache_keyed_by_assignment_not_group_identity(
        self, evaluator, paper_like_system
    ):
        a = paper_like_system.group("type1", 2)
        b = paper_like_system.group("type1", 2)
        evaluator.app_deadline_prob("app1", a)
        evaluator.app_deadline_prob("app1", b)
        assert evaluator.cache_info()["prob_hits"] == 1

    def test_cache_counters_reach_obs(self, evaluator, paper_like_system):
        from repro import obs

        group = paper_like_system.group("type1", 2)
        with obs.observed() as session:
            evaluator.app_deadline_prob("app1", group)
            evaluator.app_deadline_prob("app1", group)
            evaluator.joint_probability({"app1": group})
        counters = session.metrics.snapshot()["counters"]
        assert counters["ra.prob_cache.miss"] == 1.0
        assert counters["ra.prob_cache.hit"] == 2.0
        assert counters["ra.candidate_evaluations"] == 1.0

    def test_probability_monotone_in_deadline(
        self, paper_like_batch, paper_like_system
    ):
        group = paper_like_system.group("type2", 4)
        probs = [
            StageIEvaluator(paper_like_batch, paper_like_system, d).app_deadline_prob(
                "app3", group
            )
            for d in (1000.0, 3000.0, 5000.0, 20000.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(probs, probs[1:]))
        assert probs[-1] == pytest.approx(1.0)
