"""Unit tests for FePIA robustness radii."""

import pytest

from repro.errors import ModelError
from repro.framework import per_type_radius, robustness_radii


@pytest.fixture(scope="module")
def paper_setup():
    from repro.paper import data, paper_batch, paper_system
    from repro.ra import ExhaustiveAllocator, StageIEvaluator

    batch = paper_batch()
    system = paper_system("case1")
    evaluator = StageIEvaluator(batch, system, data.DEADLINE)
    allocation = ExhaustiveAllocator().allocate(evaluator).allocation
    return batch, system, allocation, data.DEADLINE


class TestFePIA:
    def test_radii_positive_and_bounded(self, paper_setup):
        batch, system, allocation, deadline = paper_setup
        report = robustness_radii(batch, system, allocation, deadline)
        for name, radius in report.per_type.items():
            assert 0.0 < radius <= 99.0, name
        assert 0.0 < report.uniform <= 99.0

    def test_uniform_is_binding_minimum(self, paper_setup):
        """Degrading everything is at least as harmful as any single type."""
        batch, system, allocation, deadline = paper_setup
        report = robustness_radii(batch, system, allocation, deadline)
        assert report.uniform <= min(report.per_type.values()) + 0.1
        assert report.fepia_metric == pytest.approx(report.uniform, abs=0.1)

    def test_type2_binds_for_paper_allocation(self, paper_setup):
        """app3 sits at 2700 of 3250 on type2 -> type2's radius is smallest."""
        batch, system, allocation, deadline = paper_setup
        report = robustness_radii(batch, system, allocation, deadline)
        assert report.per_type["type2"] < report.per_type["type1"]
        # app3: E[T] = 2700; violated when availability scale drops below
        # 2700/3250 -> radius ~ 1 - 2700/3250 = 16.9%.
        assert report.per_type["type2"] == pytest.approx(16.9, abs=0.5)

    def test_slack_deadline_maxes_radius(self, paper_setup):
        batch, system, allocation, _ = paper_setup
        report = robustness_radii(batch, system, allocation, 1e9)
        assert report.uniform == pytest.approx(99.0)

    def test_tight_deadline_zero_radius(self, paper_setup):
        batch, system, allocation, _ = paper_setup
        assert per_type_radius(
            batch, system, allocation, 100.0, "type1"
        ) == 0.0

    def test_unknown_type_rejected(self, paper_setup):
        batch, system, allocation, deadline = paper_setup
        with pytest.raises(ModelError):
            per_type_radius(batch, system, allocation, deadline, "typeX")
        with pytest.raises(ModelError):
            per_type_radius(batch, system, allocation, 0.0, "type1")

    def test_nan_deadline_rejected(self, paper_setup):
        batch, system, allocation, _ = paper_setup
        with pytest.raises(ModelError, match="deadline"):
            per_type_radius(batch, system, allocation, float("nan"), "type1")
