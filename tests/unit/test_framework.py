"""Unit tests of the framework layer (robustness, study, CDSF, scenarios)."""

import pytest

from repro.dls import ROBUST_SET
from repro.errors import ModelError
from repro.framework import (
    CDSF,
    DLSStudy,
    Scenario,
    StudyConfig,
    SystemRobustness,
    availability_decrease,
    run_all_scenarios,
    run_scenario,
    scenario_spec,
    stage_ii_robustness,
)
from repro.pmf import percent_availability
from repro.ra import EqualShareAllocator, ExhaustiveAllocator
from repro.sim import LoopSimConfig
from repro.system import HeterogeneousSystem, ProcessorType


def degraded_system(factor: float) -> HeterogeneousSystem:
    level = 100.0 * factor
    return HeterogeneousSystem(
        [
            ProcessorType("type1", 4, availability=percent_availability([(level, 100)])),
            ProcessorType("type2", 8, availability=percent_availability([(level, 100)])),
        ]
    )


class TestAvailabilityDecrease:
    def test_paper_case2(self, paper_like_system):
        case2 = HeterogeneousSystem(
            [
                ProcessorType(
                    "type1", 4,
                    availability=percent_availability([(50, 90), (75, 10)]),
                ),
                ProcessorType(
                    "type2", 8,
                    availability=percent_availability(
                        [(33, 45), (66, 45), (100, 10)]
                    ),
                ),
            ]
        )
        assert availability_decrease(paper_like_system, case2) == pytest.approx(
            28.17, abs=0.1
        )

    def test_identity_zero(self, paper_like_system):
        assert availability_decrease(paper_like_system, paper_like_system) == 0.0

    def test_improvement_negative(self, paper_like_system):
        better = degraded_system(1.0)
        assert availability_decrease(paper_like_system, better) < 0.0


class TestStageIIRobustness:
    def test_max_over_tolerable(self, paper_like_system):
        cases = {"a": degraded_system(0.6), "b": degraded_system(0.5)}
        rho2 = stage_ii_robustness(
            paper_like_system, cases, {"a": True, "b": True}
        )
        assert rho2 == pytest.approx(
            availability_decrease(paper_like_system, cases["b"])
        )

    def test_intolerable_skipped(self, paper_like_system):
        cases = {"a": degraded_system(0.6), "b": degraded_system(0.5)}
        rho2 = stage_ii_robustness(
            paper_like_system, cases, {"a": True, "b": False}
        )
        assert rho2 == pytest.approx(
            availability_decrease(paper_like_system, cases["a"])
        )

    def test_none_tolerable_zero(self, paper_like_system):
        cases = {"a": degraded_system(0.5)}
        assert stage_ii_robustness(paper_like_system, cases, {"a": False}) == 0.0

    def test_missing_verdict_rejected(self, paper_like_system):
        with pytest.raises(ModelError):
            stage_ii_robustness(paper_like_system, {"a": degraded_system(0.5)}, {})


class TestSystemRobustness:
    def test_tuple(self):
        r = SystemRobustness(rho1=0.745, rho2=30.77)
        assert r.as_tuple() == (0.745, 30.77)

    def test_validation(self):
        with pytest.raises(ModelError):
            SystemRobustness(rho1=1.5, rho2=0.0)


class TestStudyConfig:
    def test_validation(self):
        with pytest.raises(ModelError):
            StudyConfig(deadline=0.0)
        with pytest.raises(ModelError):
            StudyConfig(deadline=10.0, replications=0)

    def test_nan_deadline_rejected(self):
        with pytest.raises(ModelError, match="deadline"):
            StudyConfig(deadline=float("nan"))

    def test_unknown_statistic_rejected_at_construction(self):
        with pytest.raises(ModelError, match="statistic"):
            StudyConfig(deadline=3250.0, statistic="avg")

    @pytest.mark.parametrize(
        ("field", "kwargs"),
        [
            ("deadline", {"deadline": -1.0}),
            ("replications", {"replications": 0}),
            ("seed", {"seed": -5}),
            ("statistic", {"statistic": "mode"}),
        ],
        ids=["deadline", "replications", "seed", "statistic"],
    )
    def test_error_names_the_bad_field(self, field, kwargs):
        with pytest.raises(ModelError, match=f"^{field} "):
            StudyConfig(**{"deadline": 3250.0, **kwargs})

    def test_negative_seed_rejected_at_construction(self):
        with pytest.raises(ModelError, match="seed"):
            StudyConfig(deadline=3250.0, seed=-1)
        assert StudyConfig(deadline=3250.0, seed=0).seed == 0


@pytest.fixture
def quick_config():
    return StudyConfig(
        deadline=3250.0,
        replications=3,
        statistic="mean",
        seed=7,
        sim=LoopSimConfig(overhead=0.5, availability_interval=500.0),
    )


class TestDLSStudy:
    def test_grid_complete(self, paper_like_batch, paper_like_system, quick_config):
        from repro.ra import StageIEvaluator

        alloc = ExhaustiveAllocator().allocate(
            StageIEvaluator(paper_like_batch, paper_like_system, 3250.0)
        ).allocation
        study = DLSStudy(paper_like_batch, alloc, quick_config)
        result = study.run({"case1": paper_like_system}, ["FAC", "AF"])
        assert result.case_ids == ("case1",)
        assert result.technique_names == ("FAC", "AF")
        assert result.app_names == ("app1", "app2", "app3")
        for tech in ("FAC", "AF"):
            for app in result.app_names:
                assert result.time("case1", tech, app) > 0
        assert result.best_technique("case1", "app1") in ("FAC", "AF")
        assert isinstance(result.case_tolerable("case1"), bool)
        assert set(result.tolerable_cases()) == {"case1"}
        assert list(result.cells()) == [
            (case, app, tech, result.time(case, tech, app),
             result.meets_deadline(case, tech, app))
            for case in result.case_ids
            for app in result.app_names
            for tech in result.technique_names
        ]

    def test_unknown_cell(self, paper_like_batch, paper_like_system, quick_config):
        from repro.ra import StageIEvaluator

        alloc = EqualShareAllocator().allocate(
            StageIEvaluator(paper_like_batch, paper_like_system, 3250.0)
        ).allocation
        study = DLSStudy(paper_like_batch, alloc, quick_config)
        result = study.run({"case1": paper_like_system}, ["FAC"])
        with pytest.raises(ModelError):
            result.time("caseX", "FAC", "app1")

    def test_empty_inputs_rejected(
        self, paper_like_batch, paper_like_system, quick_config
    ):
        from repro.ra import StageIEvaluator

        alloc = EqualShareAllocator().allocate(
            StageIEvaluator(paper_like_batch, paper_like_system, 3250.0)
        ).allocation
        study = DLSStudy(paper_like_batch, alloc, quick_config)
        with pytest.raises(ModelError):
            study.run({}, ["FAC"])
        with pytest.raises(ModelError):
            study.run({"case1": paper_like_system}, [])


class TestScenarioSpecs:
    def test_policy_matrix(self):
        s1 = scenario_spec(Scenario.NAIVE_IM_NAIVE_RAS)
        assert isinstance(s1.heuristic, EqualShareAllocator)
        assert s1.techniques == ("STATIC",)
        s2 = scenario_spec(Scenario.ROBUST_IM_NAIVE_RAS)
        assert isinstance(s2.heuristic, ExhaustiveAllocator)
        assert s2.techniques == ("STATIC",)
        s3 = scenario_spec(Scenario.NAIVE_IM_ROBUST_RAS)
        assert s3.techniques == ROBUST_SET
        s4 = scenario_spec(Scenario.ROBUST_IM_ROBUST_RAS)
        assert isinstance(s4.heuristic, ExhaustiveAllocator)
        assert s4.techniques == ROBUST_SET

    def test_flags(self):
        assert Scenario.ROBUST_IM_ROBUST_RAS.robust_im
        assert Scenario.ROBUST_IM_ROBUST_RAS.robust_ras
        assert not Scenario.NAIVE_IM_NAIVE_RAS.robust_im
        assert not Scenario.ROBUST_IM_NAIVE_RAS.robust_ras


class TestCDSFRun:
    def test_end_to_end(self, paper_like_batch, paper_like_system, quick_config):
        cdsf = CDSF(paper_like_batch, paper_like_system, quick_config)
        result = run_scenario(
            Scenario.ROBUST_IM_ROBUST_RAS,
            cdsf,
            {"case1": paper_like_system, "half": degraded_system(0.55)},
        )
        assert result.robustness.rho1 == pytest.approx(0.745, abs=0.005)
        assert result.stage_i.heuristic == "exhaustive-optimal"
        assert result.availability_decreases["case1"] == pytest.approx(0.0)
        assert set(result.best_technique_table()) == {"app1", "app2", "app3"}

    def test_empty_cases_rejected(
        self, paper_like_batch, paper_like_system, quick_config
    ):
        cdsf = CDSF(paper_like_batch, paper_like_system, quick_config)
        with pytest.raises(ModelError):
            cdsf.run(EqualShareAllocator(), {}, ["FAC"])

    def test_all_scenarios(self, paper_like_batch, paper_like_system, quick_config):
        cdsf = CDSF(paper_like_batch, paper_like_system, quick_config)
        results = run_all_scenarios(cdsf, {"case1": paper_like_system})
        assert set(results) == set(Scenario)
        # The hypothesis: robust IM has higher phi1 than naive IM.
        assert (
            results[Scenario.ROBUST_IM_ROBUST_RAS].robustness.rho1
            > results[Scenario.NAIVE_IM_NAIVE_RAS].robustness.rho1
        )


class TestBestTechniquesTies:
    @pytest.fixture(scope="class")
    def study(self):
        from repro.paper import paper_cases, paper_cdsf
        from repro.framework import run_scenario, Scenario

        result = run_scenario(
            Scenario.ROBUST_IM_ROBUST_RAS,
            paper_cdsf(replications=8, seed=3),
            {"case1": paper_cases()["case1"], "case4": paper_cases()["case4"]},
        )
        return result.stage_ii

    def test_best_always_in_tied_set(self, study):
        for case in study.case_ids:
            for app in study.app_names:
                best = study.best_technique(case, app)
                tied = study.best_techniques(case, app)
                if best is None:
                    assert tied == ()
                else:
                    assert best in tied

    def test_fac_wf_always_tied_on_single_type_groups(self, study):
        """FAC == WF by construction here: identical chunk sequences."""
        for case in study.case_ids:
            for app in study.app_names:
                tied = study.best_techniques(case, app)
                assert ("FAC" in tied) == ("WF" in tied), (case, app)

    def test_unschedulable_cell_empty(self, study):
        assert study.best_techniques("case4", "app2") == ()

    def test_tied_techniques_meet_deadline(self, study):
        for case in study.case_ids:
            for app in study.app_names:
                for tech in study.best_techniques(case, app):
                    assert study.meets_deadline(case, tech, app)
