"""Integration regression: the paper's stage-I artifacts.

Tables I, IV, V and the phi_1 values are deterministic consequences of the
PMF arithmetic, so they are asserted against the paper's reported values
(within PMF-discretization tolerance; the paper's own numbers carry its
Monte-Carlo sampling noise, e.g. 3800.02 for the exact 3800).
"""

import pytest

from repro.paper import (
    compute_allocations,
    data,
    paper_batch,
    paper_cases,
    paper_system,
    phi1_values,
    table_i_rows,
    table_iv_rows,
    table_v_rows,
)


@pytest.fixture(scope="module")
def stage_i():
    """One run of the naive and exhaustive searches for the whole module."""
    return compute_allocations()


class TestTableI:
    def test_expected_availabilities(self):
        for case, per_type in data.EXPECTED_AVAILABILITY.items():
            system = paper_system(case)
            for type_name, expected_pct in per_type.items():
                measured = 100.0 * system.type(type_name).expected_availability
                # Paper values are rounded to 2 decimals (one entry, case 3
                # type 2, is internally inconsistent by 0.1 — see DESIGN.md).
                assert measured == pytest.approx(expected_pct, abs=0.15), (
                    case,
                    type_name,
                )

    def test_weighted_availabilities(self):
        for case, expected_pct in data.WEIGHTED_AVAILABILITY.items():
            measured = 100.0 * paper_system(case).weighted_availability()
            assert measured == pytest.approx(expected_pct, abs=0.15), case

    def test_availability_decreases(self):
        reference = paper_system("case1").weighted_availability()
        for case, expected_pct in data.AVAILABILITY_DECREASE.items():
            measured = 100.0 * (
                1.0 - paper_system(case).weighted_availability() / reference
            )
            assert measured == pytest.approx(expected_pct, abs=0.25), case

    def test_case_ordering(self):
        """E[A_1] > E[A_2] > E[A_3] > E[A_4] (paper §IV)."""
        weighted = [
            paper_system(case).weighted_availability()
            for case in data.CASE_ORDER
        ]
        assert weighted == sorted(weighted, reverse=True)

    def test_rows_function(self):
        rows = table_i_rows()
        assert len(rows) == 8  # 4 cases x 2 types
        by_key = {(case, t): row for case, t, *row in rows}
        assert by_key[("case1", "type1")][0] == pytest.approx(87.50, abs=0.01)


class TestTableII:
    def test_iteration_percentages(self):
        batch = paper_batch()
        for name, spec in data.APPLICATIONS.items():
            app = batch.app(name)
            assert app.n_serial == spec["serial"]
            assert app.n_parallel == spec["parallel"]
            assert 100.0 * app.serial_frac == pytest.approx(
                spec["serial_pct"], abs=0.1
            )


class TestTableIIIAndPMFs:
    def test_execution_time_means(self):
        batch = paper_batch()
        for app_name, per_type in data.MEAN_EXEC_TIMES.items():
            app = batch.app(app_name)
            for type_name, mu in per_type.items():
                assert app.exec_time.mean(type_name) == pytest.approx(
                    mu, rel=1e-4
                )

    def test_execution_time_cv(self):
        batch = paper_batch()
        pmf = batch.app("app1").single_proc_pmf("type1")
        assert pmf.std() / pmf.mean() == pytest.approx(0.1, rel=0.01)


class TestTableIV:
    def test_allocations_match_paper(self, stage_i):
        _, allocations = stage_i
        rows = table_iv_rows(allocations)
        expected = []
        for policy in ("naive", "robust"):
            for app, (t, n) in sorted(data.TABLE_IV[policy].items()):
                expected.append((policy, app, t, n))
        assert rows == expected


class TestTableV:
    def test_expected_times_match_paper(self, stage_i):
        rows = table_v_rows(*stage_i)
        lookup = {(policy, app): t for policy, app, t in rows}
        for policy, per_app in data.TABLE_V.items():
            for app, expected in per_app.items():
                # The paper's values carry its sampling noise; exact PMF
                # arithmetic lands within 0.1%.
                assert lookup[(policy, app)] == pytest.approx(
                    expected, rel=2e-3
                ), (policy, app)


class TestPhi1:
    def test_values_match_paper(self, stage_i):
        values = phi1_values(*stage_i)
        assert values["naive"] == pytest.approx(data.PHI1["naive"], abs=0.5)
        assert values["robust"] == pytest.approx(data.PHI1["robust"], abs=0.5)

    def test_robust_dominates_naive(self, stage_i):
        values = phi1_values(*stage_i)
        assert values["robust"] > values["naive"]


class TestConsistency:
    def test_compute_allocations_idempotent(self, stage_i):
        _, first = stage_i
        _, second = compute_allocations()
        assert first["naive"] == second["naive"]
        assert first["robust"] == second["robust"]

    def test_cases_complete(self):
        assert tuple(paper_cases()) == data.CASE_ORDER
