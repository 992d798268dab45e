"""Unit tests of the makespan and imbalance metrics and the reporting utilities."""

import numpy as np
import pytest

from repro.framework import summary_statistic
from repro.reporting import render_table, write_csv
from repro.sim import AppRunResult, BatchRunResult
from repro.sim.results import finish_time_cv


def _app(name, makespan):
    return AppRunResult(
        app_name=name, technique="FAC", group_type="t", group_size=1,
        serial_time=0.0, makespan=makespan, chunks=(),
        worker_finish_times={0: makespan}, iterations_executed=0,
    )


def _batch(*makespans, deadline=None):
    return BatchRunResult(
        app_results={f"app{i}": _app(f"app{i}", m) for i, m in enumerate(makespans)},
        deadline=deadline,
    )


class TestMakespanMetrics:
    def test_system_makespan(self):
        assert _batch(1.0, 5.0, 3.0).makespan == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _batch().makespan

    def test_deadline(self):
        assert _batch(100.0, deadline=100.0).meets_deadline()
        assert not _batch(100.1, deadline=100.0).meets_deadline()

    def test_summary_statistics(self):
        values = [1.0, 2.0, 3.0, 10.0]
        assert summary_statistic(values, "mean") == pytest.approx(4.0)
        assert summary_statistic(values, "median") == pytest.approx(2.5)
        assert summary_statistic(values, "max") == 10.0
        assert summary_statistic(values, "min") == 1.0
        assert summary_statistic(values, "p90") == pytest.approx(
            float(np.percentile(values, 90))
        )

    def test_summary_statistic_validation(self):
        with pytest.raises(ValueError):
            summary_statistic([], "mean")
        with pytest.raises(ValueError):
            summary_statistic([1.0], "mode")


class TestImbalanceMetrics:
    def test_balanced(self):
        assert finish_time_cv([5.0, 5.0, 5.0]) == 0.0

    def test_imbalanced(self):
        # mean 2, population std sqrt(2): sigma/mu = sqrt(2)/2
        assert finish_time_cv([1.0, 1.0, 4.0]) == pytest.approx(np.sqrt(2.0) / 2.0)

    def test_zero_times(self):
        assert finish_time_cv([0.0, 0.0]) == 0.0


class TestRenderTable:
    def test_basic_shape(self):
        out = render_table(
            ["name", "value"], [["a", 1.5], ["bb", 22.25]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert "22.25" in out

    def test_alignment(self):
        out = render_table(["n"], [["1.0"], ["10.0"]])
        rows = out.splitlines()[-3:-1]
        # numeric column right-aligned: shorter number indented
        assert rows[0].index("1.0") > rows[1].index("10.0")

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only one"]])

    def test_bool_formatting(self):
        out = render_table(["ok"], [[True], [False]])
        assert "yes" in out and "no" in out


class TestExport:
    def test_csv_roundtrip(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv", ["a", "b"], [[1, "x"], [2, "y"]]
        )
        content = path.read_text().strip().splitlines()
        assert content[0] == "a,b"
        assert content[1] == "1,x"

    def test_csv_row_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1]])

    def test_nested_dirs_created(self, tmp_path):
        path = write_csv(tmp_path / "deep" / "dir" / "t.csv", ["a"], [[1]])
        assert path.exists()
