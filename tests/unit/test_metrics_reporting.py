"""Unit tests of the makespan and imbalance metrics and the reporting utilities."""

import numpy as np
import pytest

from repro.framework import summary_statistic
from repro.reporting import format_cell, render_table, write_csv
from repro.reporting.tables import render_markdown_table
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

    def test_markdown_numeric_column_right_aligned(self):
        out = render_markdown_table(["name", "n"], [["a", 1.5], ["b", 10]])
        assert out.splitlines() == [
            "| name | n |",
            "| --- | ---: |",
            "| a | 1.50 |",
            "| b | 10 |",
        ]

    def test_markdown_escapes_pipes(self):
        out = render_markdown_table(["a|b"], [["x|y"]])
        assert out.splitlines() == ["| a\\|b |", "| --- |", "| x\\|y |"]

    def test_markdown_row_length_mismatch(self):
        with pytest.raises(ValueError):
            render_markdown_table(["a", "b"], [["only one"]])

    @pytest.mark.parametrize(
        "render", [render_table, render_markdown_table], ids=["text", "markdown"]
    )
    def test_long_row_rejected(self, render):
        with pytest.raises(ValueError, match="3 cells but there are 2 headers"):
            render(["a", "b"], [[1, 2, 3]])

    def test_exact_text_layout(self):
        out = render_table(["name", "n"], [["a", 1.5], ["bb", 10]])
        assert out.splitlines() == [
            "+------+------+",
            "| name |    n |",
            "+------+------+",
            "| a    | 1.50 |",
            "| bb   |   10 |",
            "+------+------+",
        ]

    def test_headers_only(self):
        assert render_table(["a", "b"], []).splitlines() == [
            "+---+---+",
            "| a | b |",
            "+---+---+",
            "+---+---+",
        ]
        assert render_markdown_table(["a", "b"], []).splitlines() == [
            "| a | b |",
            "| --- | --- |",
        ]

    def test_renderers_share_cell_formatting(self):
        headers = ["s", "f", "b", "i"]
        rows = [["x", 1.23456, True, 7]]
        row = "| x | 1.235 | yes | 7 |"
        text = render_table(headers, rows, floatfmt=".3f")
        markdown = render_markdown_table(headers, rows, floatfmt=".3f")
        assert text.splitlines()[-2] == row
        assert markdown.splitlines()[-1] == row

    def test_percent_and_bang_suffixes_are_numeric(self):
        out = render_markdown_table(
            ["share", "flag"], [["12.5%", "3!"], ["7%", "10!"]]
        )
        assert out.splitlines()[1] == "| ---: | ---: |"

    def test_column_with_a_text_cell_is_text(self):
        rows = [[1], ["n/a"]]
        assert render_markdown_table(["v"], rows).splitlines()[1] == "| --- |"
        # Left-aligned, not right-aligned like a numeric column.
        assert render_table(["v"], rows).splitlines()[3] == "| 1   |"

    def test_rows_may_be_a_generator(self):
        def rows():
            return (("a", float(i)) for i in range(3))

        for render in (render_table, render_markdown_table):
            assert render(["k", "v"], rows()) == render(["k", "v"], list(rows()))


class TestFormatCell:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (True, "yes"),
            (False, "no"),
            (1.5, "1.50"),
            (3, "3"),
            ("x|y", "x|y"),
            (None, "None"),
        ],
        ids=["true", "false", "float", "int", "str", "none"],
    )
    def test_default_format(self, value, expected):
        assert format_cell(value) == expected

    def test_floatfmt_applies_to_floats_only(self):
        assert format_cell(0.123456, floatfmt=".4g") == "0.1235"
        assert format_cell(123456, floatfmt=".4g") == "123456"


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
