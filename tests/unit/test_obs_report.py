"""Tests for markdown run reports and comparisons (repro.obs.report)."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    RunRecord,
    load_run,
    render_run_comparison,
    render_run_report,
    span_self_times,
)


def _span(id, name, start, end, parent=None, attrs=None):
    return {
        "type": "span",
        "id": id,
        "parent": parent,
        "name": name,
        "start": start,
        "end": end,
        "duration": end - start,
        "attrs": attrs or {},
    }


def _event(id, name, parent, time, attrs=None):
    return {
        "type": "event",
        "id": id,
        "parent": parent,
        "name": name,
        "time": time,
        "attrs": attrs or {},
    }


class TestSpanSelfTimes:
    def test_self_time_excludes_direct_children(self):
        records = [
            _span(1, "root", 0.0, 10.0),
            _span(2, "child", 1.0, 4.0, parent=1),
            _span(3, "child", 5.0, 9.0, parent=1),
            _span(4, "leaf", 5.5, 6.5, parent=3),
        ]
        by_name = {a.name: a for a in span_self_times(records)}
        assert by_name["root"].self_time == pytest.approx(3.0)
        assert by_name["root"].total == pytest.approx(10.0)
        assert by_name["child"].count == 2
        assert by_name["child"].total == pytest.approx(7.0)
        assert by_name["child"].self_time == pytest.approx(6.0)
        assert by_name["leaf"].self_time == pytest.approx(1.0)
        assert by_name["leaf"].mean == pytest.approx(1.0)

    def test_self_times_sum_to_root_duration(self):
        records = [
            _span(1, "root", 0.0, 10.0),
            _span(2, "a", 0.0, 6.0, parent=1),
            _span(3, "b", 6.0, 10.0, parent=1),
        ]
        total_self = sum(a.self_time for a in span_self_times(records))
        assert total_self == pytest.approx(10.0)

    def test_sorted_by_self_time_desc(self):
        records = [
            _span(1, "small", 0.0, 1.0),
            _span(2, "big", 0.0, 5.0),
        ]
        assert [a.name for a in span_self_times(records)] == ["big", "small"]

    def test_ignores_events_and_open_spans(self):
        records = [
            _span(1, "root", 0.0, 2.0),
            _event(9, "sim.chunk", 1, 1.0),
            {"type": "span", "id": 2, "parent": 1, "name": "open",
             "start": 1.0, "attrs": {}},
            {"type": "meta", "schema": 2},
        ]
        assert [a.name for a in span_self_times(records)] == ["root"]


# ---------------------------------------------------- synthetic run dirs


def _write_run(
    base,
    run_id,
    *,
    rho=(0.8, 40.0),
    mean_time=100.0,
    counters=None,
    faults=False,
):
    """Hand-author a minimal but complete run directory."""
    path = base / run_id
    (path / "results").mkdir(parents=True)
    manifest = {
        "schema": 1,
        "run_id": run_id,
        "command": "scenario",
        "argv": ["repro", "scenario", "4"],
        "scenario": 4,
        "seed": 1,
        "started": "2026-08-06T12:00:00Z",
        "wall_seconds": 1.5,
        "exit_code": 0,
    }
    if faults:
        manifest["faults"] = True
        manifest["fault_plan"] = {"crash_rate": 0.0003, "failover_delay": 10.0}
    (path / "manifest.json").write_text(json.dumps(manifest))
    cells = [
        {"case": "case1", "app": "app1", "technique": "FAC",
         "time": mean_time, "meets_deadline": True},
        {"case": "case1", "app": "app1", "technique": "STATIC",
         "time": 2 * mean_time, "meets_deadline": False},
    ]
    payload = {
        "kind": "scenario",
        "scenario": 4,
        "deadline": 5000.0,
        "robustness": {"rho1": rho[0], "rho2": rho[1]},
        "cells": cells,
    }
    (path / "results" / "scenario.json").write_text(json.dumps(payload))
    (path / "metrics.json").write_text(
        json.dumps({"counters": counters or {"sim.chunks": 10.0}})
    )
    records = [
        {"type": "meta", "schema": 2},
        _span(1, "cdsf.run", 0.0, 2.0),
        _span(2, "sim.app", 0.1, 1.9, parent=1,
              attrs={"app": "app1", "technique": "FAC", "group_size": 2,
                     "serial_time": 10.0}),
        _event(3, "sim.chunk", 2, 30.0,
               attrs={"worker": 0, "size": 5, "request": 10.0,
                      "start": 11.0, "finish": 30.0}),
        _event(4, "sim.chunk", 2, 28.0,
               attrs={"worker": 1, "size": 5, "request": 10.0,
                      "start": 11.0, "finish": 28.0}),
    ]
    if faults:
        records.append(
            _event(5, "sim.crash", 2, 20.0, attrs={"worker": 1, "lost": 2})
        )
        records.append(
            _event(6, "sim.requeue", 2, 20.0, attrs={"worker": 1, "size": 2})
        )
    with (path / "trace.jsonl").open("w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return load_run(path)


class TestRenderRunReport:
    def test_full_report_sections(self, tmp_path):
        run = _write_run(tmp_path, "r1")
        report = render_run_report(run)
        assert report.startswith("# repro run `r1`")
        assert "| command | scenario |" in report.replace("  ", " ")
        assert "## Results" in report
        assert "### scenario" in report
        assert "(rho1, rho2) = (80.00%, 40.00%)" in report
        assert "## Worker timelines" in report
        assert "## Top spans by self-time" in report
        assert "FAC" in report and "STATIC" in report
        # Fault-free, no fault plan: no fault section.
        assert "## Faults" not in report

    def test_fault_section_present_with_plan(self, tmp_path):
        run = _write_run(tmp_path, "r1", faults=True)
        report = render_run_report(run)
        assert "## Faults" in report
        assert "crash_rate=0.0003" in report
        assert "1 worker crash(es), 2 iteration(s) requeued" in report

    def test_report_without_trace_or_results(self, tmp_path):
        (tmp_path / "r1").mkdir()
        (tmp_path / "r1" / "manifest.json").write_text(
            json.dumps({"schema": 1, "run_id": "r1"})
        )
        report = render_run_report(load_run(tmp_path / "r1"))
        assert "no worker timelines" in report
        assert "no spans recorded" in report

    def test_spans_section_rows_by_self_time(self, tmp_path):
        report = render_run_report(_write_run(tmp_path, "r1"))
        section = report.split("## Top spans by self-time\n\n", 1)[1]
        assert section.splitlines()[:4] == [
            "| span | count | total s | self s |",
            "| --- | ---: | ---: | ---: |",
            "| sim.app | 1 | 1.8 | 1.8 |",
            "| cdsf.run | 1 | 2 | 0.2 |",
        ]

    def test_spans_section_keeps_top_ten(self, tmp_path):
        run = _write_run(tmp_path, "r1")
        records = [
            _span(i, f"span{i:02d}", 0.0, float(i)) for i in range(1, 13)
        ]
        with (run.path / "trace.jsonl").open("w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        section = render_run_report(load_run(run.path)).split(
            "## Top spans by self-time\n\n", 1
        )[1]
        listed = [
            line.split(" | ")[0].removeprefix("| ")
            for line in section.splitlines()[2:]
            if line.startswith("| span")
        ]
        assert listed == [f"span{i:02d}" for i in range(12, 2, -1)]

    def test_report_is_renderable_markdown_table(self, tmp_path):
        """Every table row has the same pipe count as its header."""
        report = render_run_report(_write_run(tmp_path, "r1"))
        blocks: list[list[str]] = []
        current: list[str] = []
        for line in report.splitlines():
            if line.startswith("|"):
                current.append(line)
            elif current:
                blocks.append(current)
                current = []
        assert blocks, "no tables rendered"
        for block in blocks:
            counts = {line.count("|") for line in block}
            assert len(counts) == 1, block


class TestRenderRunComparison:
    def test_diff_sections(self, tmp_path):
        a = _write_run(tmp_path, "a", rho=(0.8, 40.0), mean_time=100.0,
                       counters={"sim.chunks": 10.0, "faults.crashes": 0.0})
        b = _write_run(tmp_path, "b", rho=(0.8, 10.0), mean_time=150.0,
                       counters={"sim.chunks": 12.0, "faults.crashes": 3.0},
                       faults=True)
        diff = render_run_comparison(a, b)
        assert diff.startswith("# repro compare `a` vs `b`")
        assert "## Per-technique mean execution time" in diff
        assert "## Robustness" in diff
        assert "drop (A - B)" in diff
        assert "## Largest counter deltas" in diff
        # FAC mean went 100 -> 150: the delta column shows +50.
        assert "| FAC" in diff and "| 150 |" in diff and "| 50 |" in diff
        # rho2 dropped by 30 points.
        assert "| 30 |" in diff

    def test_missing_sections_degrade(self, tmp_path):
        for rid in ("a", "b"):
            (tmp_path / rid).mkdir()
            (tmp_path / rid / "manifest.json").write_text(
                json.dumps({"schema": 1, "run_id": rid, "command": "x"})
            )
        diff = render_run_comparison(
            load_run(tmp_path / "a"), load_run(tmp_path / "b")
        )
        assert "# repro compare" in diff
        assert "## Robustness" not in diff
        assert "## Per-technique" not in diff
        assert "## Largest counter deltas" not in diff

    def test_technique_only_in_one_run(self, tmp_path):
        a = _write_run(tmp_path, "a")
        b = _write_run(tmp_path, "b")
        # Drop STATIC from run b's cells.
        results = b.path / "results" / "scenario.json"
        payload = json.loads(results.read_text())
        payload["cells"] = [
            c for c in payload["cells"] if c["technique"] == "FAC"
        ]
        results.write_text(json.dumps(payload))
        diff = render_run_comparison(a, load_run(b.path))
        static_row = next(
            line for line in diff.splitlines() if line.startswith("| STATIC")
        )
        assert "| - |" in static_row
