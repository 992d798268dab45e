"""Tests for span self-time aggregation (repro.obs.span_self_times)."""

from __future__ import annotations

import pytest

from repro.obs import SpanAggregate, Tracer, read_trace, span_self_times


class FakeClock:
    """Deterministic clock ticking by a fixed step per read."""

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


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


# -------------------------------------------------------- span self times


class TestSpanSelfTimesNested:
    def test_three_level_nesting_decomposes_exactly(self):
        records = [
            _span(1, "root", 0.0, 20.0),
            _span(2, "mid", 2.0, 18.0, parent=1),
            _span(3, "leaf", 4.0, 10.0, parent=2),
            _span(4, "leaf", 11.0, 16.0, parent=2),
        ]
        by_name = {a.name: a for a in span_self_times(records)}
        assert by_name["root"].self_time == pytest.approx(4.0)
        assert by_name["mid"].self_time == pytest.approx(5.0)
        assert by_name["leaf"].self_time == pytest.approx(11.0)
        total = sum(a.self_time for a in span_self_times(records))
        assert total == pytest.approx(20.0)

    def test_grandchild_does_not_subtract_from_grandparent(self):
        # leaf is a *grandchild* of root: only mid's duration may be
        # deducted from root, or root's self time double-discounts.
        records = [
            _span(1, "root", 0.0, 10.0),
            _span(2, "mid", 0.0, 8.0, parent=1),
            _span(3, "leaf", 0.0, 8.0, parent=2),
        ]
        by_name = {a.name: a for a in span_self_times(records)}
        assert by_name["root"].self_time == pytest.approx(2.0)
        assert by_name["mid"].self_time == pytest.approx(0.0)
        assert by_name["leaf"].self_time == pytest.approx(8.0)

    def test_real_tracer_nested_tree(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {a.name: a for a in span_self_times(tracer.records())}
        # FakeClock: outer 0..3 (duration 3), inner 1..2 (duration 1).
        assert by_name["outer"].self_time == pytest.approx(2.0)
        assert by_name["inner"].self_time == pytest.approx(1.0)


class TestSpanSelfTimesAdopted:
    """Worker span trees grafted via adopt_records (the pool path)."""

    def _adopted_tracer(self):
        """Parent tracer that adopted a worker subtree under a graft span."""
        worker = Tracer(clock=FakeClock(start=100.0))
        with worker.span("sim.app"):
            with worker.span("sim.chunking"):
                pass
        parent = Tracer(clock=FakeClock())
        with parent.span("cdsf.run"):
            with parent.span("pool.collect") as collect:
                parent.adopt_records(
                    worker.records(), attributes={"worker": 3}
                )
        return parent, collect

    def test_adopted_subtree_subtracts_from_graft_parent_once(self):
        parent, collect = self._adopted_tracer()
        by_name = {a.name: a for a in span_self_times(parent.records())}
        # Worker clock: sim.app 100..103 (3s), sim.chunking 101..102 (1s).
        assert by_name["sim.app"].total == pytest.approx(3.0)
        assert by_name["sim.app"].self_time == pytest.approx(2.0)
        assert by_name["sim.chunking"].self_time == pytest.approx(1.0)
        # Only sim.app (the adopted root) deducts from pool.collect;
        # sim.chunking must not be double-counted against it.
        expected = collect.duration - 3.0
        assert by_name["pool.collect"].self_time == pytest.approx(
            max(0.0, expected)
        )

    def test_adoption_does_not_change_worker_aggregates(self):
        worker = Tracer(clock=FakeClock())
        with worker.span("sim.app"):
            with worker.span("sim.chunking"):
                pass
        solo = {a.name: a for a in span_self_times(worker.records())}

        parent, _ = self._adopted_tracer()
        merged = {a.name: a for a in span_self_times(parent.records())}
        for name in ("sim.app", "sim.chunking"):
            assert merged[name].count == solo[name].count
            assert merged[name].self_time == pytest.approx(
                solo[name].self_time
            )

    def test_two_workers_adopted_both_counted(self):
        parent = Tracer(clock=FakeClock())
        with parent.span("pool.collect"):
            for start in (50.0, 80.0):
                worker = Tracer(clock=FakeClock(start=start))
                with worker.span("sim.app"):
                    pass
                parent.adopt_records(worker.records())
        by_name = {a.name: a for a in span_self_times(parent.records())}
        assert by_name["sim.app"].count == 2
        assert by_name["sim.app"].total == pytest.approx(2.0)


class TestSpanSelfTimesEdges:
    """Record shapes a trace can hold besides one clean nested tree."""

    def test_empty_trace_has_no_aggregates(self):
        assert span_self_times([]) == []

    def test_unknown_parent_counts_as_a_root(self):
        # The parent id names no record (e.g. a trace cut mid-run):
        # nothing is deducted and nothing else is charged.
        records = [
            _span(5, "orphan", 0.0, 3.0, parent=99),
            _span(6, "root", 0.0, 4.0),
        ]
        by_name = {a.name: a for a in span_self_times(records)}
        assert by_name["orphan"].self_time == pytest.approx(3.0)
        assert by_name["root"].self_time == pytest.approx(4.0)

    def test_closed_child_of_open_span_keeps_its_time(self):
        open_parent = {
            "type": "span", "id": 1, "parent": None, "name": "open",
            "start": 0.0, "attrs": {},
        }
        records = [open_parent, _span(2, "child", 1.0, 4.0, parent=1)]
        (child,) = span_self_times(records)
        assert child.name == "child"
        assert child.self_time == pytest.approx(3.0)

    def test_non_numeric_duration_is_skipped(self):
        record = _span(1, "bad", 0.0, 1.0)
        record["duration"] = "1.0"
        records = [record, _span(2, "ok", 0.0, 2.0)]
        assert [a.name for a in span_self_times(records)] == ["ok"]

    def test_integer_durations_become_floats(self):
        records = [_span(1, "root", 0, 4), _span(2, "leaf", 1, 2, parent=1)]
        by_name = {a.name: a for a in span_self_times(records)}
        assert isinstance(by_name["root"].total, float)
        assert by_name["root"].self_time == pytest.approx(3.0)

    def test_child_outlasting_parent_clamps_parent_to_zero(self):
        # Clock skew between a worker and its graft parent can make an
        # adopted child longer than the parent; self time stays >= 0.
        records = [
            _span(1, "parent", 0.0, 2.0),
            _span(2, "child", 0.0, 5.0, parent=1),
        ]
        by_name = {a.name: a for a in span_self_times(records)}
        assert by_name["parent"].self_time == 0.0
        assert by_name["child"].self_time == pytest.approx(5.0)

    def test_equal_self_times_ordered_by_name(self):
        records = [
            _span(1, "b", 0.0, 1.0),
            _span(2, "a", 0.0, 1.0),
            _span(3, "c", 0.0, 2.0),
        ]
        assert [a.name for a in span_self_times(records)] == ["c", "a", "b"]

    def test_one_name_under_different_parents_folds(self):
        records = [
            _span(1, "cdsf.stage_i", 0.0, 4.0),
            _span(2, "pmf.convolve", 0.0, 1.0, parent=1),
            _span(3, "cdsf.stage_ii", 4.0, 10.0),
            _span(4, "pmf.convolve", 4.0, 7.0, parent=3),
        ]
        by_name = {a.name: a for a in span_self_times(records)}
        convolve = by_name["pmf.convolve"]
        assert convolve.count == 2
        assert convolve.total == pytest.approx(4.0)
        assert convolve.self_time == pytest.approx(4.0)
        assert convolve.mean == pytest.approx(2.0)
        assert by_name["cdsf.stage_i"].self_time == pytest.approx(3.0)
        assert by_name["cdsf.stage_ii"].self_time == pytest.approx(3.0)

    def test_written_trace_reads_back_to_same_aggregates(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        assert span_self_times(read_trace(path)) == span_self_times(
            tracer.records()
        )


class TestSpanAggregate:
    def test_mean_is_total_over_count(self):
        assert SpanAggregate("x", 4, 10.0, 6.0).mean == pytest.approx(2.5)

    def test_mean_of_empty_aggregate_is_zero(self):
        assert SpanAggregate("x", 0, 0.0, 0.0).mean == 0.0
