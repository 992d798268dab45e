"""Tests for the observability layer (repro.obs)."""

from __future__ import annotations

import io
import json
import logging
import tracemalloc

import pytest

import repro.obs as obs
from repro.errors import ObservabilityError
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullSpan,
    Observation,
    Tracer,
    configure_logging,
    console,
    format_observability,
    read_trace,
)


class FakeClock:
    """Deterministic clock ticking by a fixed step per read."""

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test starts and ends with observation disabled."""
    if obs.obs_enabled():
        obs.stop(export=False)
    yield
    if obs.obs_enabled():
        obs.stop(export=False)


# ------------------------------------------------------------------- spans


class TestTracer:
    def test_nesting_parent_child(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.span is not None and inner.span is not None
        assert outer.span.parent_id is None
        assert inner.span.parent_id == outer.span.span_id
        assert tracer.open_spans == 0
        # FakeClock: outer opens at 0, inner 1-2, outer closes at 3.
        assert outer.span.start == 0.0 and outer.span.end == 3.0
        assert inner.span.start == 1.0 and inner.span.end == 2.0
        assert outer.duration == 3.0 and inner.duration == 1.0

    def test_siblings_share_parent(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.span.parent_id == root.span.span_id
        assert b.span.parent_id == root.span.span_id
        assert a.span.span_id != b.span.span_id

    def test_attributes_before_and_after_entry(self):
        tracer = Tracer(clock=FakeClock())
        handle = tracer.span("s", {"x": 1})
        handle.set(y="two")
        with handle:
            handle.set(z=3.0)
        assert handle.span.attributes == {"x": 1, "y": "two", "z": 3.0}

    def test_out_of_order_close_raises(self):
        tracer = Tracer(clock=FakeClock())
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(ObservabilityError, match="out of order"):
            tracer._close(outer.span)

    def test_records_ordered_by_start(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [r["name"] for r in tracer.records()]
        assert names == ["outer", "inner"]  # start order, not close order

    def test_clear_drops_finished(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("s"):
            pass
        assert len(tracer.finished) == 1
        tracer.clear()
        assert tracer.records() == []


class TestTraceRoundTrip:
    def test_write_and_read_back(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", {"app": "A1"}):
            with tracer.span("inner"):
                pass
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        records = read_trace(path)
        meta, outer, inner = records
        assert meta["type"] == "meta"
        assert meta["schema"] == obs.TRACE_SCHEMA_VERSION
        assert meta["records"] == 2 and meta["open_spans"] == 0
        assert outer["name"] == "outer" and outer["attrs"] == {"app": "A1"}
        assert inner["parent"] == outer["id"]
        assert inner["duration"] == inner["end"] - inner["start"]

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n')
        with pytest.raises(ObservabilityError, match="invalid trace line"):
            read_trace(path)

    def test_read_rejects_non_object(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ObservabilityError, match="not an object"):
            read_trace(path)


# ------------------------------------------------------------------ metrics


class TestMetrics:
    def test_counter_accumulates(self):
        c = Counter("n")
        c.inc()
        c.inc(2.5)
        assert c.snapshot() == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            Counter("n").inc(-1.0)

    def test_gauge_tracks_extremes(self):
        g = Gauge("g")
        for v in (3.0, 1.0, 2.0):
            g.set(v)
        assert g.snapshot() == {"last": 2.0, "min": 1.0, "max": 3.0, "updates": 3}

    def test_histogram_buckets(self):
        h = Histogram("h", bounds=[1.0, 10.0])
        for v in (0.5, 5.0, 5.0, 100.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["min"] == 0.5 and snap["max"] == 100.0
        assert snap["mean"] == pytest.approx(110.5 / 4)
        # buckets: <=1 -> 1, <=10 -> 2, overflow (None) -> 1
        assert snap["buckets"] == [[1.0, 1], [10.0, 2], [None, 1]]

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ObservabilityError, match="strictly increasing"):
            Histogram("h", bounds=[1.0, 1.0])
        with pytest.raises(ObservabilityError, match="strictly increasing"):
            Histogram("h", bounds=[])

    def test_registry_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("n") is reg.counter("n")
        reg.inc("n")
        reg.inc("n")
        assert reg.snapshot()["counters"]["n"] == 2.0

    def test_registry_kind_conflict(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(ObservabilityError, match="already registered"):
            reg.gauge("x")
        with pytest.raises(ObservabilityError, match="already registered"):
            reg.observe("x", 1.0)

    def test_registry_records(self):
        reg = MetricsRegistry()
        reg.inc("a.count")
        reg.set("a.gauge", 7.0)
        reg.observe("a.hist", 2.0)
        kinds = [r["type"] for r in reg.records()]
        assert kinds == ["counter", "gauge", "histogram"]
        assert all(json.dumps(r) for r in reg.records())  # JSON-serializable


# -------------------------------------------------------------- module hooks


class TestDisabledNoOp:
    def test_span_is_null_singleton(self):
        assert not obs.obs_enabled()
        handle = obs.span("anything", key="value")
        assert handle is obs.NULL_SPAN
        assert isinstance(handle, NullSpan)
        with handle as entered:
            assert entered.set(more=1) is entered
        assert handle.duration is None

    def test_metric_hooks_do_nothing(self):
        obs.incr("n")
        obs.gauge_set("g", 1.0)
        obs.observe_value("h", 1.0)
        assert obs.metrics_snapshot() is None
        assert obs.current() is None


class TestDisabledOverhead:
    def test_disabled_span_hot_path_allocates_nothing(self):
        # With observation off the span/event hooks must not allocate:
        # one global load, one identity check.
        assert not obs.obs_enabled()

        def hot_path(n: int) -> None:
            for _ in range(n):
                with obs.span("sim.app"):
                    pass
                obs.event("sim.chunk", 1.0)

        hot_path(100)  # warm any lazy caches
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            hot_path(1000)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before == 0, (
            f"disabled span/event hot path retained {after - before} bytes "
            "across 1000 iterations"
        )


class TestSession:
    def test_start_stop_cycle(self):
        session = obs.start()
        assert obs.obs_enabled() and obs.current() is session
        obs.incr("n")
        assert obs.stop(export=False) is session
        assert not obs.obs_enabled()
        assert session.metrics.snapshot()["counters"]["n"] == 1.0

    def test_double_start_raises(self):
        obs.start()
        with pytest.raises(ObservabilityError, match="already active"):
            obs.start()

    def test_stop_without_start_raises(self):
        with pytest.raises(ObservabilityError, match="no active observation"):
            obs.stop()

    def test_observed_exports_on_exit(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.observed(trace_path=path, clock=FakeClock()) as session:
            with obs.span("outer", app="A1"):
                obs.incr("events", 3.0)
                obs.observe_value("sizes", 4.0)
        assert not obs.obs_enabled()
        records = read_trace(path)
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        assert by_type["meta"][0]["records"] == len(records) - 1
        assert by_type["span"][0]["name"] == "outer"
        assert by_type["counter"][0] == {
            "type": "counter",
            "name": "events",
            "value": 3.0,
        }
        assert by_type["histogram"][0]["count"] == 1
        assert session.trace_path == path

    def test_observation_export_override(self, tmp_path):
        session = Observation(clock=FakeClock())
        assert session.export() is None  # no path anywhere: no-op
        with session.tracer.span("s"):
            pass
        out = session.export(tmp_path / "t.jsonl")
        assert out is not None and read_trace(out)[1]["name"] == "s"

    def test_observed_survives_inner_stop(self):
        with obs.observed() as session:
            assert obs.stop(export=False) is session
        assert not obs.obs_enabled()

    def test_env_gate_truthy_values(self):
        assert obs.ENV_FLAG == "REPRO_OBS"
        assert obs.ENV_TRACE == "REPRO_TRACE"


# ----------------------------------------------------------- logging/console


class TestLogsAndConsole:
    def test_console_writes_to_stream(self):
        buf = io.StringIO()
        console("hello", stream=buf)
        console(stream=buf)
        console("x", end="", stream=buf)
        assert buf.getvalue() == "hello\n\nx"

    def test_get_logger_hierarchy(self):
        assert obs.get_logger().name == "repro"
        assert obs.get_logger("framework.cdsf").name == "repro.framework.cdsf"
        assert obs.log is obs.get_logger()

    def test_configure_logging_idempotent(self):
        logger = obs.get_logger()
        marked_before = [
            h for h in logger.handlers
            if getattr(h, "_repro_obs_handler", False)
        ]
        try:
            configure_logging("debug")
            configure_logging(logging.WARNING)
            marked = [
                h for h in logger.handlers
                if getattr(h, "_repro_obs_handler", False)
            ]
            assert len(marked) == 1
            assert logger.level == logging.WARNING
        finally:
            for handler in logger.handlers[:]:
                if getattr(handler, "_repro_obs_handler", False):
                    logger.removeHandler(handler)
            for handler in marked_before:
                logger.addHandler(handler)

    def test_configure_logging_unknown_level(self):
        with pytest.raises(ObservabilityError, match="unknown log level"):
            configure_logging("loudest")


# ----------------------------------------------------------------- reporting


class TestFormatObservability:
    def test_none_placeholder(self):
        text = format_observability(None)
        assert "no observation session" in text

    def test_empty_placeholder(self):
        text = format_observability(
            {"counters": {}, "gauges": {}, "histograms": {}}
        )
        assert "no metrics" in text

    def test_renders_all_sections(self):
        reg = MetricsRegistry()
        reg.inc("sim.apps", 48.0)
        reg.set("cdsf.rho1", 0.75)
        reg.observe("pmf.support", 12.0)
        text = format_observability(reg.snapshot())
        assert "counters" in text and "sim.apps" in text
        assert "gauges" in text and "cdsf.rho1" in text
        assert "histograms" in text and "pmf.support" in text


# ------------------------------------------------------------------- events


class TestEvents:
    def test_event_parented_under_open_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("app") as handle:
            ev = tracer.event("sim.chunk", 42.0, {"worker": 1})
        assert ev.parent_id == handle.span.span_id
        assert ev.time == 42.0
        assert ev.attributes == {"worker": 1}

    def test_top_level_event_has_no_parent(self):
        tracer = Tracer(clock=FakeClock())
        ev = tracer.event("tick", 1.0)
        assert ev.parent_id is None

    def test_records_spans_then_events_by_time(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("app"):
            tracer.event("late", 9.0)
            tracer.event("early", 2.0)
        kinds = [r["type"] for r in tracer.records()]
        assert kinds == ["span", "event", "event"]
        names = [r["name"] for r in tracer.records()]
        assert names == ["app", "early", "late"]  # domain-time order

    def test_clear_drops_events(self):
        tracer = Tracer(clock=FakeClock())
        tracer.event("tick", 1.0)
        tracer.clear()
        assert tracer.events == ()

    def test_event_hook_noop_when_disabled(self):
        assert not obs.obs_enabled()
        assert obs.event("sim.chunk", 1.0, worker=0) is None

    def test_event_hook_records_when_enabled(self):
        session = obs.start()
        with obs.span("app"):
            obs.event("sim.chunk", 3.0, worker=2, size=8)
        obs.stop(export=False)
        (ev,) = session.tracer.events
        assert ev.name == "sim.chunk"
        assert ev.attributes == {"worker": 2, "size": 8}

    def test_event_round_trips_through_jsonl(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("app"):
            tracer.event("sim.chunk", 5.0, {"worker": 0})
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        meta, span_rec, event_rec = read_trace(path)
        assert meta["records"] == 2
        assert event_rec["type"] == "event"
        assert event_rec["parent"] == span_rec["id"]
        assert event_rec["time"] == 5.0
        assert event_rec["attrs"] == {"worker": 0}

    def test_adopt_remaps_event_parents_and_stamps_attrs(self):
        worker = Tracer(clock=FakeClock())
        with worker.span("sim.app"):
            worker.event("sim.chunk", 7.0, {"size": 4})
        worker.event("orphan", 8.0)  # no open span worker-side
        parent = Tracer(clock=FakeClock())
        with parent.span("study.case") as graft:
            adopted = parent.adopt_records(
                worker.records(), attributes={"worker": 123}
            )
        (app_span,) = adopted
        assert app_span.attributes["worker"] == 123
        chunk, orphan = sorted(parent.events, key=lambda e: e.time)
        assert chunk.parent_id == app_span.span_id
        assert chunk.attributes == {"size": 4, "worker": 123}
        # Worker-side roots (and orphan events) graft under the open span.
        assert orphan.parent_id == graft.span.span_id

    def test_read_trace_skip_keeps_good_prefix(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("good"):
            pass
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        with path.open("a") as fh:
            fh.write("not json\n[1]\n")
        with pytest.raises(ObservabilityError, match=r":3: invalid trace line"):
            read_trace(path)
        records = read_trace(path, on_error="skip")
        assert [r.get("name") for r in records if r["type"] == "span"] == [
            "good"
        ]

    def test_read_trace_rejects_unknown_on_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("{}\n")
        with pytest.raises(ObservabilityError, match="on_error"):
            read_trace(path, on_error="ignore")


# -------------------------------------------------------------- percentiles


class TestHistogramPercentiles:
    def test_none_before_observations(self):
        h = Histogram("h", bounds=[1.0, 10.0])
        assert h.percentile(0.5) is None
        snap = h.snapshot()
        assert snap["p50"] is None and snap["p99"] is None

    def test_rejects_out_of_range_q(self):
        h = Histogram("h", bounds=[1.0])
        h.observe(0.5)
        with pytest.raises(ObservabilityError, match=r"\[0, 1\]"):
            h.percentile(1.5)
        with pytest.raises(ObservabilityError, match=r"\[0, 1\]"):
            h.percentile(-0.1)

    def test_single_value_all_percentiles_equal(self):
        h = Histogram("h", bounds=[1.0, 10.0])
        for _ in range(5):
            h.observe(4.0)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert h.percentile(q) == pytest.approx(4.0)

    def test_estimates_clamped_to_observed_range(self):
        h = Histogram("h", bounds=[1.0, 10.0, 100.0])
        for v in (2.0, 3.0, 50.0, 99.0):
            h.observe(v)
        assert h.percentile(0.0) >= 2.0
        assert h.percentile(1.0) <= 99.0

    def test_overflow_bucket_clamped_to_max(self):
        h = Histogram("h", bounds=[1.0])
        for v in (0.5, 500.0):
            h.observe(v)
        # p99 lands in the unbounded overflow bucket: clamp to max seen.
        assert h.percentile(0.99) == pytest.approx(500.0)

    def test_median_within_one_bucket_width(self):
        h = Histogram("h", bounds=[1.0, 2.0, 4.0, 8.0])
        values = [0.5, 1.5, 1.6, 3.0, 3.5, 5.0, 6.0, 7.0]
        for v in values:
            h.observe(v)
        median = sorted(values)[len(values) // 2 - 1]
        assert abs(h.percentile(0.5) - median) <= 2.0  # bucket (2, 4] width

    def test_snapshot_percentiles_ordered(self):
        h = Histogram("h", bounds=[1.0, 2.0, 4.0, 8.0, 16.0])
        for v in range(1, 20):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["p50"] <= snap["p90"] <= snap["p99"]
        assert snap["p99"] <= snap["max"]

    def test_format_observability_shows_percentiles(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.observe("lat", v)
        text = format_observability(reg.snapshot())
        assert "p50" in text and "p90" in text and "p99" in text
