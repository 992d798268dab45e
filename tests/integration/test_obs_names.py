"""Every trace name the library records agrees with docs/observability.md.

The tables of ``docs/observability.md`` are the one list of trace names:
the ``metric | kind`` table, the ``event | required attributes`` table
and the span tree. This test runs every emitter under observation and
compares what was recorded with that list in both directions:

* every documented metric is recorded as its kind, and only that kind;
* every documented event carries at least its required attributes;
* every documented span is opened;
* nothing undocumented is recorded.

Each documented name has exactly one emitter site in ``src``, so a run
that records every name executes every site. A renamed, dropped or
re-kinded emitter, one missing a required attribute, an emitter without
a docs row, or a docs row nothing emits therefore fails here, one test
id per documented name.

The run is scenario 4 on the paper instance under chaos faults, plus
the makespan PMF of its allocation (a second read of each completion
PMF, ``ra.pmf_cache.hit``), one truncating convolution
(``pmf.truncations``) and one pool rebuild after a killed worker
(``exec.*``). The scenario runs on the serial backend: records a pool
adopts get the worker's pid as a default ``worker`` attribute, which
would hide an event that dropped its own.
Metric names that end in a concrete technique (``dls.chunks.FAC``) are
matched as the ``{technique}`` pattern the docs list.
"""

from __future__ import annotations

import os
import re
import signal
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro.obs as obs
from repro.dls import ALL_TECHNIQUES, make_technique
from repro.exec import ProcessPoolBackend, SerialBackend
from repro.faults import FaultEvent, FaultPlan
from repro.framework import Scenario, run_scenario
from repro.obs import timeline
from repro.paper import paper_cases, paper_cdsf
from repro.pmf import PMF, convolve
from repro.sim import LoopSimConfig, simulate_application

DOCS = Path(__file__).resolve().parents[2] / "docs" / "observability.md"

METRIC_KINDS = {"counters": "counter", "gauges": "gauge", "histograms": "histogram"}


def _doc_table_rows(text: str, column: str) -> dict[str, str]:
    """First cell -> second cell of every markdown table headed ``column``."""
    rows: dict[str, str] = {}
    in_table = False
    for line in text.splitlines():
        if not line.startswith("|"):
            in_table = False
            continue
        first, second = (cell.strip() for cell in line.strip("|").split("|")[:2])
        if first == column:
            in_table = True
        elif in_table and set(first) - set("-: "):
            rows[first.strip("`")] = second
    return rows


def _doc_span_tree_names(text: str) -> list[str]:
    """Span names in the docs' span-tree diagram (the block at ``cdsf.run``)."""
    start = text.index("```\ncdsf.run") + len("```\n")
    block = text[start:text.index("```", start)]
    return re.findall(r"^[\s│├└─]*([a-z_]+(?:\.[a-z_]+)+)", block, re.M)


_TEXT = DOCS.read_text(encoding="utf-8")
#: Documented metric name (or ``{technique}`` pattern) -> its kind.
DOC_METRICS = {
    name: kind.strip("`") for name, kind in _doc_table_rows(_TEXT, "metric").items()
}
#: Documented event name -> its required attributes (the ticked tokens).
DOC_EVENTS = {
    name: frozenset(re.findall(r"`([^`]+)`", cell))
    for name, cell in _doc_table_rows(_TEXT, "event").items()
}
DOC_SPANS = _doc_span_tree_names(_TEXT)


def _pattern(name: str) -> str:
    """``name`` with a trailing technique name put back as ``{technique}``."""
    head, _, last = name.rpartition(".")
    return f"{head}.{{technique}}" if last in ALL_TECHNIQUES else name


@dataclass(frozen=True)
class KillOnceTask:
    """Kills its pool worker the first time it runs, then succeeds."""

    sentinel: str

    def run(self) -> int:
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        return 1


@dataclass(frozen=True)
class Recorded:
    metrics: dict[str, set[str]]  # name or pattern -> kinds recorded
    events: dict[str, frozenset[str]]  # name -> attributes every one carried
    spans: set[str]


@pytest.fixture(scope="module")
def recorded(tmp_path_factory) -> Recorded:
    sentinel = tmp_path_factory.mktemp("names") / "killed"
    cdsf = paper_cdsf(
        replications=2, seed=1, sim=LoopSimConfig(faults=FaultPlan.chaos(3e-4))
    )
    # 16 distinct sums, truncated to 8 pulses.
    coarse = PMF([0.0, 1.0, 2.0, 3.0], [0.25] * 4)
    fine = PMF([0.0, 0.25, 0.5, 0.75], [0.25] * 4)
    pool = ProcessPoolBackend(2)
    try:
        with obs.observed() as session:
            result = run_scenario(
                Scenario.ROBUST_IM_ROBUST_RAS,
                cdsf,
                paper_cases(),
                backend=SerialBackend(),
            )
            # The run's report builds each completion PMF once; reading
            # them again hits the PMF cache (``ra.pmf_cache.hit``).
            cdsf.evaluator.makespan_pmf(result.stage_i.allocation)
            convolve(coarse, fine, max_points=8)
            assert pool.run_tasks([KillOnceTask(str(sentinel))]) == [1]
    finally:
        pool.close()
    metrics: dict[str, set[str]] = {}
    for section, kind in METRIC_KINDS.items():
        for name in session.metrics.snapshot()[section]:
            metrics.setdefault(_pattern(name), set()).add(kind)
    events: dict[str, frozenset[str]] = {}
    spans: set[str] = set()
    for record in session.tracer.records():
        name = str(record["name"])
        if record["type"] == "span":
            spans.add(name)
        elif record["type"] == "event":
            attrs = frozenset(record["attrs"])
            events[name] = events.get(name, attrs) & attrs
    return Recorded(metrics, events, spans)


def test_docs_list_parses():
    # An empty list would leave the name tests below without a case.
    assert DOC_METRICS and DOC_EVENTS and DOC_SPANS
    assert set(DOC_METRICS.values()) <= set(METRIC_KINDS.values())
    assert all(DOC_EVENTS.values())
    names = [*DOC_METRICS, *DOC_EVENTS, *DOC_SPANS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", sorted(DOC_METRICS))
def test_documented_metric_recorded_as_its_kind(recorded, name):
    assert recorded.metrics.get(name) == {DOC_METRICS[name]}


@pytest.mark.parametrize("name", sorted(DOC_EVENTS))
def test_documented_event_carries_its_attributes(recorded, name):
    assert name in recorded.events
    assert DOC_EVENTS[name] <= recorded.events[name]


@pytest.mark.parametrize("name", DOC_SPANS)
def test_documented_span_opened(recorded, name):
    assert name in recorded.spans


def test_nothing_undocumented_recorded(recorded):
    undocumented = {
        "metric": sorted(set(recorded.metrics) - set(DOC_METRICS)),
        "event": sorted(set(recorded.events) - set(DOC_EVENTS)),
        "span": sorted(recorded.spans - set(DOC_SPANS)),
    }
    assert undocumented == {"metric": [], "event": [], "span": []}


def test_timeline_overlays_the_documented_fault_events():
    assert timeline.FAULT_EVENT_NAMES == set(DOC_EVENTS) - {"sim.chunk"}


def test_timeline_from_result_synthesizes_documented_events(
    tiny_app, dedicated_system
):
    # A crash of the master (worker 0) mid-chunk: a crash, a failover
    # and a requeue for timeline_from_result to synthesize.
    plan = FaultPlan(events=(FaultEvent(time=15.0, worker=0),), failover_delay=5.0)
    result = simulate_application(
        tiny_app,
        dedicated_system.group("fast", 4),
        make_technique("FAC"),
        seed=5,
        config=LoopSimConfig(overhead=0.0, faults=plan),
    )
    assert result.master_failovers and result.rescheduled_iterations
    names = {event.name for event in timeline.timeline_from_result(result).events}
    assert len(names) == 3
    assert names <= set(DOC_EVENTS)
