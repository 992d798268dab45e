"""Tests for the trace-schema registry (repro.obs.schema).

Beyond the helper functions, this file pins the registry to reality:
the AST view the lint rules extract must equal the imported module, the
emitter literals in the instrumented modules must stay in sync with the
registry, and docs/observability.md must document every declared name
and declare every documented one.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro._lint import run_lint
from repro._lint.core import parse_paths
from repro._lint.graph import ProjectGraph
from repro._lint.rules_schema import _extract_registry, _scan_emitters
from repro.obs import schema, timeline

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"
DOCS = REPO_ROOT / "docs" / "observability.md"


def _doc_table_names(text: str, column: str) -> list[str]:
    """First-cell names of every markdown table whose header is ``column``."""
    names: list[str] = []
    in_table = False
    for line in text.splitlines():
        if not line.startswith("|"):
            in_table = False
            continue
        first = line.strip("|").split("|")[0].strip()
        if first == column:
            in_table = True
        elif in_table and set(first) - set("-: "):
            names.append(first.strip("`"))
    return names


def _doc_span_tree_names(text: str) -> list[str]:
    """Span names in the docs' span-tree diagram (the block at ``cdsf.run``)."""
    start = text.index("```\ncdsf.run") + len("```\n")
    block = text[start:text.index("```", start)]
    return re.findall(r"^[\s│├└─]*([a-z_]+(?:\.[a-z_]+)+)", block, re.M)


class TestSpecs:
    def test_events_have_sorted_unique_names(self):
        names = [spec.name for spec in schema.EVENTS]
        assert len(names) == len(set(names))

    def test_metric_kinds_are_valid(self):
        assert set(schema.METRIC_KINDS) == {"counter", "gauge", "histogram"}
        for spec in schema.METRICS:
            assert spec.kind in schema.METRIC_KINDS, spec.name

    def test_no_duplicate_metric_or_span_names(self):
        metric_names = [spec.name for spec in schema.METRICS]
        assert len(metric_names) == len(set(metric_names))
        span_names = [spec.name for spec in schema.SPANS]
        assert len(span_names) == len(set(span_names))

    def test_fault_event_names_are_registered_events(self):
        assert schema.FAULT_EVENT_NAMES <= set(schema.event_names())
        assert "sim.chunk" not in schema.FAULT_EVENT_NAMES


class TestHelpers:
    def test_is_pattern(self):
        assert schema.is_pattern("dls.chunks.{technique}")
        assert not schema.is_pattern("dls.chunk_size")

    def test_canonical_glob(self):
        assert schema.canonical_glob("dls.chunks.{technique}") == "dls.chunks.*"
        assert schema.canonical_glob("sim.apps") == "sim.apps"

    def test_name_matches_concrete_and_pattern(self):
        assert schema.name_matches("sim.apps", "sim.apps")
        assert schema.name_matches("dls.chunks.{technique}", "dls.chunks.FAC")
        assert schema.name_matches("dls.chunks.*", "dls.chunks.FAC")
        assert not schema.name_matches("dls.chunks.{technique}", "dls.chunks")
        assert not schema.name_matches(
            "dls.chunks.{technique}", "dls.chunks.a.b"
        )

    def test_find_metric_exact_beats_pattern(self):
        spec = schema.find_metric("dls.chunk_size")
        assert spec is not None and spec.kind == "histogram"
        via_pattern = schema.find_metric("dls.chunks.FAC")
        assert via_pattern is not None
        assert via_pattern.name == "dls.chunks.{technique}"
        assert schema.find_metric("dls.unknown") is None

    def test_find_event_and_span(self):
        event = schema.find_event("sim.crash")
        assert event is not None and "lost" in event.required
        assert schema.find_event("sim.unknown") is None
        assert schema.find_span("cdsf.run") is not None
        assert schema.find_span("cdsf.unknown") is None

    def test_validate_event_attrs(self):
        missing = schema.validate_event_attrs(
            "sim.chunk", {"worker": 1, "size": 4}
        )
        assert missing == ("request", "start", "finish")
        complete = {
            "worker": 1,
            "size": 4,
            "request": 1.0,
            "start": 2.0,
            "finish": 3.0,
        }
        assert schema.validate_event_attrs("sim.chunk", complete) == ()
        # Unknown events have no declared requirements to violate.
        assert schema.validate_event_attrs("sim.unknown", {}) == ()


class TestRegistrySync:
    """The registry, the code, and the docs must agree."""

    def test_ast_view_matches_imported_module(self):
        # The lint rules read schema.py as literals without importing it;
        # if the two views diverge the rules check a phantom registry.
        registry = _extract_registry(parse_paths([SRC_DIR]))
        assert registry is not None
        assert registry.events == {
            spec.name: spec.required for spec in schema.EVENTS
        }
        assert registry.metrics == {
            spec.name: spec.kind for spec in schema.METRICS
        }
        assert registry.spans == set(schema.span_names())

    def test_timeline_reexports_schema_fault_names(self):
        assert timeline.FAULT_EVENT_NAMES is schema.FAULT_EVENT_NAMES

    def test_src_tree_has_no_schema_drift(self):
        # The OBS101/102/103 sweep over the real tree: every emitter
        # literal in loopsim/backends/timeline/report resolves against
        # the registry and every registry entry is emitted.
        findings = run_lint([SRC_DIR], select=["OBS101", "OBS102", "OBS103"])
        assert findings == []

    def test_known_emitters_cover_the_registry(self):
        graph = ProjectGraph.for_modules(parse_paths([SRC_DIR]))
        emissions = _scan_emitters(graph)
        emitted_events = {
            e.name for e in emissions if e.category == "event"
        }
        assert emitted_events == set(schema.event_names())
        emitted_metrics = {
            schema.canonical_glob(e.name)
            for e in emissions
            if e.category in ("counter", "gauge", "histogram")
        }
        assert emitted_metrics == {
            schema.canonical_glob(name) for name in schema.metric_names()
        }
        emitted_spans = {e.name for e in emissions if e.category == "span"}
        assert emitted_spans == set(schema.span_names())

    def test_docs_document_every_schema_name(self):
        text = DOCS.read_text(encoding="utf-8")
        names = [
            *schema.event_names(),
            *schema.metric_names(),
            *schema.span_names(),
        ]
        undocumented = [name for name in names if name not in text]
        assert undocumented == []
        # The other direction: a table row or tree node naming something
        # the registry no longer declares is stale.
        documented = {
            "event": _doc_table_names(text, "event"),
            "metric": _doc_table_names(text, "metric"),
            "span": _doc_span_tree_names(text),
        }
        declared = {
            "event": set(schema.event_names()),
            "metric": set(schema.metric_names()),
            "span": set(schema.span_names()),
        }
        for kind, found in documented.items():
            assert found, f"no {kind} names parsed from {DOCS.name}"
        stale = {
            kind: [name for name in found if name not in declared[kind]]
            for kind, found in documented.items()
        }
        assert stale == {"event": [], "metric": [], "span": []}
