"""Fixture tests for the trace-schema drift rules (OBS101/OBS102/OBS103).

The acceptance property: adding an emitter *or* a consumer literal
without a matching registry entry produces a finding, and vice versa
(registry entries nothing emits are flagged as dead schema).
"""

from __future__ import annotations

from repro._lint import lint_sources

SCHEMA_IDS = ["OBS101", "OBS102", "OBS103"]

# A minimal registry in the fixture tree's own obs/schema.py. The rule
# reads the literals by AST — the Spec constructors never need importing.
SCHEMA = (
    "EVENTS = (\n"
    "    EventSpec('sim.ping', required=('worker',)),\n"
    ")\n"
    "METRICS = (\n"
    "    MetricSpec('sim.apps', 'counter'),\n"
    "    MetricSpec('dls.chunks.{technique}', 'counter'),\n"
    "    MetricSpec('sim.makespan', 'histogram'),\n"
    ")\n"
    "SPANS = (\n"
    "    SpanSpec('sim.app'),\n"
    ")\n"
)

# An emitter module exercising every registry entry exactly once.
EMITTER = (
    "from ..obs import event, incr, observe_value, span\n"
    "def go(t, technique):\n"
    "    event('sim.ping', t, worker=2)\n"
    "    incr('sim.apps')\n"
    "    incr(f'dls.chunks.{technique}')\n"
    "    with span('sim.app'):\n"
    "        observe_value('sim.makespan', 1.0)\n"
)

CLEAN = {"obs/schema.py": SCHEMA, "sim/loop.py": EMITTER}


def rule_ids(findings):
    return [finding.rule for finding in findings]


class TestCleanSync:
    def test_registry_and_emitters_in_sync(self):
        assert lint_sources(dict(CLEAN), select=SCHEMA_IDS) == []

    def test_no_registry_means_rule_stays_silent(self):
        # Fixture trees without an obs/schema.py (most lint fixtures)
        # must not drown in OBS findings.
        findings = lint_sources(
            {"sim/loop.py": EMITTER}, select=SCHEMA_IDS
        )
        assert findings == []


class TestEmitterDrift:
    def test_new_event_emitter_without_registry_entry_fails(self):
        sources = dict(CLEAN)
        sources["sim/extra.py"] = (
            "from ..obs import event\n"
            "def fire(t):\n"
            "    event('sim.rogue', t, worker=1)\n"
        )
        findings = lint_sources(sources, select=SCHEMA_IDS)
        assert rule_ids(findings) == ["OBS101"]
        assert "sim.rogue" in findings[0].message
        assert findings[0].pkgpath == "sim/extra.py"

    def test_new_metric_emitter_without_registry_entry_fails(self):
        sources = dict(CLEAN)
        sources["sim/extra.py"] = (
            "from ..obs import incr\n"
            "def fire():\n"
            "    incr('dls.rogue_total')\n"
        )
        findings = lint_sources(sources, select=SCHEMA_IDS)
        assert rule_ids(findings) == ["OBS101"]
        assert "dls.rogue_total" in findings[0].message

    def test_unregistered_span(self):
        sources = dict(CLEAN)
        sources["sim/extra.py"] = (
            "from ..obs import span\n"
            "def fire():\n"
            "    with span('sim.mystery'):\n"
            "        pass\n"
        )
        findings = lint_sources(sources, select=SCHEMA_IDS)
        assert rule_ids(findings) == ["OBS101"]
        assert "sim.mystery" in findings[0].message

    def test_missing_required_event_attr(self):
        sources = dict(CLEAN)
        sources["sim/extra.py"] = (
            "from ..obs import event\n"
            "def fire(t):\n"
            "    event('sim.ping', t)\n"
        )
        findings = lint_sources(sources, select=SCHEMA_IDS)
        assert rule_ids(findings) == ["OBS101"]
        assert "worker" in findings[0].message

    def test_double_star_attrs_are_not_checked(self):
        sources = dict(CLEAN)
        sources["sim/extra.py"] = (
            "from ..obs import event\n"
            "def fire(t, attrs):\n"
            "    event('sim.ping', t, **attrs)\n"
        )
        assert lint_sources(sources, select=SCHEMA_IDS) == []

    def test_metric_kind_mismatch(self):
        sources = dict(CLEAN)
        # sim.makespan is registered as a histogram; incr() emits a counter.
        sources["sim/extra.py"] = (
            "from ..obs import incr\n"
            "def fire():\n"
            "    incr('sim.makespan')\n"
        )
        findings = lint_sources(sources, select=SCHEMA_IDS)
        assert rule_ids(findings) == ["OBS101"]
        assert "histogram" in findings[0].message

    def test_module_import_then_attribute_call(self):
        # `from .. import obs` binds obs to repro.obs, so obs.incr(...)
        # is an emitter exactly like a bare imported incr(...).
        sources = dict(CLEAN)
        sources["sim/extra.py"] = (
            "from .. import obs\n"
            "def fire():\n"
            "    obs.incr('sim.apps')\n"
            "    obs.incr('dls.rogue_total')\n"
        )
        findings = lint_sources(sources, select=SCHEMA_IDS)
        assert rule_ids(findings) == ["OBS101"]
        assert "dls.rogue_total" in findings[0].message
        assert findings[0].line == 4

    def test_unimported_obs_name_is_not_an_emitter(self):
        # A local `incr` that is not imported from repro.obs emits nothing.
        sources = dict(CLEAN)
        sources["sim/extra.py"] = (
            "def incr(name):\n"
            "    return name\n"
            "def fire(counter):\n"
            "    incr('dls.rogue_total')\n"
            "    counter.incr('dls.rogue_total')\n"
        )
        findings = lint_sources(sources, select=SCHEMA_IDS)
        assert rule_ids(findings) == ["OBS102", "OBS102"]

    def test_emitter_literal_with_extra_segment(self):
        # One placeholder is one dot-free segment.
        sources = dict(CLEAN)
        sources["sim/extra.py"] = (
            "from ..obs import incr\n"
            "def fire():\n"
            "    incr('dls.chunks.a.b')\n"
        )
        findings = lint_sources(sources, select=SCHEMA_IDS)
        assert rule_ids(findings) == ["OBS101"]
        assert "dls.chunks.a.b" in findings[0].message

    def test_fstring_emitter_without_matching_pattern(self):
        sources = dict(CLEAN)
        sources["sim/extra.py"] = (
            "from ..obs import incr\n"
            "def fire(t):\n"
            "    incr(f'dls.sizes.{t}')\n"
        )
        findings = lint_sources(sources, select=SCHEMA_IDS)
        assert rule_ids(findings) == ["OBS101"]
        assert "{placeholder}" in findings[0].message


class TestConsumerDrift:
    def test_new_consumer_literal_without_registry_entry_fails(self):
        sources = dict(CLEAN)
        sources["reporting/tables.py"] = (
            "WATCHED = ('sim.ping', 'sim.vanished')\n"
        )
        findings = lint_sources(sources, select=SCHEMA_IDS)
        assert rule_ids(findings) == ["OBS102"]
        assert "sim.vanished" in findings[0].message

    def test_concrete_consumers_matching_registry_are_clean(self):
        # An exact name matches itself; a placeholder matches one segment.
        sources = dict(CLEAN)
        sources["reporting/tables.py"] = (
            "WATCHED = ('sim.apps', 'dls.chunks.FAC', 'dls.chunks.mFSC',"
            " 'dls.chunks.AWF-B')\n"
        )
        assert lint_sources(sources, select=SCHEMA_IDS) == []

    def test_misspelled_consumer_with_a_hyphen_fires(self):
        # Five technique names carry a hyphen (FAC-P, AWF-B ... AWF-E);
        # a consumer spelled with one must be checked like any other.
        sources = dict(CLEAN)
        sources["reporting/tables.py"] = "WATCHED = 'dls.chunk.AWF-B'\n"
        findings = lint_sources(sources, select=SCHEMA_IDS)
        assert rule_ids(findings) == ["OBS102"]
        assert "dls.chunk.AWF-B" in findings[0].message

    def test_consumer_with_extra_segment_fires(self):
        sources = dict(CLEAN)
        sources["reporting/tables.py"] = "WATCHED = 'dls.chunks.a.b'\n"
        findings = lint_sources(sources, select=SCHEMA_IDS)
        assert rule_ids(findings) == ["OBS102"]
        assert "dls.chunks.a.b" in findings[0].message

    def test_consumer_missing_the_placeholder_segment_fires(self):
        sources = dict(CLEAN)
        sources["reporting/tables.py"] = "WATCHED = 'dls.chunks'\n"
        findings = lint_sources(sources, select=SCHEMA_IDS)
        assert rule_ids(findings) == ["OBS102"]
        assert "dls.chunks" in findings[0].message

    def test_pattern_consumer_matching_registry_is_clean(self):
        sources = dict(CLEAN)
        sources["reporting/tables.py"] = (
            "WATCHED = ('sim.ping', 'dls.chunks.*',"
            " 'dls.chunks.{technique}')\n"
        )
        assert lint_sources(sources, select=SCHEMA_IDS) == []

    def test_docstrings_are_not_consumers(self):
        sources = dict(CLEAN)
        sources["reporting/tables.py"] = (
            '"""Mentions sim.totally_unknown in prose only."""\n'
            "def render():\n"
            '    """Also mentions dls.not_a_metric here."""\n'
            "    return 1\n"
        )
        assert lint_sources(sources, select=SCHEMA_IDS) == []

    def test_out_of_namespace_strings_ignored(self):
        sources = dict(CLEAN)
        sources["reporting/tables.py"] = (
            "PATHS = ('results.json', 'numpy.linalg', 'a.b.c')\n"
        )
        assert lint_sources(sources, select=SCHEMA_IDS) == []


class TestCoverageDrift:
    def test_registered_event_never_emitted(self):
        sources = dict(CLEAN)
        sources["obs/schema.py"] = SCHEMA.replace(
            "EVENTS = (\n",
            "EVENTS = (\n    EventSpec('sim.ghost'),\n",
        )
        findings = lint_sources(sources, select=SCHEMA_IDS)
        assert rule_ids(findings) == ["OBS103"]
        assert "sim.ghost" in findings[0].message
        assert findings[0].pkgpath == "obs/schema.py"

    def test_registered_metric_never_emitted(self):
        sources = dict(CLEAN)
        sources["obs/schema.py"] = SCHEMA.replace(
            "    MetricSpec('sim.apps', 'counter'),\n",
            "    MetricSpec('sim.apps', 'counter'),\n"
            "    MetricSpec('sim.idle', 'gauge'),\n",
        )
        findings = lint_sources(sources, select=SCHEMA_IDS)
        assert rule_ids(findings) == ["OBS103"]
        assert "sim.idle" in findings[0].message

    def test_wrong_kind_gets_fix_the_kind_hint(self):
        # Registered as a gauge but emitted via incr: the emitter side
        # raises OBS101 (kind mismatch) and the coverage side points at
        # the registry entry to fix.
        sources = dict(CLEAN)
        sources["obs/schema.py"] = SCHEMA.replace(
            "MetricSpec('sim.apps', 'counter')",
            "MetricSpec('sim.apps', 'gauge')",
        )
        findings = lint_sources(sources, select=SCHEMA_IDS)
        assert sorted(rule_ids(findings)) == ["OBS101", "OBS103"]
        coverage = [f for f in findings if f.rule == "OBS103"][0]
        assert "fix the kind" in coverage.message

    def test_registered_span_never_opened(self):
        sources = dict(CLEAN)
        sources["obs/schema.py"] = SCHEMA.replace(
            "SPANS = (\n",
            "SPANS = (\n    SpanSpec('sim.phantom'),\n",
        )
        findings = lint_sources(sources, select=SCHEMA_IDS)
        assert rule_ids(findings) == ["OBS103"]
        assert "sim.phantom" in findings[0].message
