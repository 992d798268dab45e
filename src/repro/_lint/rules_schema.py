"""Trace-schema drift rules.

:mod:`repro.obs.schema` declares every event, metric, and span name the
library emits. Emitters (``obs.event``/``incr``/``gauge_set``/
``observe_value``/``span`` call sites, found by resolving each callee
through its module's imports to a ``repro.obs`` name) and consumers
(string literals that *match* trace names, e.g. in
:mod:`repro.obs.timeline`) used to agree only by convention; this family
machine-checks the agreement in both directions:

* ``OBS101`` — an emitter passes a name (or f-string pattern) that the
  registry does not declare, emits a metric under the wrong kind, or
  omits a required event attribute;
* ``OBS102`` — a string literal anywhere else that *looks like* a trace
  name (``sim.…``, ``dls.…`` — namespaces derived from the registry)
  but matches no registry entry: a consumer waiting for an event that
  will never arrive;
* ``OBS103`` — a registry entry nothing in the scanned tree emits:
  schema rot in the other direction.

The registry is read from the **scanned tree's own** ``obs/schema.py``
by AST (pure literals, never imported), so the rules work identically on
``src`` and on test fixture trees; with no parseable registry in the
tree all three rules are silent. Dynamic names follow the
``{placeholder}``/f-string convention: one placeholder ≙ one dot-free
segment. ``OBS101`` and ``OBS102`` judge each module against the
registry alone; ``OBS103`` needs the emissions of every module, so it is
only meaningful when the whole tree is scanned — lint ``src``, not a
single file, to use it.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from .core import Finding, Module, Rule, dotted_name, register

__all__ = ["SchemaDriftRule"]

_SCHEMA_PKGPATH = "obs/schema.py"

#: obs helper → the registry category it emits into.
_EMITTERS = {
    "event": "event",
    "incr": "counter",
    "gauge_set": "gauge",
    "observe_value": "histogram",
    "span": "span",
}

_PLACEHOLDER_RE = re.compile(r"\{[A-Za-z_][A-Za-z0-9_]*\}")
_PROBE = "x0probe"


@dataclass
class _Registry:
    """The declared schema, extracted from ``obs/schema.py`` by AST."""

    module: Module
    events: dict[str, tuple[str, ...]] = field(default_factory=dict)
    metrics: dict[str, str] = field(default_factory=dict)
    spans: set[str] = field(default_factory=set)
    nodes: dict[tuple[str, str], ast.AST] = field(default_factory=dict)

    def all_names(self) -> set[str]:
        return {*self.events, *self.metrics, *self.spans}

    @cached_property
    def trace_name_re(self) -> re.Pattern[str]:
        """Literals that look like a trace name: a registry namespace
        (``sim``, ``dls``, ...), a dot, and more name characters (a
        hyphen included: technique names such as ``AWF-B`` carry one)."""
        namespaces = {name.split(".", 1)[0] for name in self.all_names()}
        return re.compile(
            r"^(?:" + "|".join(sorted(re.escape(ns) for ns in namespaces)) + r")"
            r"\.[A-Za-z0-9_.{}*-]+$"
        )


def _glob(name: str) -> str:
    """Placeholders collapsed to ``*`` (one dot-free segment each)."""
    return _PLACEHOLDER_RE.sub("*", name)


def _glob_regex(name: str) -> re.Pattern[str]:
    parts = [
        r"[^.]+" if piece == "*" else re.escape(piece)
        for piece in re.split(r"(\*)", _glob(name))
        if piece
    ]
    return re.compile("".join(parts))


def _agree(a: str, b: str) -> bool:
    """Do two names/patterns denote at least one common concrete name?"""
    probe_a = _glob(a).replace("*", _PROBE)
    probe_b = _glob(b).replace("*", _PROBE)
    return (
        _glob_regex(a).fullmatch(probe_b) is not None
        or _glob_regex(b).fullmatch(probe_a) is not None
    )


def _const_str(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _const_str_tuple(node: ast.expr | None) -> tuple[str, ...]:
    if isinstance(node, (ast.Tuple, ast.List)):
        out = []
        for element in node.elts:
            value = _const_str(element)
            if value is not None:
                out.append(value)
        return tuple(out)
    return ()


def _spec_ctor(node: ast.expr) -> str | None:
    name = dotted_name(node)
    return name.rsplit(".", 1)[-1] if name else None


def _extract_registry(modules: Sequence[Module]) -> _Registry | None:
    schema_module = next(
        (m for m in modules if m.pkgpath == _SCHEMA_PKGPATH), None
    )
    if schema_module is None:
        return None
    registry = _Registry(module=schema_module)
    for stmt in schema_module.tree.body:
        if isinstance(stmt, ast.Assign):
            targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            targets = [stmt.target.id]
            value = stmt.value
        else:
            continue
        if not targets or targets[0] not in ("EVENTS", "METRICS", "SPANS"):
            continue
        if not isinstance(value, (ast.Tuple, ast.List)):
            continue
        for element in value.elts:
            if not isinstance(element, ast.Call):
                continue
            ctor = _spec_ctor(element.func)
            name = _const_str(element.args[0]) if element.args else None
            if name is None:
                continue
            if ctor == "EventSpec":
                required = _const_str_tuple(
                    element.args[1] if len(element.args) > 1 else None
                )
                for keyword in element.keywords:
                    if keyword.arg == "required":
                        required = _const_str_tuple(keyword.value)
                registry.events[name] = required
                registry.nodes[("event", name)] = element
            elif ctor == "MetricSpec":
                kind = "counter"
                if len(element.args) > 1:
                    kind = _const_str(element.args[1]) or kind
                for keyword in element.keywords:
                    if keyword.arg == "kind":
                        kind = _const_str(keyword.value) or kind
                registry.metrics[name] = kind
                registry.nodes[("metric", name)] = element
            elif ctor == "SpanSpec":
                registry.spans.add(name)
                registry.nodes[("span", name)] = element
    if not registry.events and not registry.metrics and not registry.spans:
        return None
    return registry


def _emitted_name(node: ast.expr) -> str | None:
    """The literal (or f-string glob) name an emitter call passes."""
    literal = _const_str(node)
    if literal is not None:
        return literal
    if isinstance(node, ast.JoinedStr):
        pieces: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                pieces.append(value.value)
            elif isinstance(value, ast.FormattedValue):
                pieces.append("*")
            else:
                return None
        return "".join(pieces)
    return None


@dataclass
class _Emission:
    name: str  # concrete name or * glob
    category: str  # event | counter | gauge | histogram | span
    call: ast.Call
    module: Module


def _scan_emitters(module: Module) -> list[_Emission]:
    """Every ``repro.obs`` emitter call in ``module`` with a literal name."""
    emissions: list[_Emission] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        raw = dotted_name(node.func)
        if raw is None:
            continue
        resolved = module.resolve(raw)
        if not resolved.startswith("repro.obs"):
            continue
        category = _EMITTERS.get(resolved.rsplit(".", 1)[-1])
        name = _emitted_name(node.args[0])
        if category is not None and name is not None:
            emissions.append(_Emission(name, category, node, module))
    return emissions


def _docstring_nodes(tree: ast.Module) -> set[int]:
    """ids of bare-string expression statements (docstrings / no-ops)."""
    found: set[int] = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if not isinstance(body, list):
            continue
        for stmt in body:
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                found.add(id(stmt.value))
    return found


@register
class SchemaDriftRule(Rule):
    id = "OBS101"
    ids = ("OBS101", "OBS102", "OBS103")
    title = "trace names agree with the schema registry in both directions"
    rationale = (
        "emitters and consumers coordinate through string literals; a "
        "renamed event silently empties every timeline and report, so "
        "both sides must match the declared registry in "
        "repro/obs/schema.py"
    )

    def check_project(self, modules: Sequence[Module]) -> Iterator[Finding]:
        registry = _extract_registry(modules)
        if registry is None:
            return
        emissions: list[_Emission] = []
        for module in modules:
            found = _scan_emitters(module)
            yield from self._check_emitters(registry, found)
            yield from self._check_consumers(registry, module, found)
            emissions.extend(found)
        yield from self._check_coverage(registry, emissions)

    # ----------------------------------------------------------- OBS101

    def _check_emitters(
        self, registry: _Registry, emissions: list[_Emission]
    ) -> Iterator[Finding]:
        for emission in emissions:
            if emission.category == "event":
                yield from self._check_event_emission(registry, emission)
            elif emission.category == "span":
                if not any(_agree(s, emission.name) for s in registry.spans):
                    yield emission.module.finding(
                        emission.call,
                        "OBS101",
                        f"span `{emission.name}` is not declared in the "
                        "schema registry (repro/obs/schema.py SPANS)",
                    )
            else:
                yield from self._check_metric_emission(registry, emission)

    def _check_event_emission(
        self, registry: _Registry, emission: _Emission
    ) -> Iterator[Finding]:
        spec = next(
            (
                (name, required)
                for name, required in registry.events.items()
                if _agree(name, emission.name)
            ),
            None,
        )
        if spec is None:
            yield emission.module.finding(
                emission.call,
                "OBS101",
                f"event `{emission.name}` is not declared in the schema "
                "registry (repro/obs/schema.py EVENTS)",
            )
            return
        _, required = spec
        keywords = emission.call.keywords
        if any(keyword.arg is None for keyword in keywords):
            return  # **attrs unpacking: attributes not statically known
        present = {keyword.arg for keyword in keywords}
        missing = [attr for attr in required if attr not in present]
        if missing:
            yield emission.module.finding(
                emission.call,
                "OBS101",
                f"event `{emission.name}` omits required attribute(s) "
                f"{', '.join(f'`{attr}`' for attr in missing)} declared "
                "in the schema registry",
            )

    def _check_metric_emission(
        self, registry: _Registry, emission: _Emission
    ) -> Iterator[Finding]:
        match = next(
            (
                (name, kind)
                for name, kind in registry.metrics.items()
                if _agree(name, emission.name)
            ),
            None,
        )
        if match is None:
            hint = (
                " (dynamic names need a `{placeholder}` pattern entry)"
                if "*" in emission.name
                else ""
            )
            yield emission.module.finding(
                emission.call,
                "OBS101",
                f"metric `{emission.name}` (emitted as {emission.category}) "
                "is not declared in the schema registry "
                f"(repro/obs/schema.py METRICS){hint}",
            )
            return
        name, kind = match
        if kind != emission.category:
            yield emission.module.finding(
                emission.call,
                "OBS101",
                f"metric `{emission.name}` emitted as {emission.category} "
                f"but declared as {kind} in the schema registry",
            )

    # ----------------------------------------------------------- OBS102

    def _check_consumers(
        self, registry: _Registry, module: Module, emissions: list[_Emission]
    ) -> Iterator[Finding]:
        if module.pkgpath == _SCHEMA_PKGPATH:
            return
        declared = registry.all_names()
        emitter_args = {id(e.call.args[0]) for e in emissions}
        skip_ids = _docstring_nodes(module.tree)
        for node in ast.walk(module.tree):
            value = _const_str(node) if isinstance(node, ast.expr) else None
            if value is None or id(node) in skip_ids:
                continue
            if id(node) in emitter_args:
                continue  # the emitter side; OBS101's job
            if not registry.trace_name_re.match(value) or value.endswith("."):
                continue
            if any(_agree(entry, value) for entry in declared):
                continue
            yield module.finding(
                node,
                "OBS102",
                f"string `{value}` looks like a trace name (namespace "
                f"`{value.split('.', 1)[0]}.`) but matches no schema "
                "registry entry; a consumer matching it will never "
                "fire — declare it in repro/obs/schema.py or rename",
            )

    # ----------------------------------------------------------- OBS103

    def _check_coverage(
        self, registry: _Registry, emissions: list[_Emission]
    ) -> Iterator[Finding]:
        by_category: dict[str, list[str]] = {}
        for emission in emissions:
            by_category.setdefault(emission.category, []).append(emission.name)
        checks = [
            ("event", registry.events.keys(), ("event",)),
            ("span", registry.spans, ("span",)),
        ]
        for label, names, categories in checks:
            emitted = [
                name for cat in categories for name in by_category.get(cat, [])
            ]
            for name in names:
                if not any(_agree(name, e) for e in emitted):
                    yield registry.module.finding(
                        registry.nodes[(label, name)],
                        "OBS103",
                        f"schema declares {label} `{name}` but no emitter "
                        "in the scanned tree produces it; remove the entry "
                        "or wire the emitter",
                    )
        for name, kind in registry.metrics.items():
            emitted = by_category.get(kind, [])
            if not any(_agree(name, e) for e in emitted):
                others = [
                    cat
                    for cat in ("counter", "gauge", "histogram")
                    if cat != kind
                    and any(_agree(name, e) for e in by_category.get(cat, []))
                ]
                detail = (
                    f" (it is emitted as {others[0]} — fix the kind)"
                    if others
                    else ""
                )
                yield registry.module.finding(
                    registry.nodes[("metric", name)],
                    "OBS103",
                    f"schema declares {kind} metric `{name}` but no "
                    f"emitter in the scanned tree produces it{detail}",
                )
