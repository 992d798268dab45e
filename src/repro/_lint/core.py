"""Visitor framework and rule registry for the invariant linter.

A :class:`Rule` inspects parsed modules and yields :class:`Finding`\\ s.
Two granularities exist:

* per-module rules override :meth:`Rule.check_module` (most rules);
* project rules override :meth:`Rule.check_project` and see every module
  at once (cross-file invariants such as registry completeness).

Path gating uses ``Module.pkgpath`` — the module's path *inside* the
``repro`` package (``"pmf/pmf.py"``, ``"rng.py"``) — so rules behave
identically whether the scan root is ``src``, ``src/repro``, or a test
fixture tree containing a ``repro`` directory.

Names resolve through the module's own import statements
(:attr:`Module.imports`, :meth:`Module.resolve`): ``np.random.seed``
under ``import numpy as np`` is ``numpy.random.seed``, and ``incr``
under ``from ..obs import incr`` in ``sim/loopsim.py`` is
``repro.obs.incr``. Nothing follows a name into the module it names.

Suppression: a ``lint: skip=RULE1,RULE2`` (or ``skip=all``) hash-comment
on the offending line silences findings for that line; the opt-in
``report_unused_skips`` audit flags entries that suppress nothing.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

__all__ = [
    "Finding",
    "Module",
    "Rule",
    "all_rules",
    "known_ids",
    "lint_modules",
    "lint_sources",
    "parse_paths",
    "register",
    "run_lint",
]

_SKIP_RE = re.compile(r"#\s*lint:\s*skip=([A-Za-z0-9_*,\s]+)")

_RULE_ID_RE = re.compile(r"^[A-Z]{3,4}[0-9]{3}$")

#: ``(qualname, node, own nodes)`` of one module, class or def.
Scope = tuple[str, ast.AST, list[ast.AST]]


@dataclass(frozen=True, order=True)
class Finding:
    """One invariant violation at a source location.

    ``pkgpath`` is the location inside the ``repro`` package — stable
    across scan roots, unlike the display ``path``, which changes with
    the working directory.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    pkgpath: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class Module:
    """A parsed source file plus the path metadata rules gate on."""

    path: str  # display path (as given on the command line / fixture key)
    pkgpath: str  # path inside the repro package, e.g. "pmf/pmf.py"
    tree: ast.Module
    source: str
    _skips: dict[int, set[str]] | None = field(default=None, repr=False)
    _imports: dict[str, str] | None = field(default=None, repr=False)
    _scopes: list[Scope] | None = field(default=None, repr=False)

    @property
    def skips(self) -> dict[int, set[str]]:
        """Per-line rule suppressions from ``# lint: skip=...`` comments."""
        if self._skips is None:
            table: dict[int, set[str]] = {}
            for lineno, text in enumerate(self.source.splitlines(), start=1):
                match = _SKIP_RE.search(text)
                if match:
                    ids = {
                        part.strip()
                        for part in match.group(1).split(",")
                        if part.strip()
                    }
                    table[lineno] = ids
            self._skips = table
        return self._skips

    @property
    def imports(self) -> dict[str, str]:
        """Local name → dotted target, from every import in the module.

        Function-local imports count too; where a name is imported twice,
        the import ``ast.walk`` reaches last wins. Relative imports
        resolve against :func:`module_name`.
        """
        if self._imports is None:
            self._imports = _import_table(self)
        return self._imports

    @property
    def scopes(self) -> list[Scope]:
        """``(qualname, node, own nodes)`` for the module (``"<module>"``)
        and for every class and def in it, nested ones included
        (``"C.run"``, ``"f.inner"``).

        A scope's own nodes stop at the classes and defs nested in it:
        those are listed as nodes but not entered, so every node of the
        tree but the root belongs to exactly one scope.
        """
        if self._scopes is None:
            self._scopes = _scope_table(self.tree)
        return self._scopes

    def resolve(self, name: str) -> str:
        """``name`` with its first segment replaced by its import target
        (``np.zeros`` → ``numpy.zeros``); unchanged when not imported."""
        head, dot, rest = name.partition(".")
        target = self.imports.get(head)
        return name if target is None else f"{target}{dot}{rest}"

    def finding(self, node: ast.AST, rule_id: str, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.path,
            line=line,
            col=col,
            rule=rule_id,
            message=message,
            pkgpath=self.pkgpath,
        )


class Rule:
    """Base class for invariant rules.

    Subclasses set ``id`` (``ABC123`` shape), ``title``, and ``rationale``,
    and override one of the two check hooks. A checker that reports under
    several ids (e.g. the ``__all__`` rule family) lists them in ``ids``;
    the default is the single ``id``. Register with :func:`register` so
    the CLI and the test harness can discover them.
    """

    id: str = ""
    ids: tuple[str, ...] = ()
    title: str = ""
    rationale: str = ""

    def emitted_ids(self) -> tuple[str, ...]:
        return self.ids if self.ids else (self.id,)

    def check_module(self, module: Module) -> Iterator[Finding]:
        """Yield findings for one module. Default: none."""
        return iter(())

    def check_project(self, modules: Sequence[Module]) -> Iterator[Finding]:
        """Yield findings that need a whole-project view. Default: none."""
        return iter(())


_REGISTRY: dict[str, type[Rule]] = {}


class UnusedSuppressionRule(Rule):
    """Pseudo-rule for the opt-in stale-suppression audit.

    Registered so ``LNT001`` shows in ``--list-rules`` and is selectable;
    the findings themselves are synthesized by :func:`lint_modules` (they
    depend on which other rules ran), not by a check hook.
    """

    id = "LNT001"
    title = "no stale `lint: skip` suppressions (opt-in audit)"
    rationale = (
        "a suppression that no longer matches any finding hides the next "
        "real regression on that line; audit with --report-unused-skips"
    )


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not _RULE_ID_RE.match(cls.id):
        raise ValueError(f"rule id {cls.id!r} must look like 'ABC123'")
    if cls.id in _REGISTRY and _REGISTRY[cls.id] is not cls:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> dict[str, Rule]:
    """Instantiate every registered rule, keyed by primary id."""
    return {rule_id: cls() for rule_id, cls in sorted(_REGISTRY.items())}


def known_ids() -> set[str]:
    """Every finding id any registered rule can emit."""
    ids: set[str] = set()
    for rule in all_rules().values():
        ids.update(rule.emitted_ids())
    return ids


register(UnusedSuppressionRule)


# --------------------------------------------------------------------- helpers


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name(pkgpath: str) -> str:
    """Dotted name of a pkgpath: ``"sim/loopsim.py"`` → ``"repro.sim.loopsim"``.

    A package ``__init__.py`` is its package (``"obs/__init__.py"`` →
    ``"repro.obs"``, ``"__init__.py"`` → ``"repro"``).
    """
    stem = pkgpath[:-3] if pkgpath.endswith(".py") else pkgpath
    parts = ["repro", *stem.split("/")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _import_table(module: Module) -> dict[str, str]:
    modname = module_name(module.pkgpath)
    package = (
        modname
        if module.pkgpath.endswith("__init__.py")
        else modname.rpartition(".")[0]
    )
    table: dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    head = alias.name.split(".", 1)[0]
                    table[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[: max(1, len(parts) - (node.level - 1))]
                base = ".".join([*parts, base] if base else parts)
            for alias in node.names:
                if alias.name != "*":
                    local = alias.asname or alias.name
                    table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scope_table(tree: ast.Module) -> list[Scope]:
    table: list[Scope] = []
    stack: list[tuple[str, ast.AST]] = [("<module>", tree)]
    while stack:
        qualname, scope = stack.pop()
        nodes: list[ast.AST] = []
        pending = list(ast.iter_child_nodes(scope))
        while pending:
            node = pending.pop()
            nodes.append(node)
            if isinstance(node, _SCOPE_NODES):
                prefix = "" if scope is tree else f"{qualname}."
                stack.append((f"{prefix}{node.name}", node))
            else:
                pending.extend(ast.iter_child_nodes(node))
        table.append((qualname, scope, nodes))
    return table


def pkgpath_of(path: Path) -> str:
    """Path of ``path`` inside the ``repro`` package.

    The portion after the *last* ``repro`` directory component; the whole
    path (posix) when no such component exists. This keeps rule gating
    stable across scan roots and test fixture trees.
    """
    parts = path.resolve().parts
    for idx in range(len(parts) - 1, -1, -1):
        if parts[idx] == "repro":
            return "/".join(parts[idx + 1 :])
    return path.as_posix()


def toplevel_names(tree: ast.Module) -> tuple[set[str], bool]:
    """Names bound at module top level, and whether a ``*`` import exists.

    Recurses into top-level ``if``/``try``/``with`` blocks (conditional
    imports, ``TYPE_CHECKING`` guards) but not into function/class bodies.
    """
    names: set[str] = set()
    has_star = False

    def visit(body: Iterable[ast.stmt]) -> None:
        nonlocal has_star
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    _bind_target(target, names)
            elif isinstance(stmt, ast.AnnAssign):
                _bind_target(stmt.target, names)
            elif isinstance(stmt, ast.AugAssign):
                _bind_target(stmt.target, names)
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if alias.name == "*":
                        has_star = True
                    else:
                        names.add(alias.asname or alias.name)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    names.add(alias.asname or alias.name.split(".", 1)[0])
            elif isinstance(stmt, ast.If):
                visit(stmt.body)
                visit(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                visit(stmt.body)
                for handler in stmt.handlers:
                    visit(handler.body)
                visit(stmt.orelse)
                visit(stmt.finalbody)
            elif isinstance(stmt, ast.With):
                visit(stmt.body)

    visit(tree.body)
    return names, has_star


def _bind_target(target: ast.expr, names: set[str]) -> None:
    if isinstance(target, ast.Name):
        names.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _bind_target(element, names)


# ---------------------------------------------------------------------- driver


def _collect_files(paths: Sequence[str | Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    # De-duplicate while preserving order (overlapping roots).
    seen: set[Path] = set()
    unique: list[Path] = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def lint_modules(
    modules: Sequence[Module],
    *,
    select: Iterable[str] | None = None,
    report_unused_skips: bool = False,
) -> list[Finding]:
    """Run the registered rules over ``modules``.

    ``select`` filters the *findings* to the given ids (a checker emitting
    several ids is still run once); unknown ids raise ``KeyError``.
    ``report_unused_skips`` adds ``LNT001`` findings for ``lint: skip``
    entries that suppressed nothing (audited only for rules that ran).
    """
    wanted: set[str] | None = None
    if select is not None:
        wanted = set(select)
        unknown = wanted - known_ids()
        if unknown:
            raise KeyError(f"unknown rule ids: {sorted(unknown)}")
    findings: list[Finding] = []
    ran_ids: set[str] = set()
    for rule in all_rules().values():
        if wanted is not None and not wanted.intersection(rule.emitted_ids()):
            continue
        ran_ids.update(rule.emitted_ids())
        for module in modules:
            findings.extend(rule.check_module(module))
        findings.extend(rule.check_project(modules))
    by_path = {module.path: module for module in modules}
    used: set[tuple[str, int, str]] = set()
    kept: list[Finding] = []
    for finding in findings:
        module = by_path.get(finding.path)
        if module is not None:
            if not finding.pkgpath:
                finding = replace(finding, pkgpath=module.pkgpath)
            ids = module.skips.get(finding.line)
            if ids is not None:
                hits = {
                    entry
                    for entry in ids
                    if entry in (finding.rule, "all", "*")
                }
                if hits:
                    used.update(
                        (finding.path, finding.line, entry) for entry in hits
                    )
                    continue
        if wanted is not None and finding.rule not in wanted:
            continue
        kept.append(finding)
    if report_unused_skips and (wanted is None or "LNT001" in wanted):
        kept.extend(
            _unused_skip_findings(
                modules, ran_ids, used, audit_catchall=wanted is None
            )
        )
    return sorted(kept)


def _unused_skip_findings(
    modules: Sequence[Module],
    ran_ids: set[str],
    used: set[tuple[str, int, str]],
    *,
    audit_catchall: bool,
) -> list[Finding]:
    """``LNT001`` findings for suppressions that suppressed nothing.

    ``skip=all``/``skip=*`` entries are only auditable when every rule
    ran (``audit_catchall``); per-id entries only when their rule ran.
    Entries naming an id no rule emits are always reported.
    """
    known = known_ids()
    out: list[Finding] = []
    for module in modules:
        for line, ids in sorted(module.skips.items()):
            for entry in sorted(ids):
                if entry in ("all", "*"):
                    if not audit_catchall:
                        continue
                    message = (
                        f"unused suppression `lint: skip={entry}`: "
                        "no finding on this line"
                    )
                elif entry not in known:
                    message = (
                        f"suppression references unknown rule id `{entry}`"
                    )
                elif entry not in ran_ids:
                    continue
                else:
                    message = (
                        f"unused suppression `lint: skip={entry}`: "
                        f"no {entry} finding on this line"
                    )
                if (module.path, line, entry) in used:
                    continue
                out.append(
                    Finding(
                        path=module.path,
                        line=line,
                        col=0,
                        rule="LNT001",
                        message=message,
                        pkgpath=module.pkgpath,
                    )
                )
    return out


def parse_paths(paths: Sequence[str | Path]) -> list[Module]:
    """Parse files/directories into :class:`Module`\\ s (no rules run)."""
    modules: list[Module] = []
    for path in _collect_files(paths):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        modules.append(
            Module(
                path=str(path),
                pkgpath=pkgpath_of(path),
                tree=tree,
                source=source,
            )
        )
    return modules


def run_lint(
    paths: Sequence[str | Path],
    *,
    select: Iterable[str] | None = None,
    report_unused_skips: bool = False,
) -> list[Finding]:
    """Lint files/directories; returns sorted findings (empty = clean)."""
    return lint_modules(
        parse_paths(paths),
        select=select,
        report_unused_skips=report_unused_skips,
    )


def lint_sources(
    sources: Mapping[str, str],
    *,
    select: Iterable[str] | None = None,
    report_unused_skips: bool = False,
) -> list[Finding]:
    """Lint in-memory sources keyed by pkgpath (test/fixture entry point)."""
    modules = [
        Module(
            path=pkgpath,
            pkgpath=pkgpath,
            tree=ast.parse(source, filename=pkgpath),
            source=source,
        )
        for pkgpath, source in sources.items()
    ]
    return lint_modules(
        modules, select=select, report_unused_skips=report_unused_skips
    )
