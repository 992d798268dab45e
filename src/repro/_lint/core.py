"""Visitor framework and rule registry for the invariant linter.

A :class:`Rule` reads one parsed module at a time: :meth:`Rule.check_module`
yields :class:`Finding`\\ s for that module alone. No rule compares
modules, and no comment silences a finding. Facts that span modules
(every concrete technique or heuristic is registered; every ``__all__``
entry is bound) are checked on the imported package by
``tests/unit/test_errors_and_exports.py``.

Path gating uses ``Module.pkgpath`` — the module's path *inside* the
``repro`` package (``"pmf/pmf.py"``, ``"rng.py"``) — so rules behave
identically whether the scan root is ``src``, ``src/repro``, or a test
fixture tree containing a ``repro`` directory.

Names resolve through the module's own import statements
(:attr:`Module.imports`, :meth:`Module.resolve`): ``np.random.seed``
under ``import numpy as np`` is ``numpy.random.seed``, and ``incr``
under ``from ..obs import incr`` in ``sim/loopsim.py`` is
``repro.obs.incr``. Nothing follows a name into the module it names.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
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
    _imports: dict[str, str] | None = field(default=None, repr=False)
    _scopes: list[Scope] | None = field(default=None, repr=False)

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
    and override :meth:`check_module`. Register with :func:`register` so
    the CLI and the test harness can discover them.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""

    def check_module(self, module: Module) -> Iterator[Finding]:
        """Yield findings for one module. Default: none."""
        return iter(())


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not _RULE_ID_RE.match(cls.id):
        raise ValueError(f"rule id {cls.id!r} must look like 'ABC123'")
    if cls.id in _REGISTRY and _REGISTRY[cls.id] is not cls:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> dict[str, Rule]:
    """Instantiate every registered rule, keyed by id."""
    return {rule_id: cls() for rule_id, cls in sorted(_REGISTRY.items())}


def known_ids() -> set[str]:
    """The id of every registered rule."""
    return set(_REGISTRY)


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
    modules: Sequence[Module], *, select: Iterable[str] | None = None
) -> list[Finding]:
    """Run the registered rules (or the ``select``\\ ed ones) over
    ``modules``; returns sorted findings. Unknown ids raise ``KeyError``."""
    rules = all_rules()
    if select is not None:
        wanted = set(select)
        unknown = wanted - rules.keys()
        if unknown:
            raise KeyError(f"unknown rule ids: {sorted(unknown)}")
        rules = {rule_id: rules[rule_id] for rule_id in wanted}
    return sorted(
        finding
        for rule in rules.values()
        for module in modules
        for finding in rule.check_module(module)
    )


def parse_paths(paths: Sequence[str | Path]) -> list[Module]:
    """Parse files/directories into :class:`Module`\\ s (no rules run)."""
    modules: list[Module] = []
    for path in _collect_files(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules.append(Module(path=str(path), pkgpath=pkgpath_of(path), tree=tree))
    return modules


def run_lint(
    paths: Sequence[str | Path],
    *,
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint files/directories; returns sorted findings (empty = clean)."""
    return lint_modules(parse_paths(paths), select=select)


def lint_sources(
    sources: Mapping[str, str],
    *,
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint in-memory sources keyed by pkgpath (test/fixture entry point)."""
    modules = [
        Module(
            path=pkgpath,
            pkgpath=pkgpath,
            tree=ast.parse(source, filename=pkgpath),
        )
        for pkgpath, source in sources.items()
    ]
    return lint_modules(modules, select=select)
