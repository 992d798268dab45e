"""Execution-discipline rules.

Process fan-out is owned by :mod:`repro.exec`: backends hide the pool,
tasks carry pre-derived seeds, and worker observability is merged back
into the parent session. The serial/pool equivalence those backends
guarantee rests on three structural facts, one rule each:

* ``EXEC001`` — no ``multiprocessing`` / ``concurrent.futures`` imports
  outside ``repro/exec/``: a stray pool forks work outside the seed tree
  and outside the obs merge path.
* ``EXEC101`` — nothing non-picklable (lambdas, unmaterialized generator
  expressions, nested functions of the calling function, ``open()``
  handles, ``threading`` / ``multiprocessing`` synchronization
  primitives) is passed at a pool boundary: a call to a ``*Task``
  constructor, ``.submit(...)`` or ``.run_tasks(...)``. Such a payload
  fails only when a pool backend is selected.
* ``EXEC102`` — no function mutates a module-level dict/list/set of its
  own module. Inside a pool worker such a write lands in the worker's
  copy and is lost on join, so serial and pool runs diverge.
  ``repro/obs/`` (the worker-local obs session is merged on join) and
  ``repro/_lint/`` (its rule registry; never imported at runtime) are
  exempt.

Callee names resolve through the module's own imports, so ``from
threading import Lock as L`` makes ``L()`` a ``threading.Lock``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence

from .core import Finding, Module, Rule, dotted_name, register

__all__ = ["PoolPayloadRule", "ProcessFanoutRule", "SharedMutableStateRule"]

#: The one package allowed to spawn worker processes.
_EXEC_PREFIX = "exec/"

#: Packages whose module-level state may be mutated (EXEC102).
_STATE_EXEMPT = ("obs/", "_lint/")

#: Method names that cross the process boundary with their arguments.
_BOUNDARY_METHODS = frozenset({"submit", "run_tasks"})

#: Constructors producing objects that never pickle.
_UNPICKLABLE_CTORS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Event",
        "threading.Barrier",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
        "multiprocessing.Condition",
        "multiprocessing.Semaphore",
        "multiprocessing.Event",
    }
)

#: Calls that consume a generator expression on the spot — the payload
#: that crosses the boundary is the materialized container, not the
#: generator itself.
_MATERIALIZERS = frozenset(
    {
        "all",
        "any",
        "dict",
        "frozenset",
        "list",
        "max",
        "min",
        "sorted",
        "sum",
        "tuple",
    }
)

#: Mutating method names on built-in containers.
_MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

#: Call names building a mutable container at module level.
_MUTABLE_FACTORIES = frozenset(
    {
        "dict",
        "list",
        "set",
        "collections.defaultdict",
        "collections.deque",
        "collections.Counter",
        "collections.OrderedDict",
        "defaultdict",
        "deque",
        "Counter",
        "OrderedDict",
    }
)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _in_exec(module: Module) -> bool:
    return module.pkgpath.startswith(_EXEC_PREFIX)


def _fanout_root(name: str) -> str | None:
    """The offending root module of a dotted import name, if any.

    ``concurrent`` alone is harmless (it is an empty namespace package);
    only ``concurrent.futures`` reaches the executors, so the bare root
    is flagged for ``multiprocessing`` but not for ``concurrent``.
    """
    root = name.split(".", 1)[0]
    if root == "multiprocessing":
        return "multiprocessing"
    if name == "concurrent.futures" or name.startswith("concurrent.futures."):
        return "concurrent.futures"
    return None


@register
class ProcessFanoutRule(Rule):
    id = "EXEC001"
    title = "no multiprocessing/concurrent.futures outside repro/exec/"
    rationale = (
        "worker processes spawned outside repro.exec bypass the seed tree, "
        "the backend workers knob, and the obs worker-merge path, so their "
        "results are neither reproducible nor observable"
    )

    def check_module(self, module: Module) -> Iterator[Finding]:
        if _in_exec(module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = _fanout_root(alias.name)
                    if root is not None:
                        yield module.finding(
                            node,
                            self.id,
                            f"import of `{alias.name}`; spawn workers via "
                            "repro.exec backends (get_backend)",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module is None:
                    continue
                root = _fanout_root(node.module)
                if root is None and node.module == "concurrent":
                    # ``from concurrent import futures`` reaches the
                    # executors through the alias list.
                    if any(a.name == "futures" for a in node.names):
                        root = "concurrent.futures"
                if root is not None:
                    yield module.finding(
                        node,
                        self.id,
                        f"import from `{node.module}`; spawn workers via "
                        "repro.exec backends (get_backend)",
                    )


def _boundary(module: Module, call: ast.Call) -> str | None:
    """Display name of the pool boundary ``call`` crosses, if any."""
    raw = dotted_name(call.func)
    if raw is None:
        return None
    last = module.resolve(raw).rsplit(".", 1)[-1]
    if last.endswith("Task"):
        return last
    if raw.rsplit(".", 1)[-1] in _BOUNDARY_METHODS:
        return raw
    return None


def _payload_nodes(call: ast.Call) -> Iterator[ast.expr]:
    for arg in call.args:
        yield arg.value if isinstance(arg, ast.Starred) else arg
    for keyword in call.keywords:
        yield keyword.value


@register
class PoolPayloadRule(Rule):
    id = "EXEC101"
    title = "no non-picklable payloads at pool boundaries"
    rationale = (
        "lambdas, closures, locks, and open handles in a task payload "
        "pickle-fail only when a pool backend is selected, so the serial "
        "path green-lights code the pool path cannot run"
    )

    def check_module(self, module: Module) -> Iterator[Finding]:
        for _, scope, nodes in module.scopes:
            nested = (
                {node.name for node in nodes if isinstance(node, _DEFS)}
                if isinstance(scope, _DEFS)
                else set()
            )
            for node in nodes:
                if not isinstance(node, ast.Call):
                    continue
                boundary = _boundary(module, node)
                if boundary is None:
                    continue
                for payload in _payload_nodes(node):
                    yield from self._scan_payload(module, boundary, payload, nested)

    def _scan_payload(
        self,
        module: Module,
        boundary: str,
        payload: ast.expr,
        nested_names: set[str],
    ) -> Iterator[Finding]:
        materialized: set[int] = set()
        for node in ast.walk(payload):
            if isinstance(node, ast.Call):
                raw = dotted_name(node.func)
                is_join = (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                )
                if (raw in _MATERIALIZERS) or is_join:
                    materialized.update(
                        id(arg)
                        for arg in node.args
                        if isinstance(arg, ast.GeneratorExp)
                    )
        for node in ast.walk(payload):
            what: str | None = None
            if isinstance(node, ast.Lambda):
                what = "a lambda"
            elif isinstance(node, ast.GeneratorExp):
                if id(node) in materialized:
                    continue
                what = "a generator expression"
            elif isinstance(node, ast.Name) and node.id in nested_names:
                what = f"nested function `{node.id}` (a closure)"
            elif isinstance(node, ast.Call):
                raw = dotted_name(node.func)
                if raw is not None:
                    resolved = module.resolve(raw)
                    if resolved == "open":
                        what = "an open file handle (`open(...)`)"
                    elif resolved in _UNPICKLABLE_CTORS:
                        what = f"a `{resolved}` synchronization primitive"
            if what is not None:
                yield module.finding(
                    node,
                    self.id,
                    f"{what} flows into pool boundary `{boundary}`; task "
                    "payloads must pickle (frozen dataclasses and "
                    "module-level callables only)",
                )


def _module_mutables(module: Module) -> set[str]:
    """Top-level names bound to mutable containers."""
    mutables: set[str] = set()

    def value_is_mutable(value: ast.expr | None) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            return True
        if isinstance(value, (ast.DictComp, ast.ListComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            raw = dotted_name(value.func)
            return raw is not None and raw in _MUTABLE_FACTORIES
        return False

    def visit(body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Assign) and value_is_mutable(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        mutables.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and value_is_mutable(stmt.value):
                if isinstance(stmt.target, ast.Name):
                    mutables.add(stmt.target.id)
            elif isinstance(stmt, (ast.If, ast.Try)):
                visit(stmt.body)
                visit(getattr(stmt, "orelse", []))

    visit(module.tree.body)
    return mutables


def _mutations_of(
    nodes: list[ast.AST], names: set[str]
) -> Iterator[tuple[str, ast.AST, str]]:
    """(name, node, how) for each mutation of ``names`` among a function's
    own ``nodes``."""
    declared_global: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Global):
            declared_global.update(set(node.names) & names)
    for node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if (
                isinstance(node.func.value, ast.Name)
                and node.func.value.id in names
                and node.func.attr in _MUTATORS
            ):
                yield node.func.value.id, node, f".{node.func.attr}(...)"
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in names
                ):
                    yield target.value.id, node, "subscript assignment"
                elif (
                    isinstance(target, ast.Name)
                    and target.id in declared_global
                ):
                    yield target.id, node, "global rebind"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in names
                ):
                    yield target.value.id, node, "subscript delete"


@register
class SharedMutableStateRule(Rule):
    id = "EXEC102"
    title = "no function mutates module-level mutable state"
    rationale = (
        "a module-level dict/list mutated inside a pool worker is a copy; "
        "the parent never sees the writes, so serial and pool runs of the "
        "same seed diverge"
    )

    def check_module(self, module: Module) -> Iterator[Finding]:
        if module.pkgpath.startswith(_STATE_EXEMPT):
            return
        names = _module_mutables(module)
        if not names:
            return
        for qualname, scope, nodes in module.scopes:
            if not isinstance(scope, _DEFS):
                continue
            for name, node, how in _mutations_of(nodes, names):
                yield module.finding(
                    node,
                    self.id,
                    f"module-level mutable `{name}` mutated ({how}) in "
                    f"`{qualname}`; run in a pool worker, the write lands "
                    "in the worker's copy and is lost on join, so serial "
                    "and pool runs diverge",
                )
