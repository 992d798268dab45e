"""RNG-discipline rules.

Reproducibility of the paper's φ₁/ρ estimates requires every stochastic
draw to flow through the seeded streams in :mod:`repro.rng`
(``SeedSequence`` spawning). Four rules enforce the discipline:

* ``RNG001`` — no direct ``np.random.*`` construction/seeding calls (and
  no ``numpy.random`` imports) outside the seeding modules
  ``repro/rng.py`` and ``repro/exec/seeds.py``;
* ``RNG002`` — no stdlib ``random`` anywhere in the library;
* ``RNG003`` — a public module-level function that obtains a generator via
  the :mod:`repro.rng` helpers must expose an ``rng``/``seed`` parameter,
  so callers control the stream;
* ``RNG101`` — no call to a nondeterminism source (stdlib ``random``,
  ``secrets``, ``uuid.uuid1/uuid4``, ``os.urandom``/``os.getrandom`` or
  the ``datetime.now`` family) outside the seeding modules. Names
  resolve through the module's imports, so
  ``from os import urandom as u; u(8)`` is ``os.urandom``. The ``time``
  clocks are OBS002's: one clock read is one finding.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from .core import Finding, Module, Rule, dotted_name, register

__all__ = [
    "NondeterminismSourceRule",
    "RngConstructionRule",
    "SeedPathRule",
    "StdlibRandomRule",
]

#: The one module allowed to touch ``numpy.random`` directly.
_RNG_MODULE = "rng.py"

#: Modules that *are* the seeding discipline: repro.rng plus the
#: SeedSequence-spawn-key tree behind the parallel backends.
_RNG_EXEMPT = frozenset({_RNG_MODULE, "exec/seeds.py"})

_NP_RANDOM_RE = re.compile(r"^(np|numpy)\.random(\.|$)")

#: repro.rng helpers that hand out generators.
_RNG_HELPERS = frozenset({"make_rng", "ensure_rng", "spawn_rngs", "rng_stream"})

#: Parameter names that count as an externally controlled seed path.
_SEED_PARAM_RE = re.compile(r"^(rng|rngs|seed|seeds)$|_(rng|seed)$")

#: Nondeterminism sources called by their full name (RNG101); besides
#: these, every ``random.*`` and ``secrets.*`` call.
_EXACT_SINKS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class RngConstructionRule(Rule):
    id = "RNG001"
    title = "no direct numpy.random use outside the seeding modules"
    rationale = (
        "generators must be derived from the SeedSequence tree in repro.rng "
        "or repro.exec.seeds; a stray default_rng/seed call silently forks "
        "the reproducibility story"
    )

    def check_module(self, module: Module) -> Iterator[Finding]:
        if module.pkgpath in _RNG_EXEMPT:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and _NP_RANDOM_RE.match(name):
                    yield module.finding(
                        node,
                        self.id,
                        f"call to `{name}` outside the seeding modules; route through "
                        "repro.rng (ensure_rng/make_rng/spawn_rngs)",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.startswith("numpy.random"):
                    yield module.finding(
                        node,
                        self.id,
                        f"import from `{node.module}` outside the seeding modules",
                    )
                elif node.module == "numpy" and any(
                    alias.name == "random" for alias in node.names
                ):
                    yield module.finding(
                        node,
                        self.id,
                        "import of `numpy.random` outside the seeding modules",
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("numpy.random"):
                        yield module.finding(
                            node,
                            self.id,
                            f"import of `{alias.name}` outside the seeding modules",
                        )


@register
class StdlibRandomRule(Rule):
    id = "RNG002"
    title = "no stdlib random module"
    rationale = (
        "stdlib random uses hidden global state; all draws must come from "
        "numpy Generators spawned in repro.rng"
    )

    def check_module(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield module.finding(
                            node,
                            self.id,
                            "stdlib `random` import; use repro.rng generators",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" or (
                    node.module and node.module.startswith("random.")
                ):
                    yield module.finding(
                        node,
                        self.id,
                        "stdlib `random` import; use repro.rng generators",
                    )


@register
class SeedPathRule(Rule):
    id = "RNG003"
    title = "stochastic public functions must accept rng/seed"
    rationale = (
        "a public function that draws randomness without an rng/seed "
        "parameter cannot be made reproducible by its caller"
    )

    def check_module(self, module: Module) -> Iterator[Finding]:
        if module.pkgpath == _RNG_MODULE:
            return
        for stmt in module.tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name.startswith("_"):
                continue
            if not self._draws_randomness(stmt):
                continue
            if not any(
                _SEED_PARAM_RE.search(param) for param in _param_names(stmt)
            ):
                yield module.finding(
                    stmt,
                    self.id,
                    f"public function `{stmt.name}` obtains a generator from "
                    "repro.rng but has no `rng`/`seed` parameter",
                )

    @staticmethod
    def _draws_randomness(func: ast.AST) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and name.split(".")[-1] in _RNG_HELPERS:
                    return True
        return False


def _is_sink(name: str) -> bool:
    """Is the resolved callee ``name`` a nondeterminism source?"""
    module, _, attr = name.partition(".")
    return name in _EXACT_SINKS or (module in ("random", "secrets") and bool(attr))


@register
class NondeterminismSourceRule(Rule):
    id = "RNG101"
    title = "no OS entropy, datetime.now or stdlib random outside seeding"
    rationale = (
        "a wall-clock or OS-entropy read in any helper breaks bit-for-bit "
        "replay of simulations even when every generator passes the "
        "RNG001 rule; randomness must thread through SeedTree-derived "
        "generators"
    )

    def check_module(self, module: Module) -> Iterator[Finding]:
        if module.pkgpath in _RNG_EXEMPT:
            return
        for qualname, _, nodes in module.scopes:
            for node in nodes:
                if not isinstance(node, ast.Call):
                    continue
                raw = dotted_name(node.func)
                if raw is None:
                    continue
                sink = module.resolve(raw)
                if _is_sink(sink):
                    yield module.finding(
                        node,
                        self.id,
                        f"nondeterministic `{sink}` called in `{qualname}`; "
                        "thread randomness/clocks through SeedTree "
                        "(repro.exec.seeds) or repro.rng instead",
                    )


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = func.args
    params = [
        arg.arg
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    ]
    if args.vararg is not None:
        params.append(args.vararg.arg)
    if args.kwarg is not None:
        params.append(args.kwarg.arg)
    return params
