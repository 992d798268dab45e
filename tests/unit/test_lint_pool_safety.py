"""Fixture tests for the pool-boundary safety rules (EXEC101/EXEC102).

Both rules read one module at a time and resolve names through that
module's own imports: a ``*Task`` call is a pool boundary whether or not
the task class is in the scanned tree, and any function mutating its
module's mutable state is a finding, called from a pool worker or not.
"""

from __future__ import annotations

from pathlib import Path

from repro._lint import lint_sources

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def rule_ids(findings):
    return [finding.rule for finding in findings]


TASKS = (
    "class ReplicateTask:\n"
    "    def __init__(self, fn, seed=0):\n"
    "        self.fn = fn\n"
    "        self.seed = seed\n"
)


class TestPoolPayload:
    def test_lambda_into_task_constructor(self):
        findings = lint_sources(
            {
                "exec/tasks.py": TASKS,
                "exec/api.py": (
                    "from .tasks import ReplicateTask\n"
                    "def go():\n"
                    "    return ReplicateTask(lambda: 1)\n"
                ),
            },
            select=["EXEC101"],
        )
        assert rule_ids(findings) == ["EXEC101"]
        assert "lambda" in findings[0].message
        assert "ReplicateTask" in findings[0].message

    def test_lambda_into_submit(self):
        findings = lint_sources(
            {"exec/api.py": "def go(pool):\n    pool.submit(lambda: 1)\n"},
            select=["EXEC101"],
        )
        assert rule_ids(findings) == ["EXEC101"]
        assert "pool.submit" in findings[0].message

    def test_bare_generator_expression_flagged(self):
        findings = lint_sources(
            {
                "exec/tasks.py": TASKS,
                "exec/api.py": (
                    "from .tasks import ReplicateTask\n"
                    "def go(f, xs):\n"
                    "    return ReplicateTask(f, seed=(x for x in xs))\n"
                ),
            },
            select=["EXEC101"],
        )
        assert rule_ids(findings) == ["EXEC101"]
        assert "generator expression" in findings[0].message

    def test_materialized_generator_is_clean(self):
        # tuple(...) consumes the generator before the boundary — this is
        # the evaluate_allocations batching idiom in repro.exec.stage1.
        findings = lint_sources(
            {
                "exec/tasks.py": TASKS,
                "exec/api.py": (
                    "from .tasks import ReplicateTask\n"
                    "def go(f, xs):\n"
                    "    return ReplicateTask(f, seed=tuple(x for x in xs))\n"
                ),
            },
            select=["EXEC101"],
        )
        assert findings == []

    def test_closure_passed_to_submit(self):
        findings = lint_sources(
            {
                "exec/api.py": (
                    "def go(pool, bound):\n"
                    "    def work():\n"
                    "        return bound + 1\n"
                    "    pool.submit(work)\n"
                ),
            },
            select=["EXEC101"],
        )
        assert rule_ids(findings) == ["EXEC101"]
        assert "closure" in findings[0].message

    def test_module_level_callable_is_clean(self):
        findings = lint_sources(
            {
                "exec/api.py": (
                    "def work(x):\n"
                    "    return x + 1\n"
                    "def go(pool):\n"
                    "    pool.submit(work, 3)\n"
                ),
            },
            select=["EXEC101"],
        )
        assert findings == []

    def test_open_handle_and_lock(self):
        findings = lint_sources(
            {
                "exec/tasks.py": TASKS,
                "exec/api.py": (
                    "import threading\n"
                    "from .tasks import ReplicateTask\n"
                    "def go(pool, path):\n"
                    "    pool.submit(print, open(path))\n"
                    "    return ReplicateTask(print, seed=threading.Lock())\n"
                ),
            },
            select=["EXEC101"],
        )
        assert rule_ids(findings) == ["EXEC101", "EXEC101"]
        messages = " / ".join(finding.message for finding in findings)
        assert "open file handle" in messages
        assert "threading.Lock" in messages

    def test_aliased_lock_into_task_from_unscanned_module(self):
        # The task class lives outside the scanned tree and the lock is
        # imported under another name; both resolve through the imports.
        findings = lint_sources(
            {
                "sim/fanout.py": (
                    "from threading import Lock as L\n"
                    "from ..exec.tasks import ReplicateTask\n"
                    "def go(f):\n"
                    "    return ReplicateTask(f, seed=L())\n"
                ),
            },
            select=["EXEC101"],
        )
        assert rule_ids(findings) == ["EXEC101"]
        assert "`threading.Lock`" in findings[0].message
        assert "`ReplicateTask`" in findings[0].message

    def test_module_level_function_at_module_level_boundary_is_clean(self):
        # Only defs nested in the calling function are closures; a
        # module-level function pickles by reference wherever it is sent.
        findings = lint_sources(
            {
                "exec/boot.py": (
                    "from .pool import POOL\n"
                    "def work(x):\n"
                    "    return x\n"
                    "FUTURE = POOL.submit(work, 1)\n"
                ),
            },
            select=["EXEC101"],
        )
        assert findings == []


class TestSharedMutableState:
    def test_task_run_mutation_read_by_parent(self):
        findings = lint_sources(
            {
                "exec/backends.py": (
                    "_CACHE = {}\n"
                    "class EvalTask:\n"
                    "    def run(self):\n"
                    "        _CACHE['k'] = 1\n"
                    "def read_cache():\n"
                    "    return _CACHE\n"
                ),
            },
            select=["EXEC102"],
        )
        assert rule_ids(findings) == ["EXEC102"]
        assert "_CACHE" in findings[0].message
        assert "subscript assignment" in findings[0].message

    def test_worker_only_state_fires(self):
        # No parent-side reader is needed: the mutation itself is flagged.
        findings = lint_sources(
            {
                "exec/backends.py": (
                    "_CACHE = {}\n"
                    "class EvalTask:\n"
                    "    def run(self):\n"
                    "        _CACHE['k'] = 1\n"
                ),
            },
            select=["EXEC102"],
        )
        assert rule_ids(findings) == ["EXEC102"]
        assert "`EvalTask.run`" in findings[0].message

    def test_obs_package_is_exempt(self):
        findings = lint_sources(
            {
                "exec/backends.py": (
                    "from ..obs.session import merge\n"
                    "class EvalTask:\n"
                    "    def run(self):\n"
                    "        merge(1)\n"
                ),
                "obs/session.py": (
                    "_PENDING = []\n"
                    "def merge(x):\n"
                    "    _PENDING.append(x)\n"
                    "def drain():\n"
                    "    return list(_PENDING)\n"
                ),
            },
            select=["EXEC102"],
        )
        assert findings == []

    def test_submit_target_is_a_pool_entry(self):
        findings = lint_sources(
            {
                "exec/pool.py": (
                    "_STATE = []\n"
                    "def _worker(x):\n"
                    "    _STATE.append(x)\n"
                    "def launch(executor, xs):\n"
                    "    for x in xs:\n"
                    "        executor.submit(_worker, x)\n"
                    "    return _STATE\n"
                ),
            },
            select=["EXEC102"],
        )
        assert rule_ids(findings) == ["EXEC102"]
        assert ".append(...)" in findings[0].message

    def test_initializer_target_is_a_pool_entry(self):
        findings = lint_sources(
            {
                "exec/pool.py": (
                    "_REG = {}\n"
                    "def _init():\n"
                    "    _REG.update({'a': 1})\n"
                    "def make(pool_cls):\n"
                    "    return pool_cls(initializer=_init)\n"
                    "def lookup(k):\n"
                    "    return _REG[k]\n"
                ),
            },
            select=["EXEC102"],
        )
        assert rule_ids(findings) == ["EXEC102"]

    def test_finding_message_names_the_function(self):
        findings = lint_sources(
            {
                "exec/deep.py": (
                    "_SEEN = set()\n"
                    "class SweepTask:\n"
                    "    def run(self):\n"
                    "        record(3)\n"
                    "def record(x):\n"
                    "    _SEEN.add(x)\n"
                    "def summary():\n"
                    "    return sorted(_SEEN)\n"
                ),
            },
            select=["EXEC102"],
        )
        assert rule_ids(findings) == ["EXEC102"]
        assert "`_SEEN`" in findings[0].message
        assert "`record`" in findings[0].message

    def test_module_memo_in_sim_fires(self):
        # No pool entry point anywhere: a module memo in sim/ is still
        # flagged, because any sim function may run inside a pool worker.
        findings = lint_sources(
            {
                "sim/cache.py": (
                    "_MEMO = {}\n"
                    "def put(k, v):\n"
                    "    _MEMO[k] = v\n"
                    "def get_value(k):\n"
                    "    return _MEMO[k]\n"
                ),
            },
            select=["EXEC102"],
        )
        assert rule_ids(findings) == ["EXEC102"]
        assert "`put`" in findings[0].message

    def test_nested_def_and_global_rebind(self):
        findings = lint_sources(
            {
                "dls/state.py": (
                    "_SEEN = []\n"
                    "def outer():\n"
                    "    def inner(x):\n"
                    "        del _SEEN[x]\n"
                    "    global _SEEN\n"
                    "    _SEEN = [1]\n"
                    "    return inner\n"
                ),
            },
            select=["EXEC102"],
        )
        assert rule_ids(findings) == ["EXEC102", "EXEC102"]
        messages = " / ".join(finding.message for finding in findings)
        assert "global rebind) in `outer`" in messages
        assert "subscript delete) in `outer.inner`" in messages

    def test_lint_rule_registry_stays_clean(self):
        # repro/_lint/ is exempt: its rule registry is filled at import
        # and never crosses a pool. The same code elsewhere fires.
        source = (SRC_DIR / "repro" / "_lint" / "core.py").read_text()
        assert "_REGISTRY[cls.id] = cls" in source
        clean = lint_sources({"_lint/core.py": source}, select=["EXEC102"])
        assert clean == []
        moved = lint_sources({"sim/registry.py": source}, select=["EXEC102"])
        assert rule_ids(moved) == ["EXEC102"]
        assert "`_REGISTRY`" in moved[0].message
