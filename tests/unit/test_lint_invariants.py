"""Tests for the invariant linter (repro._lint).

One deliberately-broken and one clean fixture per rule, a suppression
test, CLI exit-code checks, and — the acceptance gate — a run over the
real ``src`` tree asserting zero findings.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro._lint import all_rules, known_ids, lint_sources, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"


def rule_ids(findings) -> list[str]:
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------- RNG rules


class TestRngConstruction:
    def test_flags_default_rng_outside_rng_module(self):
        findings = lint_sources(
            {
                "sim/foo.py": (
                    "import numpy as np\n"
                    "def draw(seed):\n"
                    "    gen = np.random.default_rng(seed)\n"
                    "    return gen\n"
                )
            },
            select=["RNG001"],
        )
        assert rule_ids(findings) == ["RNG001"]
        assert findings[0].line == 3

    def test_flags_numpy_random_import(self):
        findings = lint_sources(
            {"ra/foo.py": "from numpy.random import default_rng\n"},
            select=["RNG001"],
        )
        assert rule_ids(findings) == ["RNG001"]

    def test_flags_legacy_global_draws(self):
        findings = lint_sources(
            {"apps/foo.py": "import numpy as np\nx = np.random.normal()\n"},
            select=["RNG001"],
        )
        assert rule_ids(findings) == ["RNG001"]

    def test_rng_module_itself_is_exempt(self):
        findings = lint_sources(
            {
                "rng.py": (
                    "import numpy as np\n"
                    "def make_rng(seed):\n"
                    "    return np.random.default_rng(seed)\n"
                )
            },
            select=["RNG001"],
        )
        assert findings == []

    def test_exec_seeds_module_is_exempt(self):
        findings = lint_sources(
            {
                "exec/seeds.py": (
                    "import numpy as np\n"
                    "def seed_for(path):\n"
                    "    return np.random.SeedSequence(0, spawn_key=path)\n"
                )
            },
            select=["RNG001"],
        )
        assert findings == []

    def test_other_exec_modules_not_exempt(self):
        findings = lint_sources(
            {"exec/backends.py": "import numpy as np\nx = np.random.normal()\n"},
            select=["RNG001"],
        )
        assert rule_ids(findings) == ["RNG001"]

    def test_clean_module_passes(self):
        findings = lint_sources(
            {
                "sim/foo.py": (
                    "from ..rng import ensure_rng\n"
                    "def draw(seed):\n"
                    "    return ensure_rng(seed)\n"
                )
            },
            select=["RNG001"],
        )
        assert findings == []


class TestStdlibRandom:
    def test_flags_import_random(self):
        findings = lint_sources(
            {"framework/foo.py": "import random\n"}, select=["RNG002"]
        )
        assert rule_ids(findings) == ["RNG002"]

    def test_flags_from_random_import(self):
        findings = lint_sources(
            {"framework/foo.py": "from random import shuffle\n"},
            select=["RNG002"],
        )
        assert rule_ids(findings) == ["RNG002"]

    def test_unrelated_module_names_pass(self):
        findings = lint_sources(
            {
                "framework/foo.py": (
                    "import randomness_helper\n"
                    "from my.random_walks import walk\n"
                )
            },
            select=["RNG002"],
        )
        assert findings == []


class TestSeedPath:
    def test_flags_public_function_without_seed_param(self):
        findings = lint_sources(
            {
                "apps/foo.py": (
                    "from ..rng import make_rng\n"
                    "def generate(n):\n"
                    "    gen = make_rng(None)\n"
                    "    return gen.normal(size=n)\n"
                )
            },
            select=["RNG003"],
        )
        assert rule_ids(findings) == ["RNG003"]

    def test_seed_or_rng_param_passes(self):
        findings = lint_sources(
            {
                "apps/foo.py": (
                    "from ..rng import ensure_rng\n"
                    "def generate(n, *, rng=None):\n"
                    "    return ensure_rng(rng)\n"
                    "def replicate(n, seed=0):\n"
                    "    return ensure_rng(seed)\n"
                )
            },
            select=["RNG003"],
        )
        assert findings == []

    def test_private_functions_exempt(self):
        findings = lint_sources(
            {
                "apps/foo.py": (
                    "from ..rng import make_rng\n"
                    "def _helper():\n"
                    "    return make_rng(None)\n"
                )
            },
            select=["RNG003"],
        )
        assert findings == []


# ------------------------------------------------------------ PMF immutability


class TestPmfImmutability:
    def test_flags_item_assignment(self):
        findings = lint_sources(
            {"framework/foo.py": "def f(pmf):\n    pmf.values[0] = 1.0\n"},
            select=["PMF001"],
        )
        assert rule_ids(findings) == ["PMF001"]

    def test_flags_augmented_assignment(self):
        findings = lint_sources(
            {"framework/foo.py": "def f(pmf, i):\n    pmf.probs[i] += 0.1\n"},
            select=["PMF001"],
        )
        assert rule_ids(findings) == ["PMF001"]

    def test_flags_setflags_and_inplace_ufunc(self):
        findings = lint_sources(
            {
                "framework/foo.py": (
                    "import numpy as np\n"
                    "def f(pmf, idx, x):\n"
                    "    pmf.probs.setflags(write=True)\n"
                    "    np.add.at(pmf.probs, idx, x)\n"
                )
            },
            select=["PMF001"],
        )
        assert rule_ids(findings) == ["PMF001", "PMF001"]

    def test_flags_private_attribute_rebinding(self):
        findings = lint_sources(
            {"framework/foo.py": "def f(pmf, v):\n    pmf._values = v\n"},
            select=["PMF001"],
        )
        assert rule_ids(findings) == ["PMF001"]

    def test_reads_pass(self):
        findings = lint_sources(
            {
                "framework/foo.py": (
                    "def f(pmf):\n"
                    "    a = pmf.values[0] + pmf.probs[-1]\n"
                    "    b = pmf.values[:, None]\n"
                    "    return a, b\n"
                )
            },
            select=["PMF001"],
        )
        assert findings == []

    def test_owner_module_is_exempt(self):
        findings = lint_sources(
            {"pmf/pmf.py": "def f(self, v):\n    self._values = v\n"},
            select=["PMF001"],
        )
        assert findings == []


# ------------------------------------------------------- registry completeness


_DLS_BASE = (
    "from abc import ABC, abstractmethod\n"
    "class DLSTechnique(ABC):\n"
    "    @abstractmethod\n"
    "    def session(self, n, workers): ...\n"
)

_RA_BASE = (
    "from abc import ABC, abstractmethod\n"
    "class RAHeuristic(ABC):\n"
    "    @abstractmethod\n"
    "    def allocate(self, evaluator): ...\n"
)


class TestRegistryCompleteness:
    def test_flags_unregistered_technique(self):
        findings = lint_sources(
            {
                "dls/base.py": _DLS_BASE,
                "dls/shiny.py": (
                    "from .base import DLSTechnique\n"
                    "class Shiny(DLSTechnique):\n"
                    "    def session(self, n, workers): ...\n"
                ),
                "dls/registry.py": "ALL_TECHNIQUES = {}\n",
            },
            select=["REG001"],
        )
        assert rule_ids(findings) == ["REG001"]
        assert "Shiny" in findings[0].message

    def test_registered_technique_passes(self):
        findings = lint_sources(
            {
                "dls/base.py": _DLS_BASE,
                "dls/shiny.py": (
                    "from .base import DLSTechnique\n"
                    "class Shiny(DLSTechnique):\n"
                    "    def session(self, n, workers): ...\n"
                ),
                "dls/registry.py": (
                    "from .shiny import Shiny\n"
                    'ALL_TECHNIQUES = {"SHINY": Shiny}\n'
                ),
            },
            select=["REG001"],
        )
        assert findings == []

    def test_private_helper_bases_exempt(self):
        findings = lint_sources(
            {
                "dls/base.py": _DLS_BASE,
                "dls/helpers.py": (
                    "from .base import DLSTechnique\n"
                    "class _HelperBase(DLSTechnique):\n"
                    "    def session(self, n, workers): ...\n"
                ),
                "dls/registry.py": "ALL_TECHNIQUES = {}\n",
            },
            select=["REG001"],
        )
        assert findings == []

    def test_flags_unregistered_heuristic_dictcomp(self):
        findings = lint_sources(
            {
                "ra/base.py": _RA_BASE,
                "ra/fast.py": (
                    "from .base import RAHeuristic\n"
                    "class FastAllocator(RAHeuristic):\n"
                    '    name = "fast"\n'
                    "    def allocate(self, evaluator): ...\n"
                ),
                "ra/slow.py": (
                    "from .base import RAHeuristic\n"
                    "class SlowAllocator(RAHeuristic):\n"
                    '    name = "slow"\n'
                    "    def allocate(self, evaluator): ...\n"
                ),
                "ra/__init__.py": (
                    "from .fast import FastAllocator\n"
                    "from .slow import SlowAllocator\n"
                    "HEURISTICS = {cls.name: cls for cls in (FastAllocator,)}\n"
                    '__all__ = ["FastAllocator", "SlowAllocator", "HEURISTICS"]\n'
                ),
            },
            select=["REG002"],
        )
        assert rule_ids(findings) == ["REG002"]
        assert "SlowAllocator" in findings[0].message

    def test_missing_registry_module_skips_spec(self):
        findings = lint_sources(
            {
                "dls/base.py": _DLS_BASE,
                "dls/shiny.py": (
                    "from .base import DLSTechnique\n"
                    "class Shiny(DLSTechnique):\n"
                    "    def session(self, n, workers): ...\n"
                ),
            },
            select=["REG001"],
        )
        assert findings == []


# ------------------------------------------------------------- float equality


class TestFloatEquality:
    def test_flags_equality_in_numeric_packages(self):
        findings = lint_sources(
            {"sim/foo.py": "def f(t):\n    return t == 1.0\n"},
            select=["FLT001"],
        )
        assert rule_ids(findings) == ["FLT001"]

    def test_flags_zero_comparison(self):
        findings = lint_sources(
            {"ra/foo.py": "def f(prob):\n    return prob != 0.0\n"},
            select=["FLT001"],
        )
        assert rule_ids(findings) == ["FLT001"]

    def test_ordering_passes(self):
        findings = lint_sources(
            {
                "sim/foo.py": (
                    "def f(t, prob):\n"
                    "    return t <= 1.0 and prob > 0.0 and t == 3\n"
                )
            },
            select=["FLT001"],
        )
        assert findings == []

    def test_other_packages_out_of_scope(self):
        findings = lint_sources(
            {"apps/foo.py": "def f(cv):\n    return cv == 0.0\n"},
            select=["FLT001"],
        )
        assert findings == []


# ------------------------------------------------------------------- __all__


class TestDunderAll:
    def test_flags_missing_all(self):
        findings = lint_sources(
            {"metrics/foo.py": "def public_fn():\n    return 1\n"},
            select=["ALL001"],
        )
        assert rule_ids(findings) == ["ALL001"]

    def test_flags_unresolvable_entry(self):
        findings = lint_sources(
            {
                "metrics/foo.py": (
                    '__all__ = ["exists", "missing"]\n'
                    "def exists():\n    return 1\n"
                )
            },
            select=["ALL002"],
        )
        assert rule_ids(findings) == ["ALL002"]
        assert "missing" in findings[0].message

    def test_flags_duplicate_entry(self):
        findings = lint_sources(
            {
                "metrics/foo.py": (
                    '__all__ = ["exists", "exists"]\n'
                    "def exists():\n    return 1\n"
                )
            },
            select=["ALL003"],
        )
        assert rule_ids(findings) == ["ALL003"]

    def test_clean_module_passes(self):
        findings = lint_sources(
            {
                "metrics/foo.py": (
                    '__all__ = ["public_fn", "CONST"]\n'
                    "CONST = 3\n"
                    "def public_fn():\n    return CONST\n"
                )
            }
        )
        assert findings == []

    def test_private_modules_exempt(self):
        findings = lint_sources(
            {
                "_internal/foo.py": "def f():\n    return 1\n",
                "metrics/_helper.py": "def f():\n    return 1\n",
                "__main__.py": "def f():\n    return 1\n",
            },
            select=["ALL001"],
        )
        assert findings == []


# -------------------------------------------------------------- observability


class TestPrintCall:
    def test_flags_bare_print(self):
        findings = lint_sources(
            {"framework/foo.py": "def report(x):\n    print(x)\n"},
            select=["OBS001"],
        )
        assert rule_ids(findings) == ["OBS001"]
        assert findings[0].line == 2

    def test_flags_print_in_cli(self):
        findings = lint_sources(
            {"cli.py": 'print("hello")\n'}, select=["OBS001"]
        )
        assert rule_ids(findings) == ["OBS001"]

    def test_obs_package_exempt(self):
        findings = lint_sources(
            {"obs/logs.py": "def console(text):\n    print(text)\n"},
            select=["OBS001"],
        )
        assert findings == []

    def test_console_and_logger_pass(self):
        findings = lint_sources(
            {
                "cli.py": (
                    "from .obs import console, get_logger\n"
                    "log = get_logger()\n"
                    "def out(text):\n"
                    "    console(text)\n"
                    "    log.info(text)\n"
                )
            },
            select=["OBS001"],
        )
        assert findings == []

    def test_method_named_print_passes(self):
        findings = lint_sources(
            {"reporting/foo.py": "def f(doc):\n    return doc.print()\n"},
            select=["OBS001"],
        )
        assert findings == []


class TestWallClock:
    def test_flags_time_time_call(self):
        findings = lint_sources(
            {
                "sim/foo.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                )
            },
            select=["OBS002"],
        )
        assert rule_ids(findings) == ["OBS002"]
        assert findings[0].line == 3

    def test_flags_aliased_time_module(self):
        # Call names resolve through the module's imports, as RNG101's do.
        findings = lint_sources(
            {
                "sim/foo.py": (
                    "import time as t\n"
                    "def stamp():\n"
                    "    return t.perf_counter()\n"
                )
            },
            select=["OBS002"],
        )
        assert rule_ids(findings) == ["OBS002"]
        assert findings[0].line == 3

    def test_flags_perf_counter_import(self):
        findings = lint_sources(
            {"framework/foo.py": "from time import perf_counter\n"},
            select=["OBS002"],
        )
        assert rule_ids(findings) == ["OBS002"]

    def test_obs_package_exempt(self):
        findings = lint_sources(
            {
                "obs/spans.py": (
                    "import time\n"
                    "def now():\n"
                    "    return time.perf_counter()\n"
                )
            },
            select=["OBS002"],
        )
        assert findings == []

    def test_non_clock_time_attrs_pass(self):
        findings = lint_sources(
            {
                "sim/foo.py": (
                    "import time\n"
                    "from time import sleep\n"
                    "def nap():\n"
                    "    time.sleep(0.1)\n"
                    "    sleep(0.1)\n"
                )
            },
            select=["OBS002"],
        )
        assert findings == []


# ------------------------------------------------------------------ execution


class TestProcessFanout:
    def test_flags_multiprocessing_import(self):
        findings = lint_sources(
            {"sim/foo.py": "import multiprocessing\n"},
            select=["EXEC001"],
        )
        assert rule_ids(findings) == ["EXEC001"]
        assert findings[0].line == 1

    def test_flags_multiprocessing_submodule(self):
        findings = lint_sources(
            {"framework/foo.py": "from multiprocessing.pool import Pool\n"},
            select=["EXEC001"],
        )
        assert rule_ids(findings) == ["EXEC001"]

    def test_flags_concurrent_futures_import(self):
        findings = lint_sources(
            {
                "ra/foo.py": (
                    "from concurrent.futures import ProcessPoolExecutor\n"
                )
            },
            select=["EXEC001"],
        )
        assert rule_ids(findings) == ["EXEC001"]

    def test_flags_from_concurrent_import_futures(self):
        findings = lint_sources(
            {"ra/foo.py": "from concurrent import futures\n"},
            select=["EXEC001"],
        )
        assert rule_ids(findings) == ["EXEC001"]

    def test_exec_package_exempt(self):
        findings = lint_sources(
            {
                "exec/backends.py": (
                    "import multiprocessing\n"
                    "from concurrent.futures import ProcessPoolExecutor\n"
                )
            },
            select=["EXEC001"],
        )
        assert findings == []

    def test_backend_users_pass(self):
        findings = lint_sources(
            {
                "framework/foo.py": (
                    "from ..exec import get_backend\n"
                    "def run(tasks):\n"
                    "    with get_backend() as backend:\n"
                    "        return backend.run_tasks(tasks)\n"
                )
            },
            select=["EXEC001"],
        )
        assert findings == []


# ----------------------------------------------------------------- framework


class TestFramework:
    def test_pragma_suppresses_finding(self):
        findings = lint_sources(
            {
                "sim/foo.py": (
                    "def f(t):\n"
                    "    return t == 1.0  # lint: skip=FLT001\n"
                )
            },
            select=["FLT001"],
        )
        assert findings == []

    def test_unknown_select_id_raises(self):
        with pytest.raises(KeyError):
            lint_sources({"sim/foo.py": "x = 1\n"}, select=["NOPE999"])

    def test_findings_sorted_and_renderable(self):
        findings = lint_sources(
            {
                "sim/b.py": "def f(t):\n    return t == 1.0\n",
                "sim/a.py": "def f(t):\n    return t == 2.0\n",
            },
            select=["FLT001"],
        )
        assert [f.path for f in findings] == ["sim/a.py", "sim/b.py"]
        assert findings[0].render().startswith("sim/a.py:2:")

    def test_known_ids_cover_documented_rules(self):
        assert {
            "RNG001",
            "RNG002",
            "RNG003",
            "PMF001",
            "REG001",
            "REG002",
            "FLT001",
            "ALL001",
            "ALL002",
            "ALL003",
            "OBS001",
            "OBS002",
            "EXEC001",
            "EXEC101",
            "EXEC102",
            "RNG101",
            "LNT001",
        } <= known_ids()

    def test_findings_carry_pkgpath(self):
        findings = lint_sources(
            {"sim/foo.py": "def f(t):\n    return t == 1.0\n"},
            select=["FLT001"],
        )
        assert findings[0].pkgpath == "sim/foo.py"


# ------------------------------------------------------- suppression hygiene


class TestUnusedSkips:
    def test_stale_suppression_reported(self):
        findings = lint_sources(
            {"sim/foo.py": "x = 1  # lint: skip=FLT001\n"},
            select=["FLT001", "LNT001"],
            report_unused_skips=True,
        )
        assert rule_ids(findings) == ["LNT001"]
        assert "unused suppression" in findings[0].message
        assert "FLT001" in findings[0].message

    def test_live_suppression_not_reported(self):
        findings = lint_sources(
            {
                "sim/foo.py": (
                    "def f(t):\n"
                    "    return t == 1.0  # lint: skip=FLT001\n"
                )
            },
            select=["FLT001", "LNT001"],
            report_unused_skips=True,
        )
        assert findings == []

    def test_unknown_rule_id_in_suppression(self):
        findings = lint_sources(
            {"sim/foo.py": "x = 1  # lint: skip=NOPE999\n"},
            select=["FLT001", "LNT001"],
            report_unused_skips=True,
        )
        assert rule_ids(findings) == ["LNT001"]
        assert "unknown rule id" in findings[0].message

    def test_audit_off_by_default(self):
        findings = lint_sources(
            {"sim/foo.py": "x = 1  # lint: skip=FLT001\n"},
            select=["FLT001"],
        )
        assert findings == []

    def test_per_id_audit_respects_select(self):
        # Selecting only RNG001 must not call an FLT001 suppression stale
        # — the rule that could have used it never ran.
        findings = lint_sources(
            {"sim/foo.py": "x = 1  # lint: skip=FLT001\n"},
            select=["RNG001", "LNT001"],
            report_unused_skips=True,
        )
        assert findings == []


# ------------------------------------------------------------ CLI interface


def run_cli(*args):
    return subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "tools" / "lint_invariants.py"),
            *args,
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


#: One FLT001 finding, on line 2.
_FLOAT_EQUALITY = "def f(t):\n    return t == 1.0\n"


def _sim_module(tmp_path, name, source):
    """Write ``source`` under a ``repro/sim/`` path so sim rules apply."""
    path = tmp_path / "repro" / "sim" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


class TestCliFormats:
    def test_list_rules(self):
        run = run_cli("--list-rules")
        assert run.returncode == 0
        for rule in all_rules().values():
            assert rule.title and rule.rationale
            assert "/".join(rule.emitted_ids()) in run.stdout
            assert rule.title in run.stdout

    def test_unknown_select_exits_2(self):
        run = run_cli("--select", "NOPE999", "src")
        assert run.returncode == 2
        assert "known ids" in run.stderr

    def test_retired_schema_rules_are_unknown(self):
        # OBS101-OBS103 gave way to tests/integration/test_obs_names.py.
        listed = run_cli("--list-rules")
        assert listed.returncode == 0
        assert "OBS10" not in listed.stdout
        run = run_cli("--select", "OBS101", "src")
        assert run.returncode == 2
        assert "known ids: " in run.stderr and "OBS002" in run.stderr
        assert "OBS101" not in known_ids()

    def test_report_unused_skips_flag(self, tmp_path):
        stale = tmp_path / "repro" / "sim" / "stale.py"
        stale.parent.mkdir(parents=True)
        stale.write_text("x = 1  # lint: skip=FLT001\n")
        run = run_cli("--report-unused-skips", str(stale))
        assert run.returncode == 1
        assert "LNT001" in run.stdout

    def test_finding_line_format(self, tmp_path):
        bad = _sim_module(tmp_path, "bad.py", _FLOAT_EQUALITY)
        run = run_cli("--select", "FLT001", str(bad))
        assert run.returncode == 1
        (line,) = run.stdout.splitlines()
        assert re.fullmatch(rf"{re.escape(str(bad))}:2:\d+: FLT001 .+", line)
        assert run.stderr.strip() == "1 invariant violation found."

    def test_summary_counts_every_finding(self, tmp_path):
        bad = _sim_module(
            tmp_path, "bad.py", "def f(t):\n    return t == 1.0 or t == 2.0\n"
        )
        run = run_cli("--select", "FLT001", str(bad))
        assert run.returncode == 1
        assert len(run.stdout.splitlines()) == 2
        assert run.stderr.strip() == "2 invariant violations found."

    def test_select_runs_only_the_named_rules(self, tmp_path):
        bad = _sim_module(tmp_path, "bad.py", _FLOAT_EQUALITY)
        run = run_cli("--select", "RNG001", str(bad))
        assert run.returncode == 0, run.stdout
        assert run.stdout == ""

    def test_select_ignores_blanks_and_empty_parts(self, tmp_path):
        bad = _sim_module(tmp_path, "bad.py", _FLOAT_EQUALITY)
        run = run_cli("--select", " FLT001 ,,", str(bad))
        assert run.returncode == 1
        assert "FLT001" in run.stdout

    def test_clean_file_exits_0_silently(self, tmp_path):
        clean = _sim_module(
            tmp_path, "clean.py", '__all__ = ["LIMIT"]\n\nLIMIT = 1\n'
        )
        run = run_cli(str(clean))
        assert (run.returncode, run.stdout, run.stderr) == (0, "", "")

    def test_missing_path_exits_2(self, tmp_path):
        run = run_cli(str(tmp_path / "nope.py"))
        assert run.returncode == 2
        assert run.stderr.startswith("lint_invariants: error:")

    def test_unparsable_file_exits_2(self, tmp_path):
        broken = _sim_module(tmp_path, "broken.py", "def f(:\n")
        run = run_cli(str(broken))
        assert run.returncode == 2
        assert run.stderr.startswith("lint_invariants: error:")

    @pytest.mark.parametrize(
        "option",
        [
            ["--format", "json"],
            ["--output", "lint.txt"],
            ["--baseline", "baseline.json"],
            ["--write-baseline"],
            ["--changed-only"],
            ["--changed-base", "main"],
        ],
        ids=lambda option: option[0],
    )
    def test_retired_report_option_is_a_usage_error(self, tmp_path, option):
        # A caller still passing a retired option must fail loudly, not
        # lint with the option silently dropped.
        clean = _sim_module(tmp_path, "clean.py", "x = 1\n")
        run = run_cli(*option, str(clean))
        assert run.returncode == 2
        assert "unrecognized arguments" in run.stderr


# ----------------------------------------------------------- acceptance gate


class TestRealTree:
    def test_src_tree_is_clean(self):
        assert SRC_DIR.is_dir()
        findings = run_lint([SRC_DIR])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_exit_codes(self):
        clean = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "lint_invariants.py"), "src"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr

    def test_cli_flags_violation(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(t):\n    return t == 1.0\n")
        run = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "lint_invariants.py"),
                str(bad),
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert run.returncode == 1
        assert "FLT001" in run.stdout
