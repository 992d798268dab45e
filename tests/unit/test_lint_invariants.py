"""Tests for the invariant linter (repro._lint).

One deliberately-broken and one clean fixture per rule, CLI exit-code
checks, and — the acceptance gate — a run over the real ``src`` tree
asserting zero findings.
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

    def test_flags_clock_defaulting_time_calls(self):
        # Without their time argument these read the wall clock.
        findings = lint_sources(
            {
                "sim/foo.py": (
                    "import time\n"
                    "from time import localtime\n"
                    "def stamp():\n"
                    "    return (\n"
                    "        time.gmtime(),\n"
                    "        localtime(),\n"
                    "        time.ctime(),\n"
                    "        time.asctime(),\n"
                    "        time.strftime('%Y'),\n"
                    "    )\n"
                )
            },
            select=["OBS002"],
        )
        assert rule_ids(findings) == ["OBS002"] * 5
        assert [f.line for f in findings] == [5, 6, 7, 8, 9]

    def test_formatting_a_given_time_not_flagged(self):
        findings = lint_sources(
            {
                "sim/foo.py": (
                    "import time\n"
                    "def stamp(t):\n"
                    "    return (\n"
                    "        time.gmtime(t),\n"
                    "        time.localtime(t),\n"
                    "        time.ctime(t),\n"
                    "        time.asctime(time.gmtime(t)),\n"
                    "        time.strftime('%Y', time.gmtime(t)),\n"
                    "    )\n"
                )
            },
            select=["OBS002"],
        )
        assert findings == []

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

    def test_clock_read_draws_one_finding(self):
        # OBS002 owns the time clocks; RNG101 does not report them again.
        findings = lint_sources(
            {
                "sim/clock.py": (
                    "import time\n"
                    "def run_case(case):\n"
                    "    return time.perf_counter()\n"
                )
            }
        )
        assert rule_ids(findings) == ["OBS002"]

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
            "FLT001",
            "OBS001",
            "OBS002",
            "EXEC001",
            "EXEC101",
            "EXEC102",
            "RNG101",
        } <= known_ids()

    def test_findings_carry_pkgpath(self):
        findings = lint_sources(
            {"sim/foo.py": "def f(t):\n    return t == 1.0\n"},
            select=["FLT001"],
        )
        assert findings[0].pkgpath == "sim/foo.py"


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
            assert rule.id in run.stdout
            assert rule.title in run.stdout

    def test_unknown_select_exits_2(self):
        run = run_cli("--select", "NOPE999", "src")
        assert run.returncode == 2
        assert "known ids" in run.stderr

    def test_retired_rules_are_unknown(self):
        # OBS101-OBS103 gave way to tests/integration/test_obs_names.py,
        # REG001/REG002 and ALL001-ALL003 to TestPackageSurface in
        # tests/unit/test_errors_and_exports.py; LNT001 went with the
        # `lint: skip` pragma it audited.
        retired = [
            "OBS101", "OBS102", "OBS103",
            "REG001", "REG002",
            "ALL001", "ALL002", "ALL003",
            "LNT001",
        ]
        listed = run_cli("--list-rules")
        assert listed.returncode == 0
        run = run_cli("--select", ",".join(retired), "src")
        assert run.returncode == 2
        assert "known ids: " in run.stderr and "OBS002" in run.stderr
        for rule_id in retired:
            assert rule_id not in listed.stdout
            assert rule_id in run.stderr.partition("known ids")[0]
            assert rule_id not in known_ids()

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
            ["--report-unused-skips"],
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
