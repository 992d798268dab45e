"""Fixture tests for the nondeterminism-source rule (RNG101).

The rule reads one module at a time: every call it resolves, through the
module's own imports, to a sink outside the exempt modules is a finding,
whether or not anything calls the function that makes it.
"""

from __future__ import annotations

from repro._lint import lint_sources


def rule_ids(findings):
    return [finding.rule for finding in findings]


class TestSinks:
    def test_stdlib_random_two_hops_from_sim_entry(self):
        findings = lint_sources(
            {
                "sim/helpers.py": (
                    "import random\n"
                    "def simulate_one(case):\n"
                    "    return _jitter(case)\n"
                    "def _jitter(case):\n"
                    "    return case + random.random()\n"
                ),
            },
            select=["RNG101"],
        )
        assert rule_ids(findings) == ["RNG101"]
        message = findings[0].message
        assert "random.random" in message
        assert "`_jitter`" in message
        assert "SeedTree" in message

    def test_wall_clock_in_sim_entry(self):
        # The time clocks are OBS002's; RNG101 keeps the datetime ones.
        findings = lint_sources(
            {
                "sim/clock.py": (
                    "import datetime\n"
                    "def run_case(case):\n"
                    "    return datetime.datetime.utcnow()\n"
                ),
            },
            select=["RNG101"],
        )
        assert rule_ids(findings) == ["RNG101"]
        assert "datetime.datetime.utcnow" in findings[0].message

    def test_datetime_now_via_from_import(self):
        findings = lint_sources(
            {
                "ra/sched.py": (
                    "from datetime import datetime\n"
                    "def pick_start():\n"
                    "    return datetime.now()\n"
                ),
            },
            select=["RNG101"],
        )
        assert rule_ids(findings) == ["RNG101"]
        assert "datetime.datetime.now" in findings[0].message

    def test_os_urandom_and_uuid4(self):
        findings = lint_sources(
            {
                "ra/tokens.py": (
                    "import os\n"
                    "import uuid\n"
                    "def tag_result(r):\n"
                    "    return (os.urandom(4), uuid.uuid4(), r)\n"
                ),
            },
            select=["RNG101"],
        )
        assert sorted(rule_ids(findings)) == ["RNG101", "RNG101"]


    def test_aliased_from_import_resolves(self):
        findings = lint_sources(
            {
                "dls/x.py": (
                    "from os import urandom as entropy\n"
                    "def tag():\n"
                    "    return entropy(4)\n"
                ),
            },
            select=["RNG101"],
        )
        assert rule_ids(findings) == ["RNG101"]
        assert "os.urandom" in findings[0].message

    def test_seeded_generator_methods_are_clean(self):
        # rng.random() on a seeded Generator is the discipline, not a sink.
        findings = lint_sources(
            {
                "sim/draw.py": (
                    "def draw(rng):\n"
                    "    return rng.random() + rng.integers(3)\n"
                ),
            },
            select=["RNG101"],
        )
        assert findings == []


class TestPerFileVerdict:
    def test_task_run_method_fires(self):
        findings = lint_sources(
            {
                "exec/tasks.py": (
                    "import uuid\n"
                    "class ReplicateTask:\n"
                    "    def run(self):\n"
                    "        return uuid.uuid4()\n"
                ),
            },
            select=["RNG101"],
        )
        assert rule_ids(findings) == ["RNG101"]

    def test_private_sim_function_fires(self):
        # No call graph: a private helper nothing calls is still flagged.
        findings = lint_sources(
            {
                "sim/dead.py": (
                    "import random\n"
                    "def _unused():\n"
                    "    return random.random()\n"
                ),
            },
            select=["RNG101"],
        )
        assert rule_ids(findings) == ["RNG101"]
        assert "`_unused`" in findings[0].message

    def test_os_urandom_in_unreachable_private_helper_fires(self):
        findings = lint_sources(
            {
                "sim/salt.py": (
                    "import os\n"
                    "class _Salt:\n"
                    "    def _fresh(self):\n"
                    "        return os.urandom(8)\n"
                ),
            },
            select=["RNG101"],
        )
        assert rule_ids(findings) == ["RNG101"]
        assert "`_Salt._fresh`" in findings[0].message

    def test_module_level_call_fires(self):
        findings = lint_sources(
            {"apps/boot.py": "import datetime\nSTARTED = datetime.date.today()\n"},
            select=["RNG101"],
        )
        assert rule_ids(findings) == ["RNG101"]
        assert "`<module>`" in findings[0].message


class TestExemptions:
    def test_sink_inside_rng_module_is_exempt(self):
        # repro.rng is the sanctioned wrapper — the sink lives there by
        # design, so chains ending inside it are fine.
        findings = lint_sources(
            {
                "sim/a.py": (
                    "from ..rng import draw\n"
                    "def simulate(case):\n"
                    "    return draw(case)\n"
                ),
                "rng.py": (
                    "import random\n"
                    "def draw(case):\n"
                    "    return random.random()\n"
                ),
            },
            select=["RNG101"],
        )
        assert findings == []

    def test_sink_inside_exec_seeds_is_exempt(self):
        findings = lint_sources(
            {
                "ra/search.py": (
                    "from ..exec.seeds import fresh_entropy\n"
                    "def evaluate(x):\n"
                    "    return fresh_entropy(x)\n"
                ),
                "exec/seeds.py": (
                    "import os\n"
                    "def fresh_entropy(x):\n"
                    "    return os.urandom(8)\n"
                ),
            },
            select=["RNG101"],
        )
        assert findings == []

    def test_same_sink_outside_exempt_modules_fires(self):
        findings = lint_sources(
            {
                "ra/search.py": (
                    "from .entropy import _fresh_entropy\n"
                    "def evaluate(x):\n"
                    "    return _fresh_entropy(x)\n"
                ),
                "ra/entropy.py": (
                    "import os\n"
                    "def _fresh_entropy(x):\n"
                    "    return os.urandom(8)\n"
                ),
            },
            select=["RNG101"],
        )
        assert rule_ids(findings) == ["RNG101"]
        assert findings[0].pkgpath == "ra/entropy.py"
        assert "`_fresh_entropy`" in findings[0].message

    def test_obs_package_is_not_exempt(self):
        # repro.obs reads its clocks through `time`, which is OBS002's;
        # a datetime.now or OS-entropy read there is RNG101's like anywhere.
        findings = lint_sources(
            {
                "sim/a.py": (
                    "from ..obs.spans import stamp\n"
                    "def simulate(case):\n"
                    "    stamp()\n"
                    "    return case\n"
                ),
                "obs/spans.py": (
                    "from datetime import datetime\n"
                    "def stamp():\n"
                    "    return datetime.now()\n"
                ),
            },
            select=["RNG101"],
        )
        assert rule_ids(findings) == ["RNG101"]
        assert findings[0].pkgpath == "obs/spans.py"

    def test_each_sink_reported_once(self):
        # Two public functions call the helper holding the sink; one finding.
        findings = lint_sources(
            {
                "sim/shared.py": (
                    "import random\n"
                    "def alpha():\n"
                    "    return _core()\n"
                    "def beta():\n"
                    "    return _core()\n"
                    "def _core():\n"
                    "    return random.random()\n"
                ),
            },
            select=["RNG101"],
        )
        assert rule_ids(findings) == ["RNG101"]
