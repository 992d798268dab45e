"""Tests for the per-module import table the lint rules resolve names with."""

from __future__ import annotations

import ast

from repro._lint import Module
from repro._lint.core import module_name


def make_module(pkgpath: str, source: str) -> Module:
    return Module(path=pkgpath, pkgpath=pkgpath, tree=ast.parse(source))


class TestModuleNaming:
    def test_plain_module(self):
        assert module_name("sim/loopsim.py") == "repro.sim.loopsim"

    def test_top_level_module(self):
        assert module_name("rng.py") == "repro.rng"

    def test_package_init(self):
        assert module_name("obs/__init__.py") == "repro.obs"

    def test_root_init(self):
        assert module_name("__init__.py") == "repro"


class TestImportTable:
    def test_plain_and_asname_imports(self):
        table = make_module("sim/a.py", "import numpy as np\nimport os.path\n").imports
        assert table["np"] == "numpy"
        assert table["os"] == "os"

    def test_relative_import_levels(self):
        table = make_module(
            "sim/a.py",
            "from ..obs import incr\n"
            "from .engine import run\n"
            "from .. import obs\n"
            "from ... import top\n",
        ).imports
        assert table["incr"] == "repro.obs.incr"
        assert table["run"] == "repro.sim.engine.run"
        assert table["obs"] == "repro.obs"
        # Levels past the root stop at the root.
        assert table["top"] == "repro.top"

    def test_package_init_relative_base(self):
        table = make_module("obs/__init__.py", "from .metrics import incr\n").imports
        assert table["incr"] == "repro.obs.metrics.incr"

    def test_function_local_imports_count(self):
        module = make_module(
            "sim/a.py",
            "import time as clock\n"
            "def f():\n"
            "    from datetime import datetime as clock\n",
        )
        assert module.imports["clock"] == "datetime.datetime"

    def test_no_reexport_chase(self):
        # A name resolves to what the module's own import spells; the
        # table never looks inside the module it names.
        module = make_module("sim/a.py", "from ..obs import incr\n")
        assert module.resolve("incr") == "repro.obs.incr"


class TestResolve:
    def test_module_import_then_attribute_call(self):
        module = make_module(
            "sim/a.py",
            "from .. import obs\n"
            "def f():\n"
            "    obs.incr('sim.apps')\n",
        )
        assert module.resolve("obs.incr") == "repro.obs.incr"

    def test_aliased_dotted_name(self):
        module = make_module("sim/a.py", "import numpy as np\n")
        assert module.resolve("np.random.default_rng") == "numpy.random.default_rng"

    def test_unimported_name_unchanged(self):
        module = make_module("sim/a.py", "import numpy as np\n")
        assert module.resolve("open") == "open"
        assert module.resolve("self.rng.random") == "self.rng.random"


class TestScopes:
    def test_qualnames_cover_module_classes_and_nested_defs(self):
        module = make_module(
            "sim/a.py",
            "def outer():\n"
            "    def inner():\n"
            "        pass\n"
            "    return inner\n"
            "class C:\n"
            "    def method(self):\n"
            "        pass\n"
            "if True:\n"
            "    def guarded():\n"
            "        pass\n",
        )
        names = sorted(name for name, _, _ in module.scopes)
        assert names == [
            "<module>",
            "C",
            "C.method",
            "guarded",
            "outer",
            "outer.inner",
        ]

    def test_scopes_partition_the_tree(self):
        module = make_module(
            "sim/a.py",
            "import os\n"
            "class C:\n"
            "    X = [1]\n"
            "    def m(self, k=os.sep):\n"
            "        return lambda: [self for _ in range(k)]\n"
            "def f():\n"
            "    class D:\n"
            "        pass\n"
            "    return D\n",
        )
        owned = sorted(id(node) for _, _, nodes in module.scopes for node in nodes)
        walked = sorted(id(node) for node in ast.walk(module.tree))
        assert owned == [i for i in walked if i != id(module.tree)]
