"""Unit tests of the exception hierarchy and the public package surface."""

import importlib
import inspect
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.dls import ALL_TECHNIQUES, DLSTechnique
from repro.errors import (
    AllocationError,
    InfeasibleAllocationError,
    FaultError,
    ModelError,
    PMFError,
    ReproError,
    SchedulingError,
    SimulationError,
)
from repro.ra import HEURISTICS, RAHeuristic

#: ``repro`` and every module under it with no ``_``-prefixed dotted part.
PUBLIC_MODULES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not any(part.startswith("_") for part in info.name.split("."))
]


class TestHierarchy:
    def test_all_derive_from_base(self):
        for exc in (
            PMFError,
            ModelError,
            AllocationError,
            InfeasibleAllocationError,
            SchedulingError,
            SimulationError,
            FaultError,
        ):
            assert issubclass(exc, ReproError)

    def test_infeasible_is_allocation_error(self):
        assert issubclass(InfeasibleAllocationError, AllocationError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise InfeasibleAllocationError("nope")


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("module", PUBLIC_MODULES)
    def test_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        exported = getattr(mod, "__all__", None)
        assert exported is not None, f"{module} defines no __all__"
        assert len(set(exported)) == len(exported), f"{module}.__all__ repeats a name"
        for name in exported:
            assert hasattr(mod, name), f"{module}.{name} missing"

    def test_no_private_leaks_in_all(self):
        for module in PUBLIC_MODULES:
            mod = importlib.import_module(module)
            for name in mod.__all__:
                if (module, name) != ("repro", "__version__"):
                    assert not name.startswith("_"), f"{module}.{name}"

    @pytest.mark.parametrize(
        "base, registry",
        [(DLSTechnique, ALL_TECHNIQUES), (RAHeuristic, HEURISTICS)],
        ids=["ALL_TECHNIQUES", "HEURISTICS"],
    )
    def test_every_concrete_subclass_registered(self, base, registry):
        # The CLI, the experiment drivers and the registry-driven tests
        # reach techniques and heuristics by name only. Import every module
        # first, so a subclass in a module nothing imports is seen too.
        # The package filter (its __init__ and every module under it)
        # keeps out classes that tests define.
        for module in PUBLIC_MODULES:
            importlib.import_module(module)
        package = base.__module__.rpartition(".")[0]
        unregistered = set()
        pending = [base]
        while pending:
            for cls in pending.pop().__subclasses__():
                pending.append(cls)
                if (
                    (cls.__module__ == package or cls.__module__.startswith(package + "."))
                    and not cls.__name__.startswith("_")
                    and not inspect.isabstract(cls)
                    and cls not in registry.values()
                ):
                    unregistered.add(f"{cls.__module__}.{cls.__qualname__}")
        assert not unregistered, sorted(unregistered)

    def test_docstrings_on_public_classes(self):
        for cls in list(ALL_TECHNIQUES.values()) + list(HEURISTICS.values()):
            assert cls.__doc__ and cls.__doc__.strip(), cls

    def test_run_paths_leave_scipy_unloaded(self):
        # Importing scipy.special alone loads ~270 modules into every
        # process. The normal CDF is repro.pmf's own, so importing repro
        # and running both stages must not load any of SciPy; only the
        # t quantile behind confidence intervals and the MILP (below) do.
        # A fresh interpreter, since this one may have loaded SciPy already.
        code = (
            "import importlib, pkgutil, sys\n"
            "import repro\n"
            "for mod in pkgutil.iter_modules(repro.__path__):\n"
            "    if not mod.name.startswith('_'):\n"
            "        importlib.import_module(f'repro.{mod.name}')\n"
            "from repro.apps import WorkloadSpec, random_instance\n"
            "from repro.exec import SerialBackend\n"
            "from repro.framework import Scenario, run_scenario\n"
            "from repro.paper import paper_cases, paper_cdsf\n"
            "from repro.ra import GreedyRobustAllocator, StageIEvaluator\n"
            "from repro.sim import ReplicatedAppStats\n"
            "run_scenario(Scenario.ROBUST_IM_ROBUST_RAS,\n"
            "             paper_cdsf(replications=1), paper_cases(),\n"
            "             backend=SerialBackend())\n"
            "system, batch = random_instance(WorkloadSpec(n_apps=4, n_types=2), 7)\n"
            "GreedyRobustAllocator().allocate(StageIEvaluator(batch, system, 1e4))\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, f'a run path loaded {loaded[:5]}'\n"
            "ReplicatedAppStats('a', 'SS', (1.0, 2.0, 4.0)).mean_ci()\n"
            "assert 'scipy.special' in sys.modules, 'mean_ci did not load it'\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert run.returncode == 0, run.stderr

    def test_only_the_milp_loads_scipy_optimize(self):
        # scipy.optimize costs ~0.2-0.8 s to import; importing repro and
        # running every other registered heuristic must not pay for it.
        others = sorted(set(HEURISTICS) - {"milp-optimal"})
        code = (
            "import sys\n"
            "import repro, repro.ra\n"
            "from repro.paper import paper_batch, paper_system\n"
            "from repro.ra import HEURISTICS, StageIEvaluator\n"
            "ev = StageIEvaluator(paper_batch(), paper_system('case1'), 3250.0)\n"
            f"for name in {others!r}:\n"
            "    HEURISTICS[name]().allocate(ev)\n"
            "assert 'scipy.optimize' not in sys.modules, 'loaded before the MILP'\n"
            "HEURISTICS['milp-optimal']().allocate(ev)\n"
            "assert 'scipy.optimize' in sys.modules, 'the MILP did not load it'\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert run.returncode == 0, run.stderr
