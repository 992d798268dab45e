"""Unit tests of the exception hierarchy and the public package surface."""

import importlib
import subprocess
import sys

import pytest

import repro
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

    @pytest.mark.parametrize(
        "module",
        [
            "repro.pmf",
            "repro.system",
            "repro.apps",
            "repro.ra",
            "repro.dls",
            "repro.sim",
            "repro.faults",
            "repro.framework",
            "repro.paper",
            "repro.reporting",
            "repro.cli",
        ],
    )
    def test_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name} missing"

    def test_no_private_leaks_in_all(self):
        for module in (
            "repro.pmf",
            "repro.system",
            "repro.apps",
            "repro.ra",
            "repro.dls",
            "repro.sim",
            "repro.faults",
            "repro.framework",
        ):
            mod = importlib.import_module(module)
            for name in mod.__all__:
                assert not name.startswith("_"), f"{module}.{name}"

    def test_docstrings_on_public_classes(self):
        from repro.dls import ALL_TECHNIQUES
        from repro.ra import HEURISTICS

        for cls in list(ALL_TECHNIQUES.values()) + list(HEURISTICS.values()):
            assert cls.__doc__ and cls.__doc__.strip(), cls

    def test_subpackages_leave_scipy_stats_unloaded(self):
        # Importing scipy.stats costs most of a cold start (~0.6-0.9 s);
        # the normal CDF and the t quantile come from scipy.special. A
        # fresh interpreter, since this one may have loaded it already.
        code = (
            "import sys\n"
            "import repro.pmf, repro.ra, repro.sim, repro.framework, repro.paper\n"
            "sys.exit('scipy.stats' in sys.modules)\n"
        )
        run = subprocess.run([sys.executable, "-c", code], timeout=120)
        assert run.returncode == 0, "importing repro loaded scipy.stats"

    def test_only_the_milp_loads_scipy_optimize(self):
        # scipy.optimize costs ~0.2-0.8 s to import; importing repro and
        # running every other registered heuristic must not pay for it.
        from repro.ra import HEURISTICS

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
