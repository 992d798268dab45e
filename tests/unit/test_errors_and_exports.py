"""Unit tests of the exception hierarchy and the public package surface."""

import importlib

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
