"""Exception hierarchy for :mod:`repro`.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Subclasses separate model-construction problems from
allocation/scheduling/simulation failures, mirroring the framework's stages.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "PMFError",
    "ModelError",
    "AllocationError",
    "InfeasibleAllocationError",
    "SchedulingError",
    "SimulationError",
    "ObservabilityError",
    "ExecutionError",
    "FaultError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class PMFError(ReproError):
    """Invalid probability-mass-function construction or operation."""


class ModelError(ReproError):
    """Invalid system or application model (bad counts, fractions, types)."""


class AllocationError(ReproError):
    """A stage-I resource-allocation operation failed."""


class InfeasibleAllocationError(AllocationError):
    """No feasible allocation exists under the given constraints."""


class SchedulingError(ReproError):
    """A stage-II dynamic-loop-scheduling policy was misused."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class ObservabilityError(ReproError):
    """The tracing/metrics layer (:mod:`repro.obs`) was misused."""


class ExecutionError(ReproError):
    """The parallel-execution layer (:mod:`repro.exec`) was misused."""


class FaultError(ReproError):
    """An invalid fault plan or fault event (:mod:`repro.faults`)."""

