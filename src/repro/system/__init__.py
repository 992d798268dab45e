"""Heterogeneous system model: processor types, clusters, availability.

Static structure (types, groups, Eq. 1) lives alongside the *runtime*
availability processes used by the stage-II simulator.
"""

from .processor import Processor, ProcessorType
from .cluster import (
    HeterogeneousSystem,
    ProcessorGroup,
    weighted_system_availability,
)
from .availability import (
    AvailabilityModel,
    AvailabilityProcess,
    ConstantAvailability,
    ResampledAvailability,
    MarkovAvailability,
    QuotaAvailability,
    TraceAvailability,
    quota_levels,
)
from .correlated import SharedLoadModulator, ModulatedAvailability

__all__ = [
    "Processor",
    "ProcessorType",
    "HeterogeneousSystem",
    "ProcessorGroup",
    "weighted_system_availability",
    "AvailabilityModel",
    "AvailabilityProcess",
    "ConstantAvailability",
    "ResampledAvailability",
    "MarkovAvailability",
    "QuotaAvailability",
    "TraceAvailability",
    "quota_levels",
    "SharedLoadModulator",
    "ModulatedAvailability",
]
