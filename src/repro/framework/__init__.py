"""The combined dual-stage framework: orchestration, scenarios, robustness."""

from .robustness import (
    availability_decrease,
    stage_ii_robustness,
    SystemRobustness,
    FaultImpact,
)
from .study import StudyConfig, StudyResult, DLSStudy, summary_statistic
from .cdsf import CDSF, CDSFResult
from .sensitivity import (
    deadline_curve,
    min_deadline_for,
    degradation_curve,
    analytic_tolerance,
)
from .multibatch import BatchOutcome, MultiBatchResult, MultiBatchScheduler
from .fepia import RadiusReport, per_type_radius, robustness_radii
from .scenarios import (
    Scenario,
    ScenarioSpec,
    scenario_spec,
    run_scenario,
    run_all_scenarios,
)

__all__ = [
    "availability_decrease",
    "stage_ii_robustness",
    "SystemRobustness",
    "FaultImpact",
    "StudyConfig",
    "StudyResult",
    "DLSStudy",
    "summary_statistic",
    "CDSF",
    "CDSFResult",
    "deadline_curve",
    "min_deadline_for",
    "degradation_curve",
    "analytic_tolerance",
    "BatchOutcome",
    "MultiBatchResult",
    "MultiBatchScheduler",
    "RadiusReport",
    "per_type_radius",
    "robustness_radii",
    "Scenario",
    "ScenarioSpec",
    "scenario_spec",
    "run_scenario",
    "run_all_scenarios",
]
