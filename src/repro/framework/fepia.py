"""FePIA-style robustness radii for stage-I allocations.

The paper grounds its robustness vocabulary in Ali, Maciejewski, Siegel &
Kim, "Measuring the robustness of a resource allocation" (IEEE TPDS 2004):
the *robustness radius* of a performance feature against a perturbation
parameter is the smallest deviation of that parameter that drives the
feature out of its acceptable range.

Here the features are the applications' expected completion times (bounded
by the deadline ``Delta``) and the perturbation parameters are the
per-processor-type expected availabilities. The module computes:

* :func:`per_type_radius` — for one processor type, the largest
  multiplicative availability decrease (in percent) before *some*
  application's expected completion time exceeds the deadline, all other
  types held at their nominal availability;
* :func:`robustness_radii` — the radius for every type, plus the uniform
  (all-types) radius; the FePIA robustness metric of the allocation is the
  minimum over parameters.

Unlike ``phi_1`` (a probability under the nominal distributions), radii
measure *distance to failure* in parameter space — the complementary
robustness view reference [3] advocates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps import Batch, degraded_availability
from ..errors import ModelError
from ..ra import Allocation, StageIEvaluator
from ..system import HeterogeneousSystem

__all__ = ["RadiusReport", "per_type_radius", "robustness_radii"]

#: Search cap: radii beyond a 99% availability decrease are reported as 99.
MAX_DECREASE = 99.0


@dataclass(frozen=True)
class RadiusReport:
    """Robustness radii of one allocation (percent availability decrease)."""

    per_type: dict[str, float]
    uniform: float

    @property
    def fepia_metric(self) -> float:
        """The FePIA robustness: the minimum radius over all parameters."""
        return min([*self.per_type.values(), self.uniform])


def _expected_times_ok(
    batch: Batch,
    system: HeterogeneousSystem,
    allocation: Allocation,
    deadline: float,
) -> bool:
    evaluator = StageIEvaluator(batch, system, deadline)
    report = evaluator.report(allocation)
    return report.meets_deadline_in_expectation()


def _degrade(
    system: HeterogeneousSystem, factors: dict[str, float]
) -> HeterogeneousSystem:
    return system.with_availabilities(
        {
            t.name: degraded_availability(t.availability, factors[t.name])
            for t in system.types
            if factors.get(t.name, 1.0) < 1.0
        }
    )


def _bisect_radius(
    batch: Batch,
    system: HeterogeneousSystem,
    allocation: Allocation,
    deadline: float,
    type_names: list[str],
    tol: float,
) -> float:
    """Largest percent decrease of the named types' availability that keeps
    every expected completion time within the deadline."""

    def ok(decrease_pct: float) -> bool:
        factor = 1.0 - decrease_pct / 100.0
        factors = {name: factor for name in type_names}
        return _expected_times_ok(
            batch, _degrade(system, factors), allocation, deadline
        )

    if not ok(0.0):
        return 0.0
    if ok(MAX_DECREASE):
        return MAX_DECREASE
    lo, hi = 0.0, MAX_DECREASE  # ok(lo), not ok(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def per_type_radius(
    batch: Batch,
    system: HeterogeneousSystem,
    allocation: Allocation,
    deadline: float,
    type_name: str,
    *,
    tol: float = 0.05,
) -> float:
    """Robustness radius along one processor type's availability (percent).

    Types not hosting any allocated group have infinite radius; they are
    reported as :data:`MAX_DECREASE`.
    """
    if not deadline > 0:
        raise ModelError(f"deadline must be positive, got {deadline}")
    if type_name not in {t.name for t in system.types}:
        raise ModelError(f"unknown processor type {type_name!r}")
    return _bisect_radius(
        batch, system, allocation, deadline, [type_name], tol
    )


def robustness_radii(
    batch: Batch,
    system: HeterogeneousSystem,
    allocation: Allocation,
    deadline: float,
    *,
    tol: float = 0.05,
) -> RadiusReport:
    """All per-type radii plus the uniform (joint) radius."""
    per_type = {
        t.name: _bisect_radius(
            batch, system, allocation, deadline, [t.name], tol
        )
        for t in system.types
    }
    uniform = _bisect_radius(
        batch, system, allocation, deadline, [t.name for t in system.types], tol
    )
    return RadiusReport(per_type=per_type, uniform=uniform)
