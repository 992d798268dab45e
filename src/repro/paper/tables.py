"""Regeneration of the paper's Tables I, IV, V, and VI.

Each ``table_*`` function recomputes the corresponding artifact from the
model (never from the recorded ground truth) and returns plain rows, so the
benchmark harness can print them and the regression tests can compare them
to :mod:`repro.paper.data`. Tables IV and V take the result of one
:func:`compute_allocations` call, so the stage-I searches run once.
"""

from __future__ import annotations

from ..framework import StudyResult
from ..ra import (
    Allocation,
    EqualShareAllocator,
    ExhaustiveAllocator,
    StageIEvaluator,
)
from . import data
from .example import paper_batch, paper_cases, paper_system

__all__ = [
    "table_i_rows",
    "compute_allocations",
    "table_iv_rows",
    "table_v_rows",
    "phi1_values",
    "table_vi_rows",
]


def table_i_rows() -> list[tuple[str, str, float, float, float]]:
    """Table I: per-case, per-type expected and weighted availabilities.

    Rows: ``(case, type, expected availability %, weighted system
    availability %, decrease vs case1 %)``.
    """
    rows = []
    reference = paper_system("case1").weighted_availability()
    for case, system in paper_cases().items():
        weighted = system.weighted_availability()
        decrease = 100.0 * (1.0 - weighted / reference)
        for ptype in system.types:
            rows.append(
                (
                    case,
                    ptype.name,
                    100.0 * ptype.expected_availability,
                    100.0 * weighted,
                    decrease,
                )
            )
    return rows


def compute_allocations() -> tuple[StageIEvaluator, dict[str, Allocation]]:
    """Run the naive and robust IM on the paper instance (Table IV inputs)."""
    evaluator = StageIEvaluator(paper_batch(), paper_system("case1"), data.DEADLINE)
    naive = EqualShareAllocator().allocate(evaluator)
    robust = ExhaustiveAllocator().allocate(evaluator)
    return evaluator, {"naive": naive.allocation, "robust": robust.allocation}


def table_iv_rows(
    allocations: dict[str, Allocation],
) -> list[tuple[str, str, str, int]]:
    """Table IV rows: ``(RA policy, application, processor type, count)``."""
    rows = []
    for policy in ("naive", "robust"):
        for app_name, ptype_name, size in sorted(
            allocations[policy].as_table()
        ):
            rows.append((policy, app_name, ptype_name, size))
    return rows


def table_v_rows(
    evaluator: StageIEvaluator,
    allocations: dict[str, Allocation],
) -> list[tuple[str, str, float]]:
    """Table V rows: ``(RA policy, application, expected completion time)``."""
    rows = []
    for policy in ("naive", "robust"):
        report = evaluator.report(allocations[policy])
        for app_name in sorted(report.expected_times):
            rows.append((policy, app_name, report.expected_times[app_name]))
    return rows


def phi1_values(
    evaluator: StageIEvaluator | None = None,
    allocations: dict[str, Allocation] | None = None,
) -> dict[str, float]:
    """phi_1 (percent) of the naive and robust allocations."""
    if evaluator is None or allocations is None:
        evaluator, allocations = compute_allocations()
    return {
        policy: 100.0 * evaluator.robustness(allocation)
        for policy, allocation in allocations.items()
    }


def table_vi_rows(study: StudyResult) -> list[tuple[str, str, str]]:
    """Table VI rows from a scenario-4 study.

    Rows: ``(application, case, best deadline-meeting technique or "-")``.
    """
    rows = []
    table = study.best_technique_table()
    for app_name in sorted(table):
        for case in study.case_ids:
            best = table[app_name][case]
            rows.append((app_name, case, best if best is not None else "-"))
    return rows
