"""Backend fan-out for stage-I candidate evaluation.

Population- and enumeration-based RA heuristics score large batches of
candidate allocations per step; :func:`evaluate_allocations` is the one
path they all use. In-process it scores through the caller's (memoized)
:class:`~repro.ra.robustness.StageIEvaluator`; on a parallel backend it
splits the candidates into :class:`~repro.exec.tasks.CandidateEvalTask`
descriptions, one evaluator rebuilt per chunk in the worker. Scores are
pure PMF algebra, so the two paths are bit-for-bit identical.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

from .backends import ExecutionBackend, fan_out_ranges
from .tasks import CandidateEvalTask, encode_assignments

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ra.robustness import StageIEvaluator
    from ..system import ProcessorGroup

__all__ = ["evaluate_allocations"]


def evaluate_allocations(
    evaluator: "StageIEvaluator",
    candidates: Sequence[Mapping[str, "ProcessorGroup"]],
    backend: ExecutionBackend | None = None,
) -> list[float]:
    """phi_1 of each candidate assignment, in candidate order.

    ``candidates`` are app-name -> group mappings (not necessarily
    validated ``Allocation`` objects — heuristic intermediates are
    allowed). They fan out over ``backend`` per
    :func:`~repro.exec.fan_out_ranges`; a batch that stays in-process
    shares the evaluator's cache.
    """
    ranges = fan_out_ranges(len(candidates), backend)
    if backend is None or ranges is None:
        return [evaluator.joint_probability(dict(c)) for c in candidates]
    tasks = [
        CandidateEvalTask(
            batch=evaluator.batch,
            system=evaluator.system,
            deadline=evaluator.deadline,
            candidates=tuple(
                encode_assignments(dict(c))
                for c in candidates[lo:hi]
            ),
        )
        for lo, hi in ranges
    ]
    scores: list[float] = []
    for chunk_scores in backend.run_tasks(tasks):
        scores.extend(chunk_scores)
    return scores
