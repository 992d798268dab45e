"""Naive initial mapping: simple load balancing (paper §II-A, §IV).

"In naive IM, a simple load balancing technique is used to allocate an equal
share of the available processors to each application. The load balancing
allocation with the highest probability that all applications will complete
before the deadline was chosen."

Every application receives ``total processors / N`` processors (of a single
type); among the feasible equal-share allocations the one with the highest
joint deadline probability is returned. On the paper example this yields
app1 -> 4 x type2, app2 -> 4 x type1, app3 -> 4 x type2 with phi_1 = 26%.
"""

from __future__ import annotations

from ..errors import InfeasibleAllocationError
from ..exec import ExecutionBackend
from .base import RAHeuristic, RAResult
from .exhaustive import MAX_EVALUATIONS, best_enumerated
from .robustness import StageIEvaluator

__all__ = ["EqualShareAllocator"]


class EqualShareAllocator(RAHeuristic):
    """Naive IM: equal processor share per application.

    The share must be a power of two (the model's group-size constraint);
    otherwise smaller power-of-two shares are tried. Each share's
    allocations are enumerated and scored like the exhaustive search, under
    the same ``MAX_EVALUATIONS`` bound.
    """

    name = "naive-equal-share"

    def allocate(
        self,
        evaluator: StageIEvaluator,
        *,
        backend: ExecutionBackend | None = None,
    ) -> RAResult:
        batch = evaluator.batch
        system = evaluator.system
        n_apps = len(batch)
        share = system.total_processors // n_apps
        if share < 1:
            raise InfeasibleAllocationError(
                f"{system.total_processors} processors cannot give each of "
                f"{n_apps} applications a whole share"
            )
        # The equal share ignores any remainder (those processors idle), as
        # the naive policy distributes "an equal share" only. If no complete
        # allocation exists at the exact share (share not a power of two, or
        # the per-type counts cannot host it), fall back to successively
        # smaller power-of-two shares — still "equal share per application".
        shares = [share]
        k = 1 << (share.bit_length() - 1)  # largest power of two <= share
        while k >= 1:
            if k not in shares:
                shares.append(k)
            k >>= 1
        for s in shares:
            # None when no allocation exists at this share (some application
            # has no group of size s, or they cannot all fit). Every
            # allocation here uses n_apps * s processors, so the exhaustive
            # tie-break reduces to the first of the best phi_1.
            found = best_enumerated(
                evaluator, backend, MAX_EVALUATIONS, sizes_filter={s}
            )
            if found is not None:
                allocation, robustness, evaluations = found
                return RAResult(
                    allocation=allocation,
                    robustness=robustness,
                    heuristic=self.name,
                    evaluations=evaluations,
                )
        raise InfeasibleAllocationError(
            f"no feasible equal-share allocation for shares {shares}"
        )
