"""Exact stage-I allocation: a 0/1 program on log phi_1.

phi_1 = prod_i Pr(T_i <= Delta), so the allocation maximizing it maximizes
sum_i log Pr(T_i <= Delta), which is linear in one binary per (application,
candidate group). Each application takes one group, and the groups of a
type fit in its processor count. This is the logarithm-then-integer-program
route of Lin & Rajaraman and Crutchfield et al. SciPy's HiGHS proves the
optimum, usually at the root node, far beyond enumeration's reach (24
applications on 6 types: 792 binaries, ~0.4 s with their completion PMFs).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import AllocationError, InfeasibleAllocationError
from ..exec import ExecutionBackend
from .base import RAHeuristic, RAResult, SearchSpace
from .robustness import StageIEvaluator

__all__ = ["MILPAllocator", "LOG_ZERO", "COST_SCALE"]

#: Stand-in for ``log 0``. It lies below the log of the smallest positive
#: double (about -744.4), so any allocation whose phi_1 is a positive
#: double scores higher than every allocation holding a zero probability.
LOG_ZERO = -1000.0

#: Factor applied to every ``-log p`` cost (see :class:`MILPAllocator`).
COST_SCALE = 1e6


class MILPAllocator(RAHeuristic):
    """Optimal stage-I mapping by a MILP on log phi_1 (SciPy's HiGHS).

    Candidate ``g`` of application ``i`` (``SearchSpace.candidates``) costs
    ``-log Pr(T_i <= Delta)`` as read through ``app_deadline_prob``
    (``-LOG_ZERO`` for a zero probability); the reported phi_1 is the
    evaluator's own product over the returned allocation. ``evaluations``
    counts the probabilities read: 21 on the paper instance.

    Exactness: HiGHS stops once its incumbent is within an absolute gap of
    1e-6 or a relative gap ``mip_rel_gap`` (default 1e-4) of its bound.
    The relative gap is set to 0. SciPy does not expose the absolute one,
    so the costs are multiplied by ``COST_SCALE``: the gap then means 1e-12
    on log phi_1, i.e. phi_1 within 1e-12 relative of the optimum. Both
    are needed: on 120 small seeded instances the scaling alone missed the
    optimum on one by 8.6e-5 relative, the zero gap alone on six by up to
    7.6e-7; together they missed none.

    Ties: among allocations whose phi_1 agree to that tolerance the
    solver's pick is returned. It is fixed for one SciPy build but not
    canonical across versions, so the paper's Tables IV/V use
    :class:`~repro.ra.ExhaustiveAllocator`, whose tie-break is defined.

    An infeasible instance raises ``InfeasibleAllocationError``; any other
    solver outcome without a proven optimum raises ``AllocationError``
    naming the solver status.
    """

    name = "milp-optimal"

    def allocate(
        self,
        evaluator: StageIEvaluator,
        *,
        backend: ExecutionBackend | None = None,
    ) -> RAResult:
        # One model, one solve: ``backend`` has nothing to parallelize.
        # SciPy's optimizer costs ~0.2-0.8 s to import, so only this
        # allocator pays for it.
        from scipy.optimize import Bounds, LinearConstraint, milp

        space = SearchSpace(evaluator)
        columns = [(name, g) for name in space.names for g in space.candidates[name]]
        # Rows: one per application (take exactly one group), then one
        # per processor type (fit its processor count).
        app_row = {name: i for i, name in enumerate(space.names)}
        type_row = {t: len(app_row) + k for k, t in enumerate(space.capacity)}
        cost = np.empty(len(columns))
        matrix = np.zeros((len(app_row) + len(type_row), len(columns)))
        for j, (name, group) in enumerate(columns):
            p = evaluator.app_deadline_prob(name, group)
            cost[j] = -(math.log(p) if p > 0.0 else LOG_ZERO)
            matrix[app_row[name], j] = 1.0
            matrix[type_row[group.ptype.name], j] = group.size
        lower = [1.0] * len(app_row) + [0.0] * len(type_row)
        upper = [1.0] * len(app_row) + [float(c) for c in space.capacity.values()]
        solved = milp(
            cost * COST_SCALE,
            integrality=np.ones(len(columns)),
            bounds=Bounds(0.0, 1.0),
            constraints=LinearConstraint(matrix, lower, upper),
            options={"mip_rel_gap": 0.0},
        )
        if solved.status == 2:
            raise InfeasibleAllocationError("no feasible allocation exists")
        if solved.status != 0:
            raise AllocationError(
                f"MILP solver stopped without an optimum "
                f"(status {solved.status}: {solved.message})"
            )
        chosen = {name: g for (name, g), x in zip(columns, solved.x) if x > 0.5}
        return space.result(self.name, chosen, len(columns))
