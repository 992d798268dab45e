"""Stage-I robustness evaluation (the paper's phi_1 machinery).

Given an allocation, each application's completion-time PMF is the Eq.-(2)
parallel-time PMF composed ("convoluted", in the paper's wording) with its
processor type's availability PMF; the allocation's robustness is the joint
probability that every application's completion time is within the deadline:

    phi_1 = prod_i Pr(T_i^eff <= Delta)

(independent applications; paper §II-A and §IV). Each factor needs no
completion PMF: Eq. 2 scales every time pulse ``T`` by
``c = s + (1 - s) / n`` and availability ``alpha`` divides it, so

    Pr(T_i^eff <= Delta) = sum_alpha p_alpha * F_T(Delta * alpha / c)

over the application's single-processor time CDF ``F_T`` on its type. The
evaluator caches these probabilities per (app, type, size) assignment,
because heuristics evaluate many allocations that share assignments; the
first one asked of an (app, type) pair computes every power-of-two size of
the type in one pass over ``F_T``. It builds completion PMFs only where a
distribution is asked for (expected times, the makespan PMF and its
deadline curve).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..apps import Application, Batch
from ..contracts import check_allocation_feasible, contracts_enabled
from ..obs import incr, obs_enabled
from ..pmf import PMF, amdahl_time, dilate_by_availability
from ..system import HeterogeneousSystem, ProcessorGroup
from .allocation import Allocation, powers_of_two_upto

__all__ = ["StageIEvaluator", "AllocationReport", "completion_pmf"]


def completion_pmf(app: Application, group: ProcessorGroup) -> PMF:
    """Effective completion-time PMF of one application on one group."""
    par = app.parallel_time_pmf(group.ptype.name, group.size)
    return dilate_by_availability(par, group.availability)


@dataclass(frozen=True)
class AllocationReport:
    """Everything stage I reports about one allocation.

    ``expected_times`` reproduces the paper's Table V
    (``T^exp_{max_i, i}``); ``per_app_prob`` are the per-application deadline
    probabilities whose product is ``robustness`` (phi_1).
    """

    allocation: Allocation
    deadline: float
    per_app_prob: dict[str, float]
    expected_times: dict[str, float]
    robustness: float

    def meets_deadline_in_expectation(self) -> bool:
        """True if every expected completion time is within the deadline."""
        return all(t <= self.deadline for t in self.expected_times.values())


class StageIEvaluator:
    """Evaluates allocations for a fixed (batch, system, deadline).

    The availability PMFs used are those carried by the *system* passed in —
    stage I evaluates against the historical/expected availability (the
    paper's case 1). This is the one evaluation path shared by every RA
    heuristic, and it memoizes two things per
    ``(app name, type name, group size)`` assignment:

    * the deadline probability ``Pr(T_i^eff <= Delta)``, read from the
      single-processor time CDF at one point per availability level (see
      :meth:`app_deadline_prob`), so candidate evaluations that revisit an
      assignment (population-based searches revisit constantly) cost one
      dict lookup. The first assignment read of an (app, type) pair
      computes the pair's other power-of-two sizes too; each still counts
      as a miss when first read;
    * the effective completion-time PMF (Eq. 2 composed with the
      availability dilation), built only for the distribution views:
      expected times, :meth:`makespan_pmf` and what derives from it.

    Cache traffic is counted locally (:meth:`cache_info`) and, when
    observation is active, on the ``ra.pmf_cache.*`` / ``ra.prob_cache.*``
    counters.
    """

    def __init__(
        self, batch: Batch, system: HeterogeneousSystem, deadline: float
    ) -> None:
        if not deadline > 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self._batch = batch
        self._system = system
        self._deadline = deadline
        self._pmf_cache: dict[tuple[str, str, int], PMF] = {}
        self._prob_cache: dict[tuple[str, str, int], float] = {}
        # Computed alongside an earlier miss, not yet read.
        self._prob_unread: dict[tuple[str, str, int], float] = {}
        self._pmf_hits = 0
        self._pmf_misses = 0
        self._prob_hits = 0
        self._prob_misses = 0

    @property
    def batch(self) -> Batch:
        return self._batch

    @property
    def system(self) -> HeterogeneousSystem:
        return self._system

    @property
    def deadline(self) -> float:
        return self._deadline

    # ------------------------------------------------------------ primitives

    def app_completion_pmf(self, app_name: str, group: ProcessorGroup) -> PMF:
        """Memoized effective completion-time PMF for one assignment.

        The availability used is that of *this evaluator's system* (looked
        up by the group's type name), not whatever system the group object
        was built against — stage I always evaluates under its own
        ``A_hat``, and sensitivity studies evaluate one allocation under
        many degraded systems.
        """
        key = (app_name, group.ptype.name, group.size)
        pmf = self._pmf_cache.get(key)
        if pmf is None:
            self._pmf_misses += 1
            own_group = self._system.group(group.ptype.name, group.size)
            pmf = completion_pmf(self._batch.app(app_name), own_group)
            self._pmf_cache[key] = pmf
            if obs_enabled():
                incr("ra.pmf_cache.miss")
        else:
            self._pmf_hits += 1
            if obs_enabled():
                incr("ra.pmf_cache.hit")
        return pmf

    def app_deadline_prob(self, app_name: str, group: ProcessorGroup) -> float:
        """``Pr(T_i^eff <= Delta)`` for one assignment (memoized).

        ``sum_alpha p_alpha * F_T(Delta * alpha / c)`` with
        ``c = s + (1 - s) / n``: the completion PMF's deadline probability
        without building it, under this evaluator's availability as in
        :meth:`app_completion_pmf`. It is exactly 1.0 when every time pulse
        meets the deadline at every availability level (and exactly 0.0
        when none does), so saturated assignments tie exactly. The first
        miss of an (app, type) pair computes all its power-of-two sizes
        at once (:meth:`_type_pass`); every assignment still counts one
        miss, on its first read.
        """
        key = (app_name, group.ptype.name, group.size)
        prob = self._prob_cache.get(key)
        if prob is None:
            self._prob_misses += 1
            prob = self._prob_unread.pop(key, None)
            if prob is None:
                prob = self._type_pass(*key)
            self._prob_cache[key] = prob
            if obs_enabled():
                incr("ra.prob_cache.miss")
        else:
            self._prob_hits += 1
            if obs_enabled():
                incr("ra.prob_cache.hit")
        return prob

    def _type_pass(self, app_name: str, type_name: str, size: int) -> float:
        """``Pr(T_eff <= Delta)`` on ``size`` processors of the type.

        One pass over ``F_T`` computes every power-of-two size of the type
        too; those not read yet wait in ``_prob_unread``. Per size it is the
        arithmetic of a single lookup: ``reach = (Delta * alpha) / c`` and
        ``F_T(reach) @ p_alpha``, or exactly 1.0 when every time pulse
        meets the deadline at every level.
        """
        app = self._batch.app(app_name)
        times = app.single_proc_pmf(type_name)
        # as a group would, this rejects a size the evaluator's type lacks
        ptype = self._system.group(type_name, size).ptype
        levels = ptype.availability
        sizes = powers_of_two_upto(ptype.count)
        if size not in sizes:
            sizes.append(size)
        c = np.array([amdahl_time(1.0, app.serial_frac, n) for n in sizes])
        # reach[k, 0] is row k's smallest: the levels are sorted ascending
        reach = (self._deadline * levels.values) / c[:, None]
        top = times.values[-1]
        probs = [
            1.0 if row[0] >= top else float(below @ levels.probs)
            for row, below in zip(reach, times.cdf(reach))
        ]
        for n, p in zip(sizes, probs):
            if n != size and (app_name, type_name, n) not in self._prob_cache:
                self._prob_unread[app_name, type_name, n] = p
        return probs[sizes.index(size)]

    def cache_info(self) -> dict[str, int]:
        """Hit/miss totals of the two memoization layers."""
        return {
            "pmf_hits": self._pmf_hits,
            "pmf_misses": self._pmf_misses,
            "prob_hits": self._prob_hits,
            "prob_misses": self._prob_misses,
        }

    def app_expected_time(self, app_name: str, group: ProcessorGroup) -> float:
        """Expected effective completion time for one assignment."""
        return self.app_completion_pmf(app_name, group).mean()

    # ------------------------------------------------------------ allocation

    def joint_probability(
        self, assignments: Mapping[str, ProcessorGroup]
    ) -> float:
        """Joint deadline probability of an app->group assignment map.

        The shared candidate-scoring path: heuristics evaluate raw
        assignment mappings (population members, search neighbors)
        through this method so every evaluation hits the same memoized
        per-assignment probabilities. Multiplication short-circuits at
        zero.
        """
        if obs_enabled():
            incr("ra.candidate_evaluations")
        prob = 1.0
        for app_name, group in assignments.items():
            prob *= self.app_deadline_prob(app_name, group)
            if prob <= 0.0:
                break
        return prob

    def robustness(self, allocation: Allocation) -> float:
        """phi_1 of an allocation: joint deadline probability."""
        if contracts_enabled():
            check_allocation_feasible(allocation, self._system, self._batch)
        return self.joint_probability(dict(allocation.items()))

    def makespan_pmf(self, allocation: Allocation) -> PMF:
        """Exact PMF of the system makespan ``Psi`` under an allocation.

        ``Psi`` is the max of the applications' independent completion
        times (paper §III-A); its full distribution supports deadline
        sensitivity analysis beyond the single ``Pr(Psi <= Delta)`` number.
        """
        from ..pmf import max_independent

        return max_independent(
            [
                self.app_completion_pmf(app_name, group)
                for app_name, group in allocation.items()
            ]
        )

    def phi1_curve(
        self, allocation: Allocation, deadlines
    ) -> list[tuple[float, float]]:
        """``(deadline, Pr(Psi <= deadline))`` pairs over a deadline sweep."""
        pmf = self.makespan_pmf(allocation)
        return [(float(d), pmf.prob_leq(float(d))) for d in deadlines]

    def min_deadline(self, allocation: Allocation, probability: float) -> float:
        """Smallest deadline achieving the target joint probability.

        The inverse view of phi_1: "what Delta would this allocation
        support at confidence p?"
        """
        if not 0.0 < probability <= 1.0:
            raise ValueError(
                f"probability must be in (0, 1], got {probability}"
            )
        return self.makespan_pmf(allocation).quantile(probability)

    def report(self, allocation: Allocation) -> AllocationReport:
        """Full per-application report for an allocation."""
        per_app = {
            app_name: self.app_deadline_prob(app_name, group)
            for app_name, group in allocation.items()
        }
        expected = {
            app_name: self.app_expected_time(app_name, group)
            for app_name, group in allocation.items()
        }
        robustness = 1.0
        for p in per_app.values():
            robustness *= p
        return AllocationReport(
            allocation=allocation,
            deadline=self._deadline,
            per_app_prob=per_app,
            expected_times=expected,
            robustness=robustness,
        )
