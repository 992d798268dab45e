"""The three CDSF benchmark workloads, with why each exists.

Every workload is a closed loop with one client on the serial backend:
a *pass* is one complete user-visible job (a CDSF run, or a set of
stage-I searches) and the next pass starts when the previous one ends.
Inputs come only from the workload seed; the program receives the
generated inputs (study seeds, instances, deadlines), never the seed's
meaning.

Each class states the layer split it is expected to show in the traced
run. A later performance change names the workload that should move and
the workloads that must stay flat, and the traced split is how the
claim is checked.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from speed import SpeedMeter

from repro.apps import WorkloadSpec, random_instance
from repro.contracts import ContractViolation, check_allocation_feasible
from repro.dls import ROBUST_SET
from repro.exec import ExecutionBackend, SerialBackend
from repro.faults import FaultPlan
from repro.framework import Scenario, run_scenario
from repro.paper import (
    PAPER_SEED,
    PAPER_SIM_CONFIG,
    data,
    paper_cases,
    paper_cdsf,
)
from repro.ra import (
    AnnealingAllocator,
    ExhaustiveAllocator,
    GeneticAllocator,
    GreedyRobustAllocator,
    MinMinAllocator,
    RAResult,
    StageIEvaluator,
    SufferageAllocator,
    completion_pmf,
)

#: Recorded outputs of the paper scenario at ``PAPER_SEED``.
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

_CACHE_KEYS = ("pmf_hits", "pmf_misses", "prob_hits", "prob_misses")


@dataclass
class PassResult:
    """What one pass measured and what its output checks found.

    Times are raw seconds with the speed probes' own time taken out.
    The ``*speed`` fields scale them to reference speed (see
    :mod:`speed`): ``speed`` for the whole pass, ``stage_i_speed`` for
    the stage-I search, ``unit_speed`` for each unit, each from the
    probes taken around that interval.
    """

    wall_s: float
    stage_i_s: float          # seconds inside stage-I searches
    evaluations: int          # RAResult.evaluations of those searches
    main_s: float             # seconds of the stage whose units are counted
    unit_s: list[float]       # latency of every unit of that stage
    ops: int                  # operations attempted
    failed: int               # operations that raised or failed a check
    speed: float = 1.0
    stage_i_speed: float = 1.0
    unit_speed: list[float] = field(default_factory=list)
    cache: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(_CACHE_KEYS, 0)
    )
    problems: list[str] = field(default_factory=list)
    notes: dict[str, Any] = field(default_factory=dict)


class TimedBackend(ExecutionBackend):
    """Serial execution that times every task handed to ``run_tasks``.

    Each task runs through its own ``SerialBackend.run_tasks`` call, so
    the program's backend code path is the one users get; the wrapper
    records the latency of each unit and samples machine speed before it.
    """

    name = "timed-serial"

    def __init__(self, meter: SpeedMeter) -> None:
        self._inner = SerialBackend()
        self._meter = meter
        self.unit_s: list[float] = []
        self.unit_probe: list[int] = []  # index of the probe before each unit
        self.sims = 0

    def run_tasks(self, tasks: Sequence[Any]) -> list[Any]:
        out: list[Any] = []
        for task in tasks:
            self.unit_probe.append(self._meter.sample())
            t0 = time.perf_counter()
            out.extend(self._inner.run_tasks([task]))
            self.unit_s.append(time.perf_counter() - t0)
            self.sims += len(task.seeds)
        return out


class TimedSearch:
    """Duck-typed RA heuristic that times the search it delegates to."""

    def __init__(self, inner: Any, meter: SpeedMeter) -> None:
        self._inner = inner
        self._meter = meter
        self.name = inner.name
        self.seconds = 0.0
        self.probe = -1  # index of the probe taken before the search
        self.result: RAResult | None = None

    def allocate(self, evaluator: StageIEvaluator, *, backend: Any = None) -> RAResult:
        self.probe = self._meter.sample()
        t0 = time.perf_counter()
        self.result = self._inner.allocate(evaluator, backend=backend)
        self.seconds += time.perf_counter() - t0
        return self.result


def _hex(values: Sequence[float]) -> str:
    return ",".join(float(v).hex() for v in values)


def grid_digests(result: Any) -> dict[str, str]:
    """One digest per (case, technique, app) cell of replication makespans."""
    study = result.stage_ii
    return {
        f"{case}/{tech}/{app}": hashlib.sha256(
            _hex(study.raw[case][tech][app].makespans).encode()
        ).hexdigest()[:16]
        for case in study.case_ids
        for tech in study.technique_names
        for app in study.app_names
    }


def load_reference() -> dict[str, Any]:
    return json.loads(REFERENCE_PATH.read_text())


class Workload:
    """Base: set-up once, then passes; subclasses fill in the work."""

    name = "abstract"
    #: Expected traced self-time split, as shares of traced wall time.
    predicted_split: dict[str, str] = {}
    #: Operations one pass attempts (counted as failed if a pass raises).
    ops_per_pass = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Instance construction and warm-up (timed as ``setup_s``)."""

    def run_pass(self) -> tuple[PassResult, Any]:
        """One timed pass: its measurements and its raw output."""
        raise NotImplementedError

    def check(self, out: PassResult, raw: Any) -> None:
        """Output checks on one pass (untimed); record failures in ``out``."""

    def verify(self) -> PassResult | None:
        """An untimed extra check pass after the timed loop (optional)."""
        return None


# --------------------------------------------------------------------- CDSF


class _ScenarioWorkload(Workload):
    """Paper §IV scenario 4 (exhaustive stage I, robust DLS set, stage II)."""

    replications = 30
    faults: FaultPlan | None = None

    @property
    def ops_per_pass(self) -> int:  # type: ignore[override]
        cells = len(data.CASE_ORDER) * len(ROBUST_SET) * len(data.APPLICATIONS)
        return cells * self.replications + 1  # simulations + the search

    def _cdsf(self, seed: int, replications: int) -> Any:
        sim = PAPER_SIM_CONFIG
        if self.faults is not None:
            sim = dataclasses.replace(sim, faults=self.faults)
        return paper_cdsf(seed=seed, replications=replications, sim=sim)

    def setup(self) -> None:
        # Warm-up: one single-replication CDSF run touches every code
        # path of a pass (stage I, every case/technique/app cell).
        run_scenario(
            Scenario.ROBUST_IM_ROBUST_RAS,
            self._cdsf(self.seed, 1),
            paper_cases(),
            backend=SerialBackend(),
        )

    def run_pass(self) -> tuple[PassResult, Any]:
        return self._scenario_pass(self.seed)

    def _scenario_pass(self, seed: int) -> tuple[PassResult, Any]:
        meter = SpeedMeter()
        search = TimedSearch(ExhaustiveAllocator(), meter)
        backend = TimedBackend(meter)
        t0 = time.perf_counter()
        cdsf = self._cdsf(seed, self.replications)
        result = run_scenario(
            Scenario.ROBUST_IM_ROBUST_RAS,
            cdsf,
            paper_cases(),
            robust_heuristic=search,
            backend=backend,
        )
        meter.sample()
        wall = time.perf_counter() - t0 - meter.spent_s
        if search.result is None:
            raise RuntimeError("the stage-I search was never called")
        out = PassResult(
            wall_s=wall,
            stage_i_s=search.seconds,
            evaluations=search.result.evaluations,
            main_s=wall - search.seconds,
            unit_s=backend.unit_s,
            ops=backend.sims + 1,
            failed=0,
            speed=meter.speed(),
            stage_i_speed=meter.speed(search.probe, search.probe + 1),
            unit_speed=[meter.speed(k, k + 1) for k in backend.unit_probe],
            cache=cdsf.evaluator.cache_info(),
        )
        return out, result

    def check(self, out: PassResult, result: Any) -> None:
        """Stage-I result and grid checks shared by both CDSF workloads."""
        phi1 = result.robustness.rho1
        allocation = {
            app: (group.ptype.name, group.size)
            for app, group in result.allocation.items()
        }
        if round(phi1, 4) != 0.7447:
            out.problems.append(f"phi1 {phi1!r} != 0.7447")
            out.failed += 1
        elif allocation != data.TABLE_IV["robust"]:
            out.problems.append(f"allocation {allocation} != Table IV robust")
            out.failed += 1
        study = result.stage_ii
        for case in data.CASE_ORDER:
            for tech in ROBUST_SET:
                for app in data.APPLICATIONS:
                    reps = study.raw.get(case, {}).get(tech, {}).get(app)
                    makespans = reps.makespans if reps is not None else ()
                    good = sum(
                        1 for m in makespans if math.isfinite(m) and m > 0
                    )
                    if len(makespans) != self.replications:
                        good = 0
                    if good < self.replications:
                        out.failed += self.replications - good
                        out.problems.append(
                            f"{case}/{tech}/{app}: {self.replications - good} "
                            "makespans missing, non-finite or non-positive"
                        )


class PaperCDSF(_ScenarioWorkload):
    """The paper's headline result, end to end.

    ``run_scenario(ROBUST_IM_ROBUST_RAS, paper_cdsf(seed=...),
    paper_cases())``: exhaustive stage I, then {FAC, WF, AWF-B, AF} x 4
    availability cases x 3 applications x 30 replications (1440
    simulations, ~59k chunks). The study seed is the workload seed.

    Why: it produces the paper's result, and nearly all of its time is
    the stage-II kernel. A stage-II kernel gain (ROADMAP item 2) shows
    here; a PMF or RA change must show no change here.

    Checks: phi_1 = 0.7447 and the Table IV robust allocation on every
    seed; a complete grid of finite, positive makespans. At
    ``PAPER_SEED`` rho_2 = 30.89 % and every cell's replication makespans
    match ``reference.json`` bit for bit (stage II is deterministic, so a
    performance change that alters them fails). When the workload seed is
    another seed, one untimed ``PAPER_SEED`` pass is checked after the
    timed loop.
    """

    name = "paper-cdsf"
    predicted_split = {
        "sim+system+dls+apps": ">= 75 % (AvailabilityProcess.finish_times alone ~30-40 %)",
        "pmf+ra": "<= 10 % (stage I is one 153-candidate exhaustive search)",
        "faults": "0 (no fault plan)",
    }

    def check(self, out: PassResult, result: Any) -> None:
        super().check(out, result)
        if self.seed == PAPER_SEED:
            self._check_reference(result, out)

    def verify(self) -> PassResult | None:
        if self.seed == PAPER_SEED:
            return None  # every timed pass was already checked
        out, result = self._scenario_pass(PAPER_SEED)
        super().check(out, result)
        self._check_reference(result, out)
        return out

    def _check_reference(self, result: Any, out: PassResult) -> None:
        reference = load_reference()
        rho2 = round(result.robustness.rho2, 2)
        if rho2 != reference["rho2"]:
            out.problems.append(f"rho2 {rho2} != {reference['rho2']}")
            out.failed += 1
        ours = grid_digests(result)
        for cell, digest in reference["cells"].items():
            if ours.get(cell) != digest:
                out.failed += self.replications
                out.problems.append(f"{cell}: makespans differ from reference")


class ChaosSweep(_ScenarioWorkload):
    """The paper's robust allocation, stage II under chaos-mode faults.

    The same CDSF scenario as ``paper-cdsf`` with
    ``FaultPlan.chaos(1e-3)`` (crashes, blackouts, slowdowns) attached to
    the simulator, 30 replications per cell (1440 simulations). With 15
    replications each cell's cost hangs on a few fault draws, and the
    seed-to-seed spread of ``unit_ms.p90`` exceeded 20 %.

    Why: it runs the same sim/dls/system layers with the fault path on
    (``requeue``/``retire``, ``degraded_boundaries``, master failover). A
    fault-free fast path that forks the loop or slows the fault path
    (ROADMAP item 2, last bullet) shows up here as a regression.

    Checks, on every pass: the stage-I and grid checks of
    ``paper-cdsf``; every run's ``AppRunResult`` has
    ``iterations_executed == n_parallel`` (a hook on
    ``repro.sim.loopsim.simulate_application`` sees each result: one
    extra call per simulation, well under 0.1 % of a pass); and every
    pass's makespans equal the first pass's.
    """

    name = "chaos-sweep"
    predicted_split = {
        "sim+system+dls+apps": ">= 70 %",
        "faults": "a few % (crash_time per event, degraded_boundaries per chunk)",
        "faults.crashes": "> 0",
        "pmf+ra": "< 5 %",
    }
    faults = FaultPlan.chaos(1e-3)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._digests: dict[str, str] | None = None

    def run_pass(self) -> tuple[PassResult, Any]:
        import repro.sim.loopsim as loopsim

        runs: list[tuple[int, int, int]] = []
        simulate = loopsim.simulate_application

        def seeing(app: Any, *args: Any, **kwargs: Any) -> Any:
            run = simulate(app, *args, **kwargs)
            runs.append(
                (run.iterations_executed, app.n_parallel,
                 len(run.crashed_workers))
            )
            return run

        loopsim.simulate_application = seeing
        try:
            out, result = self._scenario_pass(self.seed)
        finally:
            loopsim.simulate_application = simulate
        return out, (result, runs)

    def check(self, out: PassResult, raw: Any) -> None:
        result, runs = raw
        super().check(out, result)
        lost = sum(1 for done, want, _ in runs if done != want)
        if lost:
            out.failed += lost
            out.problems.append(
                f"{lost} runs with iterations_executed != n_parallel"
            )
        digests = grid_digests(result)
        if self._digests is None:
            self._digests = digests
        elif digests != self._digests:
            out.failed += 1
            out.problems.append("chaos grid differs between identical passes")
        out.notes["crashes"] = sum(c for _, _, c in runs)
        out.notes["runs_seen"] = len(runs)


# ------------------------------------------------------------------ stage I


class _SharedPMFEvaluator(StageIEvaluator):
    """Evaluator whose completion PMFs come from a table shared across
    deadlines (PMFs do not depend on the deadline); set-up only."""

    def __init__(self, batch: Any, system: Any, deadline: float,
                 table: dict[tuple[str, str, int], Any]) -> None:
        super().__init__(batch, system, deadline)
        self._table = table

    def app_completion_pmf(self, app_name: str, group: Any) -> Any:
        key = (app_name, group.ptype.name, group.size)
        pmf = self._table.get(key)
        if pmf is None:
            pmf = self._table[key] = completion_pmf(
                self.batch.app(app_name),
                self.system.group(group.ptype.name, group.size),
            )
        return pmf


def calibrate_deadline(
    batch: Any, system: Any, seed: int, *, target: float = 0.4,
    tolerance: float = 0.1, rounds: int = 8,
) -> float:
    """A deadline at which the best stage-I phi_1 is well inside (0, 1).

    At loose deadlines every search saturates at phi_1 = 1.0 and the
    candidates tie, which would hide the evaluator's work. Start where
    the capacity-free upper bound ``prod_i max_type Pr(T_i <= D)`` equals
    ``target``, then iterate ``D <- quantile_target(Psi)`` of annealing's
    allocation (annealing is usually the strongest of the five searches
    on these instances) until annealing's phi_1 is within ``tolerance`` of
    ``target``; otherwise keep the closest deadline tried.
    """
    ideal = [
        [
            completion_pmf(
                app, system.group(t.name, 1 << (t.count.bit_length() - 1))
            )
            for t in system.types
        ]
        for app in batch
    ]

    def upper_bound(deadline: float) -> float:
        bound = 1.0
        for row in ideal:
            bound *= max(pmf.prob_leq(deadline) for pmf in row)
        return bound

    lo, hi = 1.0, 1e9
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if upper_bound(mid) < target else (lo, mid)
    deadline = hi
    table: dict[tuple[str, str, int], Any] = {}
    tried: list[tuple[float, float]] = []
    for _ in range(rounds):
        evaluator = _SharedPMFEvaluator(batch, system, deadline, table)
        found = AnnealingAllocator(rng=seed).allocate(evaluator)
        miss = abs(found.robustness - target)
        tried.append((miss, deadline))
        if miss <= tolerance:
            return deadline
        deadline = evaluator.makespan_pmf(found.allocation).quantile(target)
    return min(tried)[1]


class Stage1Search(Workload):
    """Stage I only, on a synthetic instance, five searches per pass.

    The instance is ``random_instance`` with 24 applications on 6
    processor types of 16 or 32 processors (~140 processors),
    iteration-time cv 0.5 and four availability levels, generated from
    the fixed ``INSTANCE_SEED`` so every run searches the same space; the
    workload seed drives the randomized searches (annealing, genetic).
    The deadline comes from :func:`calibrate_deadline` so the best phi_1
    lies inside (0.05, 0.95) and the searches do not tie at 1.0. Each
    pass runs greedy-robust, min-min, sufferage, simulated annealing and
    genetic, each against a *cold* ``StageIEvaluator``, plus
    ``makespan_pmf`` of each winner. A unit is one search with its
    ``makespan_pmf``.

    Why: ``pmf`` and ``ra`` do all the work and ``sim`` none. It mixes
    miss-heavy searches (greedy: ~800 PMF builds in ~1.2k evaluations)
    with hit-heavy ones (annealing: ~60k probability-cache hits on ~800
    misses), so a PMF-kernel change and a cache change show differently;
    a stage-II change must show nothing here. A fresh instance per seed
    would change the search work by +-20 % from seed to seed, more than
    any bound a regression check could use, hence the fixed instance.

    Checks: each search's phi_1 equals a recomputation on a fresh
    evaluator, and ``check_allocation_feasible`` passes.
    """

    name = "stage1-search"
    predicted_split = {
        "pmf+ra": ">= 75 %",
        "sim": "0 (sim.chunks = 0)",
        "faults": "0",
    }

    ops_per_pass = 5  # searches
    #: Seed of the synthetic instance (fixed; see the class docstring).
    INSTANCE_SEED = 2012

    spec = WorkloadSpec(
        n_apps=24, n_types=6, procs_per_type=(16, 32), cv=0.5,
        availability_levels=4,
    )

    def setup(self) -> None:
        self.system, self.batch = random_instance(
            self.spec, np.random.default_rng(self.INSTANCE_SEED)
        )
        self.deadline = calibrate_deadline(
            self.batch, self.system, self.INSTANCE_SEED
        )

    def searches(self) -> list[Callable[[], Any]]:
        seed = self.seed
        return [
            GreedyRobustAllocator,
            MinMinAllocator,
            SufferageAllocator,
            lambda: AnnealingAllocator(rng=seed),
            lambda: GeneticAllocator(rng=seed),
        ]

    def run_pass(self) -> tuple[PassResult, Any]:
        results: list[RAResult] = []
        cache = dict.fromkeys(_CACHE_KEYS, 0)
        unit_s: list[float] = []
        stage_i_s = 0.0
        backend = SerialBackend()
        meter = SpeedMeter()
        t0 = time.perf_counter()
        for make in self.searches():
            meter.sample()  # probe k precedes unit k; the last follows all
            heuristic = make()
            evaluator = StageIEvaluator(self.batch, self.system, self.deadline)
            u0 = time.perf_counter()
            found = heuristic.allocate(evaluator, backend=backend)
            u1 = time.perf_counter()
            evaluator.makespan_pmf(found.allocation)
            u2 = time.perf_counter()
            stage_i_s += u1 - u0
            unit_s.append(u2 - u0)
            for key, value in evaluator.cache_info().items():
                cache[key] += value
            results.append(found)
        meter.sample()
        wall = time.perf_counter() - t0 - meter.spent_s
        out = PassResult(
            wall_s=wall,
            stage_i_s=stage_i_s,
            evaluations=sum(r.evaluations for r in results),
            main_s=sum(unit_s),
            unit_s=unit_s,
            ops=len(results),
            failed=0,
            speed=meter.speed(),
            stage_i_speed=meter.speed(),
            unit_speed=[meter.speed(k, k + 1) for k in range(len(unit_s))],
            cache=cache,
        )
        return out, results

    def check(self, out: PassResult, results: Any) -> None:
        for found in results:
            fresh = StageIEvaluator(self.batch, self.system, self.deadline)
            again = fresh.robustness(found.allocation)
            problem = None
            if not math.isclose(again, found.robustness, rel_tol=1e-12):
                problem = f"phi1 {found.robustness!r} != recomputed {again!r}"
            try:
                check_allocation_feasible(
                    found.allocation, self.system, self.batch
                )
            except ContractViolation as exc:
                problem = str(exc)
            if problem is not None:
                out.failed += 1
                out.problems.append(f"{found.heuristic}: {problem}")
        out.notes["best_phi1"] = max(r.robustness for r in results)
        out.notes["phi1"] = {r.heuristic: r.robustness for r in results}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperCDSF, Stage1Search, ChaosSweep)
}


def write_reference() -> None:
    """Record the paper scenario's outputs at ``PAPER_SEED``.

    Run ``PYTHONPATH=src python3 cdsfbench/workloads.py`` only when a
    change is meant to alter stage-II results; a performance change must
    leave them as is.
    """
    workload = PaperCDSF(PAPER_SEED)
    _, result = workload.run_pass()
    REFERENCE_PATH.write_text(json.dumps({
        "seed": PAPER_SEED,
        "phi1": result.robustness.rho1,
        "rho2": round(result.robustness.rho2, 2),
        "cells": grid_digests(result),
    }, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_reference()
