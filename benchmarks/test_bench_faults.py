"""Benchmark: robustness degradation and simulator cost under fault injection.

Sweeps the chaos fault rate over the paper's scenario-4 study and reports
how the robustness tuple (rho1, rho2) degrades as workers crash, stall,
and slow down mid-loop, plus the wall-clock overhead the fault machinery
adds to the stage-II simulation (the zero-rate plan must be free).
"""

from collections import Counter
from dataclasses import replace

import pytest

import repro.faults.injector as injector
from repro.dls import SchedulingSession
from repro.faults import FaultPlan
from repro.framework import FaultImpact, Scenario, run_scenario
from repro.paper import PAPER_SIM_CONFIG, paper_cases, paper_cdsf
from repro.reporting import write_csv

SEED = 2012
REPLICATIONS = 2
RATES = (0.0, 1e-5, 1e-4, 5e-4)


def _run(rate: float):
    sim = PAPER_SIM_CONFIG
    if rate > 0.0:
        sim = replace(sim, faults=FaultPlan.chaos(rate, failover_delay=5.0))
    cdsf = paper_cdsf(replications=REPLICATIONS, seed=SEED, sim=sim)
    return run_scenario(Scenario.ROBUST_IM_ROBUST_RAS, cdsf, paper_cases())


@pytest.fixture(scope="module")
def baseline():
    return _run(0.0)


def test_bench_rho_under_fault_rates(benchmark, emit, baseline):
    results = benchmark.pedantic(
        lambda: {rate: _run(rate) for rate in RATES if rate > 0.0},
        rounds=1,
        iterations=1,
    )
    rows = [
        (
            "0 (baseline)",
            100.0 * baseline.robustness.rho1,
            baseline.robustness.rho2,
            0.0,
            0.0,
        )
    ]
    for rate in sorted(results):
        impact = FaultImpact(
            baseline=baseline.robustness, faulty=results[rate].robustness
        )
        rows.append(
            (
                f"{rate:g}",
                100.0 * impact.faulty.rho1,
                impact.faulty.rho2,
                impact.rho1_drop,
                impact.rho2_drop,
            )
        )
    emit(
        "faults_rho",
        "Robustness (rho1, rho2) vs chaos fault rate (scenario 4)",
        ["fault rate (/s)", "rho1 (%)", "rho2 (%)", "rho1 drop (pp)", "rho2 drop (pp)"],
        rows,
    )
    # Fault injection can never *improve* robustness.
    for _rate, rho1, rho2, drop1, drop2 in rows[1:]:
        assert rho1 <= 100.0 * baseline.robustness.rho1 + 1e-9
        assert drop1 >= -1e-9 and drop2 >= -1e-9
        assert 0.0 <= rho2 <= 100.0


def test_bench_zero_rate_plan_is_free(benchmark, emit, baseline):
    """An all-zero FaultPlan must take the exact baseline code path."""
    sim = replace(PAPER_SIM_CONFIG, faults=FaultPlan())
    cdsf = paper_cdsf(replications=REPLICATIONS, seed=SEED, sim=sim)
    result = benchmark.pedantic(
        lambda: run_scenario(Scenario.ROBUST_IM_ROBUST_RAS, cdsf, paper_cases()),
        rounds=1,
        iterations=1,
    )
    emit(
        "faults_zero_rate",
        "Zero-rate fault plan vs fault-free baseline (must be identical)",
        ["variant", "rho1 (%)", "rho2 (%)"],
        [
            ("fault-free", 100.0 * baseline.robustness.rho1, baseline.robustness.rho2),
            ("zero-rate plan", 100.0 * result.robustness.rho1, result.robustness.rho2),
        ],
    )
    assert result.robustness == baseline.robustness


def test_bench_faulted_makespans(benchmark, results_dir, monkeypatch):
    """Every replication makespan at the highest fault rate, in full.

    ``faults_rho.csv`` records rho2 only, which a changed fault path can
    leave in place; ``faults_makespans.csv`` holds each makespan's
    ``repr``, so CI's ``git diff`` sees any change to a faulted run. The
    run must exercise crashes, blackouts and slowdowns: a crash retires
    its worker, and a blackout or slowdown counts when its window meets
    the chunk it is applied to.
    """
    retired = []
    kinds = Counter()
    retire = SchedulingSession.retire
    apply_degradations = injector.apply_degradations

    def counting_retire(self, worker_id):
        retired.append(worker_id)
        return retire(self, worker_id)

    def counting_apply(start, boundaries, events):
        finish = float(boundaries[-1])
        kinds.update(e.kind for e in events if e.time < finish and e.end > start)
        return apply_degradations(start, boundaries, events)

    monkeypatch.setattr(SchedulingSession, "retire", counting_retire)
    monkeypatch.setattr(injector, "apply_degradations", counting_apply)
    raw = benchmark.pedantic(
        lambda: _run(max(RATES)), rounds=1, iterations=1
    ).stage_ii.raw
    write_csv(
        results_dir / "faults_makespans.csv",
        ["case", "technique", "app", "replication", "makespan"],
        [
            (case, tech, app, r, repr(makespan))
            for case, by_tech in raw.items()
            for tech, by_app in by_tech.items()
            for app, stats in by_app.items()
            for r, makespan in enumerate(stats.makespans)
        ],
    )
    assert retired, "no worker crashed"
    assert kinds["blackout"] > 0 and kinds["slowdown"] > 0, kinds
