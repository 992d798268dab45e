#!/usr/bin/env python3
"""Regenerate the paper's §IV example end to end.

Reproduces Tables I, IV, V, VI, the phi_1 values, the Figure 3-6 data
series, and the robustness tuple (rho_1, rho_2), printing measured values
next to the paper's reported ones.

Run:  python examples/paper_example.py [--replications N]
(The full benchmark harness in benchmarks/ does the same with archiving
and shape assertions; this script is the human-readable tour.)
"""

import argparse

from repro.framework import CDSFResult, Scenario, run_scenario
from repro.paper import (
    compute_allocations,
    data,
    paper_cases,
    paper_cdsf,
    phi1_values,
    table_i_rows,
    table_iv_rows,
    table_v_rows,
)
from repro.reporting import render_table


def show_table_i() -> None:
    rows = [
        (case, t, avail, weighted, decrease)
        for case, t, avail, weighted, decrease in table_i_rows()
    ]
    print(
        render_table(
            ["case", "type", "E[avail] %", "weighted %", "decrease vs case1 %"],
            rows,
            title="Table I: processor availabilities (computed from the PMFs)",
        )
    )
    print()


def show_stage_one() -> None:
    evaluator, allocations = compute_allocations()
    print(
        render_table(
            ["RA policy", "application", "type", "# processors"],
            table_iv_rows(allocations),
            title="Table IV: naive vs robust initial mapping",
        )
    )
    print()
    print(
        render_table(
            ["RA policy", "application", "T^exp (measured)", "T^exp (paper)"],
            [
                (policy, app, t, data.TABLE_V[policy][app])
                for policy, app, t in table_v_rows(evaluator, allocations)
            ],
            title="Table V: expected completion times",
        )
    )
    print()
    values = phi1_values(evaluator, allocations)
    print(
        render_table(
            ["RA policy", "phi_1 % (measured)", "phi_1 % (paper)"],
            [(p, values[p], data.PHI1[p]) for p in ("naive", "robust")],
            title="phi_1 = Pr(Psi <= Delta)",
        )
    )
    print()


def show_scenario(scenario: Scenario, label: str, replications: int) -> CDSFResult:
    result = run_scenario(
        scenario, paper_cdsf(replications=replications), paper_cases()
    )
    study = result.stage_ii
    rows = []
    for case in study.case_ids:
        for app in study.app_names:
            times = [study.time(case, tech, app) for tech in study.technique_names]
            best = study.best_technique(case, app)
            rows.append(
                (
                    case,
                    app,
                    *(f"{t:.0f}{'' if t <= data.DEADLINE else '!'}" for t in times),
                    best or "-",
                )
            )
    print(
        render_table(
            ["case", "app", *study.technique_names, "best"],
            rows,
            title=f"{label} (Delta = {data.DEADLINE:g}; '!' = deadline violated)",
        )
    )
    tolerable = study.tolerable_cases()
    print(
        f"  tolerable cases: "
        f"{', '.join(c for c, ok in tolerable.items() if ok) or 'none'}"
        f"  |  (rho1, rho2) = ({result.robustness.rho1:.1%}, "
        f"{result.robustness.rho2:.2f}%)"
    )
    print()
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replications", type=int, default=15)
    args = parser.parse_args()

    show_table_i()
    show_stage_one()
    show_scenario(
        Scenario.NAIVE_IM_NAIVE_RAS, "Figure 3 / scenario 1: naive IM + STATIC",
        args.replications,
    )
    show_scenario(
        Scenario.ROBUST_IM_NAIVE_RAS, "Figure 4 / scenario 2: robust IM + STATIC",
        args.replications,
    )
    show_scenario(
        Scenario.NAIVE_IM_ROBUST_RAS, "Figure 5 / scenario 3: naive IM + robust DLS",
        args.replications,
    )

    result = show_scenario(
        Scenario.ROBUST_IM_ROBUST_RAS,
        "Figure 6 / scenario 4: robust IM + robust DLS (the CDSF)",
        args.replications,
    )
    print(
        render_table(
            ["application", *data.CASE_ORDER],
            [
                (
                    app,
                    *(
                        (result.stage_ii.best_technique(case, app) or "-")
                        for case in data.CASE_ORDER
                    ),
                )
                for app in result.stage_ii.app_names
            ],
            title="Table VI: best deadline-meeting DLS technique "
            "(paper: WF/AF pattern; FAC == WF on single-type groups)",
        )
    )
    print(
        f"\nSystem robustness: measured (rho1, rho2) = "
        f"({100 * result.robustness.rho1:.1f}%, {result.robustness.rho2:.2f}%)"
        f"  |  paper: ({data.RHO[0]}%, {data.RHO[1]}%)"
    )


if __name__ == "__main__":
    main()
