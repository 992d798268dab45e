#!/usr/bin/env python3
"""Compare the full DLS technique family under controlled perturbations.

Motivating scenario from the DLS literature the paper builds on: one
application's parallel loop on 8 processors where some processors lose
availability mid-run. Non-adaptive techniques (STATIC, FSC, GSS, TSS, FAC,
WF) commit work to the slowed processors; the adaptive family (AWF-B/C/D/E,
AF) measures and re-balances.

The script sweeps three perturbation patterns and prints makespan, load
imbalance (c.o.v. of worker finish times), and the number of scheduling
events (chunks) for every technique.

Run:  python examples/dls_comparison.py
"""


from repro.apps import Application, normal_exectime_model
from repro.dls import ALL_TECHNIQUES, make_technique
from repro.reporting import render_table
from repro.sim import LoopSimConfig, replicate_application, simulate_application
from repro.system import (
    ConstantAvailability,
    HeterogeneousSystem,
    ProcessorType,
    TraceAvailability,
)

P = 8  # processors in the group


def perturbation_patterns() -> dict[str, list]:
    """Three availability realizations, one model per processor."""
    full = ConstantAvailability(1.0)
    return {
        # Two processors pinned at 30% for the whole run.
        "2 slow procs": [ConstantAvailability(0.3)] * 2 + [full] * (P - 2),
        # Half the machine drops to 25% availability at t = 300.
        "drop at t=300": [
            TraceAvailability(((300.0, 1.0), (10_000.0, 0.25)))
            for _ in range(P // 2)
        ]
        + [full] * (P - P // 2),
        # A flapping processor: alternates 100% / 20% every 150 time units.
        "flapping proc": [
            TraceAvailability(
                tuple(
                    (150.0, 1.0 if k % 2 == 0 else 0.2) for k in range(60)
                )
            )
        ]
        + [full] * (P - 1),
    }


def main() -> None:
    app = Application(
        "loop",
        n_serial=0,
        n_parallel=4096,
        exec_time=normal_exectime_model({"node": 8000.0}),
        iteration_cv=0.2,
    )
    system = HeterogeneousSystem([ProcessorType("node", P)])
    group = system.group("node", P)
    config = LoopSimConfig(overhead=1.0)

    for pattern_name, models in perturbation_patterns().items():
        rows = []
        for tech_name in sorted(ALL_TECHNIQUES):
            tech = make_technique(tech_name)
            stats = replicate_application(
                app, group, tech,
                replications=10, seed=42, config=config, availability=models,
            )
            one = simulate_application(
                app, group, tech, seed=42, config=config, availability=models
            )
            rows.append(
                (
                    tech_name,
                    stats.mean,
                    stats.std,
                    one.load_imbalance(),
                    one.n_chunks,
                )
            )
        rows.sort(key=lambda r: r[1])
        print(
            render_table(
                ["technique", "makespan (mean)", "std", "imbalance cov", "chunks"],
                rows,
                title=f"Perturbation: {pattern_name} "
                "(10 replications; sorted by makespan)",
                floatfmt=".2f",
            )
        )
        best, worst = rows[0], rows[-1]
        print(
            f"  best {best[0]} at {best[1]:.0f} vs worst {worst[0]} at "
            f"{worst[1]:.0f}  ({worst[1] / best[1]:.2f}x)\n"
        )


if __name__ == "__main__":
    main()
