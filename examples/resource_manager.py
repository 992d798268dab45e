#!/usr/bin/env python3
"""A complete resource manager built from the library's pieces.

The end-to-end story a CDSF deployment would run, composing everything:

1. **Map** — run a stage-I heuristic (greedy robust initial mapping).
2. **Assess** — analytic deadline/availability sensitivity and FePIA
   robustness radii for the chosen mapping.
3. **Execute** — a multi-batch arrival stream through consecutive CDSF
   rounds (`repro.framework.multibatch`), with AF as the stage-II
   technique.

Run:  python examples/resource_manager.py
"""

import numpy as np

from repro.apps import WorkloadSpec, random_instance
from repro.framework import (
    MultiBatchScheduler,
    analytic_tolerance,
    robustness_radii,
)
from repro.ra import HEURISTICS, StageIEvaluator
from repro.reporting import render_table
from repro.sim import LoopSimConfig

#: The stage-I heuristic and stage-II technique this manager runs.
HEURISTIC = "greedy-robust"
TECHNIQUE = "AF"


def main() -> None:
    # The workload: 8 applications on a 3-type system.
    spec = WorkloadSpec(
        n_apps=8,
        n_types=3,
        procs_per_type=(4, 16),
        parallel_iterations_range=(512, 2048),
    )
    system, batch = random_instance(spec, 99)
    sim = LoopSimConfig(overhead=1.0, availability_interval=1000.0)

    # Deadline: 40% slack over a greedy probe.
    probe = StageIEvaluator(batch, system, 1e12)
    greedy = HEURISTICS[HEURISTIC]().allocate(probe)
    deadline = 1.4 * max(probe.report(greedy.allocation).expected_times.values())

    # 1. Map.
    evaluator = StageIEvaluator(batch, system, deadline)
    stage_i = HEURISTICS[HEURISTIC]().allocate(evaluator)
    print(
        f"[map]    {stage_i.heuristic}: phi_1 = {stage_i.robustness:.1%} "
        f"({stage_i.evaluations} evaluations)"
    )

    # 2. Assess.
    tolerance = analytic_tolerance(
        batch, system, stage_i.allocation, deadline, target=0.5
    )
    radii = robustness_radii(batch, system, stage_i.allocation, deadline)
    print(
        f"\n[assess] analytic tolerance (phi_1 >= 50%): {tolerance:.1f}% "
        f"uniform availability decrease"
    )
    print(
        "         FePIA radii: "
        + ", ".join(f"{t}: {r:.1f}%" for t, r in radii.per_type.items())
        + f"; uniform: {radii.uniform:.1f}%"
    )

    # 3. Execute a stream: the same batch arriving twice more over time.
    arrivals = []
    t = 0.0
    for round_idx in range(3):
        for app in batch:
            clone = type(app)(
                name=f"{app.name}-r{round_idx}",
                n_serial=app.n_serial,
                n_parallel=app.n_parallel,
                exec_time=app.exec_time,
                serial_fraction=app.serial_fraction,
                iteration_cv=app.iteration_cv,
            )
            arrivals.append((t, clone))
        t += deadline / 2  # next wave arrives before the previous finishes

    scheduler = MultiBatchScheduler(
        system,
        HEURISTICS[HEURISTIC](),
        TECHNIQUE,
        deadline=deadline,
        sim=sim,
        seed=6,
    )
    result = scheduler.run(arrivals, batch_size=len(batch))
    print(
        "\n[run]    "
        + render_table(
            ["batch", "start", "makespan", "phi1 %", "met deadline"],
            [
                (
                    o.index,
                    o.start_time,
                    o.makespan,
                    100 * o.robustness,
                    o.makespan <= deadline,
                )
                for o in result.outcomes
            ],
        ).replace("\n", "\n         ")
    )
    responses = [result.response_time(name) for name in result.arrival_times]
    print(
        f"\n         stream makespan {result.total_makespan:.0f}; mean "
        f"response {np.mean(responses):.0f}; worst {np.max(responses):.0f}"
    )


if __name__ == "__main__":
    main()
