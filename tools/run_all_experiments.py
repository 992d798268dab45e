#!/usr/bin/env python3
"""Regenerate every experiment artifact in one command.

Runs the benchmark harness (which prints measured-vs-paper tables and
archives CSVs under benchmarks/results/) and then writes an index of the
produced artifacts. Equivalent to:

    pytest benchmarks/ --benchmark-only

but with a summary of what landed where. Intended for release checklists.
"""

from __future__ import annotations

import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"

DESCRIPTIONS = {
    "table1": "Table I: availabilities + Eq. 1 weighted availability",
    "table2": "Table II: batch characteristics",
    "table3": "Table III: execution-time PMFs",
    "table4": "Table IV: naive vs robust initial mapping",
    "table5": "Table V: expected completion times",
    "table6": "Table VI: best DLS per application per case",
    "phi1": "phi_1 joint deadline probabilities",
    "rho": "(rho1, rho2) system robustness",
    "tolerability": "per-case tolerability",
    "fig3": "Figure 3 data series (scenario 1)",
    "fig4": "Figure 4 data series (scenario 2)",
    "fig5": "Figure 5 data series (scenario 3)",
    "fig6": "Figure 6 data series (scenario 4)",
    "scenarios": "scenario dominance summary",
    "ablation_ra": "RA heuristic ablation",
    "ablation_dls": "full DLS family ablation",
    "ablation_availability": "availability-model ablation",
    "scale": "larger-scale study",
    "simperf": "simulator performance scaling",
    "ext_deadline_curve": "phi1(deadline) sensitivity curve",
    "ext_analytic_tolerance": "analytic availability tolerance",
    "ext_correlation": "availability-correlation effect",
    "ext_timesteps": "AWF timestep adaptation",
    "ext_multibatch": "multi-batch stream",
    "ext_fepia": "FePIA robustness radii",
    "ext_pareto": "Pareto front of stage-I allocations (phi1, E[makespan], procs)",
    "ext_phi1_validation": "analytic vs simulated phi1",
    "faults_rho": "(rho1, rho2) vs chaos fault rate (scenario 4)",
    "faults_zero_rate": "zero-rate fault plan vs fault-free baseline",
    "faults_makespans": (
        "every replication makespan at the highest chaos fault rate "
        "(scenario 4)"
    ),
}


def main() -> int:
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        str(ROOT / "benchmarks"),
        "--benchmark-only",
        "-q",
    ]
    print("$", " ".join(cmd))
    proc = subprocess.run(cmd, cwd=ROOT)
    if proc.returncode != 0:
        print("benchmark harness FAILED", file=sys.stderr)
        return proc.returncode

    lines = [
        "# Regenerated experiment artifacts",
        "",
        f"Generated {datetime.now(timezone.utc).isoformat(timespec='seconds')} "
        "by tools/run_all_experiments.py.",
        "",
        "| file | artifact |",
        "|---|---|",
    ]
    for path in sorted(RESULTS.glob("*.csv")):
        desc = DESCRIPTIONS.get(path.stem, "")
        lines.append(f"| `{path.name}` | {desc} |")
    index = RESULTS / "README.md"
    index.write_text("\n".join(lines) + "\n")
    print(f"\nwrote {index}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
