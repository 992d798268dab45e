"""Ablation benchmark: runtime availability model interpretations.

The paper specifies availability as a PMF per processor type but not how it
unfolds over time at runtime. This ablation compares three defensible
readings on the key (case, technique, application) cells:

* ``resampled`` — the default: availability redrawn per processor every
  ``availability_interval`` time units (persistent-perturbation regime);
* ``quota`` — the PMF read as frequencies *across* processors: a
  deterministic largest-remainder share of processors pinned at each level;
* ``markov`` — exponential-sojourn Markov modulation with matching
  stationary distribution (temporal correlation, §V future work).

The CDSF's qualitative conclusions are expected to be stable across models;
absolute times differ — this bench quantifies by how much.
"""

import pytest

from repro.dls import make_technique
from repro.paper import PAPER_SIM_CONFIG, data, paper_batch, paper_cases
from repro.sim import replicate_application
from repro.system import (
    ConstantAvailability,
    MarkovAvailability,
    ResampledAvailability,
    quota_levels,
)

REPS = 20
CELLS = [
    ("case1", "app3", ("type2", 8), "STATIC"),
    ("case1", "app3", ("type2", 8), "FAC"),
    ("case4", "app3", ("type2", 8), "FAC"),
    ("case4", "app3", ("type2", 8), "AF"),
    ("case4", "app2", ("type1", 2), "AF"),
]


def _markov_from_pmf(pmf):
    """Markov modulation whose stationary law matches the PMF."""
    levels = tuple(float(v) for v in pmf.values)
    if len(levels) == 1:
        return MarkovAvailability(levels, (1_000.0,), ((1.0,),))
    sojourn = tuple(2_000.0 * float(p) for p in pmf.probs)
    n = len(levels)
    uniform = tuple(
        tuple(0.0 if i == j else 1.0 / (n - 1) for j in range(n))
        for i in range(n)
    )
    return MarkovAvailability(levels, sojourn, uniform)


def _models(kind, pmf, size):
    if kind == "resampled":
        return ResampledAvailability(
            pmf, interval=PAPER_SIM_CONFIG.availability_interval
        )
    if kind == "quota":
        return [ConstantAvailability(level) for level in quota_levels(pmf, size)]
    return _markov_from_pmf(pmf)


@pytest.fixture(scope="module")
def batch():
    return paper_batch()


@pytest.fixture(scope="module")
def cases():
    return paper_cases()


@pytest.mark.parametrize("kind", ["resampled", "quota", "markov"])
def test_bench_availability_model(benchmark, kind, batch, cases):
    case, app_name, (tname, size), tech = CELLS[2]  # the FAC/case4 cell
    pmf = cases[case].type(tname).availability
    group = cases[case].group(tname, size)

    def run():
        return replicate_application(
            batch.app(app_name),
            group,
            make_technique(tech),
            replications=5,
            seed=3,
            config=PAPER_SIM_CONFIG,
            availability=_models(kind, pmf, size),
        )

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats.mean > 0


def test_bench_availability_ablation_summary(benchmark, emit, batch, cases):
    rows = []
    for case, app_name, (tname, size), tech in CELLS:
        pmf = cases[case].type(tname).availability
        group = cases[case].group(tname, size)
        cell = []
        for kind in ("resampled", "quota", "markov"):
            stats = replicate_application(
                batch.app(app_name),
                group,
                make_technique(tech),
                replications=REPS,
                seed=11,
                config=PAPER_SIM_CONFIG,
                availability=_models(kind, pmf, size),
            )
            cell.append(stats.mean)
        rows.append((case, app_name, tech, *cell))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    emit(
        "ablation_availability",
        "Availability-model ablation (mean makespans, 20 reps)",
        ["case", "app", "technique", "resampled", "quota", "markov"],
        rows,
    )
    # Qualitative stability: app2/case4 violates the deadline under every
    # availability interpretation (the paper's hardest claim).
    app2_row = [r for r in rows if r[1] == "app2"][0]
    for value in app2_row[3:]:
        assert value > data.DEADLINE
