"""Parity between sampled (paper-literal) and discretized PMF construction.

The paper generated its execution-time PMFs "by sampling a normal
distribution"; this library defaults to a deterministic discretization.
These tests confirm the choice is immaterial: rebuilding the paper's
stage-I pipeline with Monte-Carlo-sampled PMFs reproduces Table IV's
allocations and the paper's probabilities within sampling tolerance.

Sampling can move one tie-break, but not φ₁. When a draw puts app1's
probability of meeting the deadline at exactly 1.0 with one type1
processor, one and two processors tie, and the exhaustive search keeps the
tie it enumerates first: one processor, not Table IV's two. So the tests
assert what holds for every draw: Table IV's robust allocation scores the
sampled optimum's φ₁. ``TIE_DRAW`` pins one such draw.

Each draw seeds its six PMFs with :func:`repro.exec.derive_seed`, which
gives the same seed in every process (a string ``hash`` is salted per
process).
"""

import functools

import pytest

from repro.apps import Application, Batch, ExecutionTimeModel
from repro.exec import derive_seed
from repro.paper import data, paper_system
from repro.pmf import sampled_normal
from repro.ra import (
    Allocation,
    EqualShareAllocator,
    ExhaustiveAllocator,
    StageIEvaluator,
)
from repro.system import ProcessorGroup

#: Roots of the ``derive_seed`` draws.
ROOTS = range(5)

#: A draw on which app1 scores 1.0 with one and with two type1 processors,
#: so the exhaustive search returns one processor for app1; φ₁ is
#: 0.7445313862500013 for both allocations.
TIE_DRAW = {
    ("app1", "type1"): 765149187,
    ("app1", "type2"): 124869174,
    ("app2", "type1"): 1908755293,
    ("app2", "type2"): 1268475280,
    ("app3", "type1"): 374024385,
    ("app3", "type2"): 1980566907,
}


def _seeds(draw):
    if draw == "tie":
        return TIE_DRAW
    return {
        (name, type_name): derive_seed(draw, name, type_name) % (2**31)
        for name, means in data.MEAN_EXEC_TIMES.items()
        for type_name in means
    }


def _table(allocation: Allocation) -> dict[str, tuple[str, int]]:
    return {app: (g.ptype.name, g.size) for app, g in allocation.items()}


class Draw:
    """Stage I on one sampled batch: evaluator and both allocations."""

    def __init__(self, seeds: dict[tuple[str, str], int]) -> None:
        apps = []
        for name, spec in data.APPLICATIONS.items():
            pmfs = {
                type_name: sampled_normal(
                    mu,
                    data.EXEC_TIME_CV * mu,
                    n_samples=20_000,
                    bins=300,
                    rng=seeds[name, type_name],
                )
                for type_name, mu in data.MEAN_EXEC_TIMES[name].items()
            }
            apps.append(
                Application(
                    name=name,
                    n_serial=int(spec["serial"]),
                    n_parallel=int(spec["parallel"]),
                    exec_time=ExecutionTimeModel(pmfs),
                )
            )
        system = paper_system("case1")
        self.evaluator = StageIEvaluator(Batch(apps), system, data.DEADLINE)
        self.naive = EqualShareAllocator().allocate(self.evaluator)
        self.robust = ExhaustiveAllocator().allocate(self.evaluator)
        self.table_iv_robust = Allocation(
            {
                app: ProcessorGroup(system.type(type_name), size)
                for app, (type_name, size) in data.TABLE_IV["robust"].items()
            },
            system=system,
        )


@functools.cache
def sampled_draw(draw) -> Draw:
    return Draw(_seeds(draw))


@pytest.fixture(params=[*ROOTS, "tie"], ids=lambda d: f"draw-{d}")
def draw(request) -> Draw:
    return sampled_draw(request.param)


class TestSampledParity:
    def test_naive_allocation_is_table_iv(self, draw):
        assert _table(draw.naive.allocation) == data.TABLE_IV["naive"]

    def test_table_iv_robust_allocation_is_optimal(self, draw):
        phi1 = draw.evaluator.robustness(draw.table_iv_robust)
        assert phi1 == pytest.approx(draw.robust.robustness, rel=1e-12)

    def test_phi1_within_sampling_tolerance(self, draw):
        assert 100 * draw.naive.robustness == pytest.approx(
            data.PHI1["naive"], abs=1.5
        )
        assert 100 * draw.robust.robustness == pytest.approx(
            data.PHI1["robust"], abs=1.5
        )

    def test_table_v_within_sampling_tolerance(self, draw):
        report = draw.evaluator.report(draw.table_iv_robust)
        for app, expected in data.TABLE_V["robust"].items():
            assert report.expected_times[app] == pytest.approx(
                expected, rel=0.01
            ), app

    def test_tie_draw_moves_the_tie_break(self):
        # Pins what TIE_DRAW stands for, so a change to the sampler that
        # loses the tie shows here rather than silently weakening the draw.
        tie = sampled_draw("tie")
        assert _table(tie.robust.allocation)["app1"] == ("type1", 1)
        assert _table(tie.robust.allocation) != data.TABLE_IV["robust"]
        assert tie.robust.robustness == pytest.approx(0.7445313862500013, rel=1e-12)
