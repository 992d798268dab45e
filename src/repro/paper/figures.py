"""Regeneration of the paper's Figures 3-6 data series.

Each figure plots, per availability case and per application, the
application execution times under the scenario's scheduling policy:

* Figure 3 — scenario 1: naive IM, STATIC.
* Figure 4 — scenario 2: robust IM, STATIC.
* Figure 5 — scenario 3: naive IM, robust DLS {FAC, WF, AWF-B, AF}.
* Figure 6 — scenario 4: robust IM, robust DLS {FAC, WF, AWF-B, AF}.

A figure's data is a :class:`FigureSeries`: rows of ``(case, application,
technique, execution time, meets deadline)``, plus the stage-I expected
times (the ``T_i`` reference lines of the paper's plots).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exec import ExecutionBackend
from ..framework import CDSFResult, Scenario, run_scenario
from ..sim import LoopSimConfig
from .example import paper_cases, paper_cdsf

__all__ = ["FigureSeries", "figure_series", "FIGURE_SCENARIOS"]

#: Which scenario each paper figure shows.
FIGURE_SCENARIOS: dict[str, Scenario] = {
    "fig3": Scenario.NAIVE_IM_NAIVE_RAS,
    "fig4": Scenario.ROBUST_IM_NAIVE_RAS,
    "fig5": Scenario.NAIVE_IM_ROBUST_RAS,
    "fig6": Scenario.ROBUST_IM_ROBUST_RAS,
}


@dataclass(frozen=True)
class FigureSeries:
    """The data behind one paper figure."""

    figure: str
    scenario: Scenario
    deadline: float
    #: Stage-I expected completion times (the T_i of the figure captions).
    expected_times: dict[str, float]
    #: Rows: (case, application, technique, time, meets deadline).
    rows: tuple[tuple[str, str, str, float, bool], ...]
    result: CDSFResult

    def times(self, case: str, technique: str) -> dict[str, float]:
        """Per-application execution times of one (case, technique) group."""
        return {
            app: t
            for (c, app, tech, t, _ok) in self.rows
            if c == case and tech == technique
        }

    def any_violation(self, case: str) -> bool:
        """True if any (application, technique) cell violates the deadline."""
        return any(
            not ok for (c, _app, _tech, _t, ok) in self.rows if c == case
        )

    def all_apps_meet(self, case: str) -> bool:
        """True when every app has some technique meeting the deadline."""
        return self.result.stage_ii.case_tolerable(case)


def figure_series(
    figure: str,
    *,
    replications: int | None = None,
    statistic: str = "mean",
    seed: int | None = None,
    sim: LoopSimConfig | None = None,
    backend: ExecutionBackend | None = None,
) -> FigureSeries:
    """Regenerate one figure's data series by simulation.

    ``figure`` is one of ``fig3`` ... ``fig6``. ``sim`` overrides the
    paper's simulator configuration — e.g. to attach a
    :class:`~repro.faults.FaultPlan` and regenerate a figure under
    injected failures.
    """
    try:
        scenario = FIGURE_SCENARIOS[figure]
    except KeyError:
        raise ValueError(
            f"unknown figure {figure!r}; known: {sorted(FIGURE_SCENARIOS)}"
        ) from None
    kwargs = {"statistic": statistic}
    if replications is not None:
        kwargs["replications"] = replications
    if seed is not None:
        kwargs["seed"] = seed
    if sim is not None:
        kwargs["sim"] = sim
    cdsf = paper_cdsf(**kwargs)
    cases = paper_cases()
    result = run_scenario(scenario, cdsf, cases, backend=backend)
    return FigureSeries(
        figure=figure,
        scenario=scenario,
        deadline=result.stage_ii.config.deadline,
        expected_times=dict(result.stage_i_report.expected_times),
        rows=tuple(result.stage_ii.cells()),
        result=result,
    )
