"""Stage-II studies: DLS techniques x runtime availability cases.

A :class:`DLSStudy` runs every (application, DLS technique, availability
case) combination of a stage-I allocation through the simulator and
aggregates replication makespans. From the resulting grid it derives:

* the per-case, per-application execution times (the bars of the paper's
  Figures 3-6);
* the best deadline-satisfying technique per application per case (the
  paper's Table VI);
* which cases are *tolerable* — every application has at least one
  technique meeting the deadline — and hence ``rho_2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterator, Mapping, Sequence
from typing import Any

import numpy as np

from ..apps import Batch
from ..dls import DLSTechnique, make_technique
from ..errors import ModelError
from ..exec import ExecutionBackend, ReplicateTask, SeedTree, get_backend
from ..obs import incr, obs_enabled, span
from ..ra import Allocation
from ..rng import DEFAULT_SEED
from ..sim import LoopSimConfig, ReplicatedAppStats, replication_seeds
from ..system import HeterogeneousSystem
from .robustness import stage_ii_robustness

__all__ = ["StudyConfig", "StudyResult", "DLSStudy", "summary_statistic"]

#: The replication aggregates :func:`summary_statistic` accepts, by name.
_STATISTICS: dict[str, Callable[[np.ndarray], Any]] = {
    "mean": np.mean,
    "median": np.median,
    "max": np.max,
    "min": np.min,
    "p90": lambda arr: np.percentile(arr, 90),
}


def summary_statistic(values: Sequence[float], statistic: str = "mean") -> float:
    """Reduce replication makespans to one number.

    ``statistic``: ``"mean"``, ``"median"``, ``"max"``, ``"min"``, or
    ``"p90"`` (90th percentile). The experiment harness exposes this choice
    because the paper reports single per-case execution times whose exact
    aggregation is unspecified.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one value")
    if statistic not in _STATISTICS:
        raise ValueError(
            f"unknown statistic {statistic!r}; expected one of "
            f"{', '.join(_STATISTICS)}"
        )
    return float(_STATISTICS[statistic](arr))


@dataclass(frozen=True)
class StudyConfig:
    """Knobs of a stage-II study.

    ``statistic`` picks the replication aggregate reported as "the"
    execution time (see :func:`summary_statistic`).
    """

    deadline: float
    replications: int = 30
    statistic: str = "mean"
    seed: int | None = None
    sim: LoopSimConfig = field(default_factory=LoopSimConfig)

    def __post_init__(self) -> None:
        if not self.deadline > 0:
            raise ModelError(f"deadline must be positive, got {self.deadline}")
        if self.replications < 1:
            raise ModelError(
                f"replications must be >= 1, got {self.replications}"
            )
        if self.seed is not None and self.seed < 0:
            raise ModelError(f"seed must be >= 0, got {self.seed}")
        if self.statistic not in _STATISTICS:
            raise ModelError(
                f"statistic must be one of {', '.join(_STATISTICS)}, "
                f"got {self.statistic!r}"
            )


@dataclass(frozen=True)
class StudyResult:
    """Outcome grid of a stage-II study.

    ``stats[case][technique][app]`` holds the replication aggregate;
    ``raw[case][technique][app]`` the full per-replication statistics.
    """

    config: StudyConfig
    case_ids: tuple[str, ...]
    technique_names: tuple[str, ...]
    app_names: tuple[str, ...]
    stats: dict[str, dict[str, dict[str, float]]]
    raw: dict[str, dict[str, dict[str, ReplicatedAppStats]]]

    # ---------------------------------------------------------------- queries

    def time(self, case: str, technique: str, app: str) -> float:
        """The aggregated execution time of one grid cell."""
        try:
            return self.stats[case][technique][app]
        except KeyError:
            raise ModelError(
                f"no study cell for case={case!r}, technique={technique!r}, "
                f"app={app!r}"
            ) from None

    def meets_deadline(self, case: str, technique: str, app: str) -> bool:
        return self.time(case, technique, app) <= self.config.deadline

    def cells(self) -> Iterator[tuple[str, str, str, float, bool]]:
        """Every cell as ``(case, app, technique, time, meets deadline)``,
        in ``case_ids`` x ``app_names`` x ``technique_names`` order."""
        for case in self.case_ids:
            for app in self.app_names:
                for tech in self.technique_names:
                    t = self.time(case, tech, app)
                    yield case, app, tech, t, t <= self.config.deadline

    def best_technique(self, case: str, app: str) -> str | None:
        """Fastest technique meeting the deadline, or None (Table VI cell)."""
        best_name = None
        best_time = float("inf")
        for tech in self.technique_names:
            t = self.time(case, tech, app)
            if t <= self.config.deadline and t < best_time:
                best_name, best_time = tech, t
        return best_name

    def best_technique_table(self) -> dict[str, dict[str, str | None]]:
        """Table VI: ``{app: {case: best technique or None}}``."""
        return {
            app: {case: self.best_technique(case, app) for case in self.case_ids}
            for app in self.app_names
        }

    def best_techniques(
        self, case: str, app: str, *, confidence: float = 0.95
    ) -> tuple[str, ...]:
        """All deadline-meeting techniques statistically tied with the best.

        A technique is *tied* when its mean-makespan confidence interval
        overlaps the best technique's. On single-type groups FAC and WF are
        exactly tied by construction (equal weights), and AWF-B usually
        joins them — this set is the honest version of a Table-VI cell.
        Empty when no technique meets the deadline.
        """
        best = self.best_technique(case, app)
        if best is None:
            return ()
        best_lo, best_hi = self.raw[case][best][app].mean_ci(confidence)
        tied = []
        for tech in self.technique_names:
            if not self.meets_deadline(case, tech, app):
                continue
            lo, hi = self.raw[case][tech][app].mean_ci(confidence)
            if lo <= best_hi and best_lo <= hi:  # intervals overlap
                tied.append(tech)
        return tuple(tied)

    def case_tolerable(self, case: str) -> bool:
        """True when every application has a deadline-meeting technique."""
        return all(
            self.best_technique(case, app) is not None for app in self.app_names
        )

    def tolerable_cases(self) -> dict[str, bool]:
        return {case: self.case_tolerable(case) for case in self.case_ids}

    def violations(self, case: str, technique: str) -> list[str]:
        """Applications violating the deadline for one (case, technique)."""
        return [
            app
            for app in self.app_names
            if not self.meets_deadline(case, technique, app)
        ]


class DLSStudy:
    """Runs the stage-II grid for a fixed batch and allocation."""

    def __init__(
        self,
        batch: Batch,
        allocation: Allocation,
        config: StudyConfig,
    ) -> None:
        self._batch = batch
        self._allocation = allocation
        self._config = config

    def run(
        self,
        cases: Mapping[str, HeterogeneousSystem],
        techniques: Sequence[str | DLSTechnique],
        *,
        backend: ExecutionBackend | None = None,
    ) -> StudyResult:
        """Simulate every (case, technique, application) cell.

        ``cases`` maps case identifiers to systems carrying that case's
        *runtime* availability PMFs (same structure as the stage-I system).
        ``techniques`` are technique names or instances. ``backend``
        defaults to :func:`repro.exec.get_backend` (``REPRO_WORKERS``
        selects a process pool); each case's cells are submitted as one
        batch of :class:`~repro.exec.tasks.ReplicateTask` descriptions,
        and since every cell carries pre-derived seeds the grid is
        bit-for-bit identical on every backend.

        Cell seeds are derived from the technique-*invariant* tree path
        ``("cell", case, app)``: all techniques see the same availability
        realizations per (case, app) — the paper's common-random-numbers
        comparison — while different cases and apps draw independently.
        """
        if not cases:
            raise ModelError("a study needs at least one availability case")
        tech_objs: list[DLSTechnique] = [
            make_technique(t) if isinstance(t, str) else t for t in techniques
        ]
        if not tech_objs:
            raise ModelError("a study needs at least one DLS technique")
        if backend is None:
            backend = get_backend()
        config = self._config
        stats: dict[str, dict[str, dict[str, float]]] = {}
        raw: dict[str, dict[str, dict[str, ReplicatedAppStats]]] = {}
        tree = SeedTree(
            config.seed if config.seed is not None else DEFAULT_SEED
        )
        for case_id, case_system in cases.items():
            stats[case_id] = {t.name: {} for t in tech_objs}
            raw[case_id] = {t.name: {} for t in tech_objs}
            with span("study.case", case=case_id):
                tasks: list[ReplicateTask] = []
                for tech in tech_objs:
                    for app in self._batch:
                        group = self._allocation.group(app.name)
                        # The runtime group carries the *case* availability.
                        runtime_group = case_system.group(
                            group.ptype.name, group.size
                        )
                        cell_seed = tree.child(
                            "cell", case_id, app.name
                        ).seed()
                        tasks.append(
                            ReplicateTask(
                                app=app,
                                group=runtime_group,
                                technique=tech,
                                seeds=replication_seeds(
                                    cell_seed, config.replications
                                ),
                                config=config.sim,
                                tag=(case_id, tech.name, app.name),
                            )
                        )
                for task, makespans in zip(tasks, backend.run_tasks(tasks)):
                    _, tech_name, app_name = task.tag
                    reps = ReplicatedAppStats(
                        app_name=app_name,
                        technique=tech_name,
                        makespans=tuple(makespans),
                    )
                    raw[case_id][tech_name][app_name] = reps
                    stats[case_id][tech_name][app_name] = summary_statistic(
                        reps.makespans, config.statistic
                    )
                    if obs_enabled():
                        incr("study.cells")
        return StudyResult(
            config=config,
            case_ids=tuple(cases),
            technique_names=tuple(t.name for t in tech_objs),
            app_names=tuple(self._batch.names),
            stats=stats,
            raw=raw,
        )

    def rho2(
        self,
        result: StudyResult,
        reference: HeterogeneousSystem,
        cases: Mapping[str, HeterogeneousSystem],
    ) -> float:
        """Stage-II robustness of a completed study."""
        return stage_ii_robustness(reference, cases, result.tolerable_cases())
