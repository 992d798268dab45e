"""Markdown run reports and run-to-run comparisons.

The analysis endpoint of the run store: ``repro report <run>`` renders
one recorded run (configuration, results, robustness, worker-timeline
statistics, top spans by self-time, fault summary) and ``repro compare
<runA> <runB>`` diffs two runs (metric deltas, per-technique makespan
changes, :class:`~repro.framework.robustness.FaultImpact`-style rho
drops). Both return plain markdown strings — the CLI prints them, the CI
smoke job uploads them as artifacts. :func:`span_self_times` folds a
trace's spans into per-name self-times for the report's "Top spans by
self-time" section. :func:`format_observability` renders the
``--metrics`` summary of a live session's metrics snapshot.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from ..reporting.tables import render_markdown_table, render_table
from .runs import RunRecord
from .timeline import AppTimeline, timelines_from_records

__all__ = [
    "SpanAggregate",
    "span_self_times",
    "render_run_report",
    "render_run_comparison",
    "format_observability",
]


# ---------------------------------------------------------- span self times


@dataclass(frozen=True)
class SpanAggregate:
    """All spans of one name folded together (profile-style)."""

    name: str
    count: int
    total: float  # wall-clock seconds, summed over instances
    self_time: float  # total minus time attributed to direct children

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def _closed_spans(
    records: Sequence[Mapping[str, object]],
) -> tuple[dict[object, float], dict[object, str], dict[object, object]]:
    """Durations, names, and parents of every closed span record."""
    durations: dict[object, float] = {}
    names: dict[object, str] = {}
    parents: dict[object, object] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        duration = record.get("duration")
        if not isinstance(duration, (int, float)):
            continue
        span_id = record.get("id")
        durations[span_id] = float(duration)
        names[span_id] = str(record.get("name"))
        parents[span_id] = record.get("parent")
    return durations, names, parents


def _self_times(
    durations: Mapping[object, float], parents: Mapping[object, object]
) -> dict[object, float]:
    """Per-span self time: duration minus direct children's durations."""
    child_time: dict[object, float] = {}
    for span_id, duration in durations.items():
        parent = parents.get(span_id)
        if parent in durations:
            child_time[parent] = child_time.get(parent, 0.0) + duration
    return {
        span_id: max(0.0, duration - child_time.get(span_id, 0.0))
        for span_id, duration in durations.items()
    }


def span_self_times(
    records: Sequence[Mapping[str, object]],
) -> list[SpanAggregate]:
    """Aggregate span records by name, most self-time first.

    Self-time of a span is its duration minus the summed durations of
    its *direct* children — the classic profile decomposition, so the
    self-time column sums (approximately) to the root span's duration.
    Open spans (no ``end``) are skipped. Adopted worker spans participate
    like any other: their parent links survive
    :meth:`~repro.obs.spans.Tracer.adopt_records`, so a worker-side
    subtree subtracts from its graft parent exactly once.
    """
    durations, names, parents = _closed_spans(records)
    selfs = _self_times(durations, parents)
    totals: dict[str, SpanAggregate] = {}
    for span_id, duration in durations.items():
        name = names[span_id]
        prev = totals.get(name)
        if prev is None:
            totals[name] = SpanAggregate(name, 1, duration, selfs[span_id])
        else:
            totals[name] = SpanAggregate(
                name,
                prev.count + 1,
                prev.total + duration,
                prev.self_time + selfs[span_id],
            )
    return sorted(totals.values(), key=lambda a: (-a.self_time, a.name))


# ----------------------------------------------------------- report pieces

#: Float format of every markdown table in a report or comparison.
_FLOATFMT = ".4g"


_MANIFEST_FIELDS = (
    "command",
    "argv",
    "scenario",
    "figure",
    "seed",
    "replications",
    "statistic",
    "workers",
    "faults",
    "fault_rate",
    "repro_version",
    "started",
    "wall_seconds",
    "exit_code",
)


def _manifest_cell(value: object) -> object:
    return " ".join(str(v) for v in value) if isinstance(value, list) else value


def _config_section(run: RunRecord) -> str:
    rows: list[tuple[str, object]] = []
    for key in _MANIFEST_FIELDS:
        if key in run.manifest:
            rows.append((key, _manifest_cell(run.manifest[key])))
    if not rows:
        return "_(empty manifest)_"
    return render_markdown_table(["field", "value"], rows, floatfmt=_FLOATFMT)


def _technique_rows(
    cells: Sequence[Mapping[str, object]],
) -> list[tuple[str, float, float, str]]:
    """Per-technique summary of a results table's ``cells`` list."""
    by_tech: dict[str, list[Mapping[str, object]]] = {}
    for cell in cells:
        by_tech.setdefault(str(cell.get("technique")), []).append(cell)
    rows: list[tuple[str, float, float, str]] = []
    for tech, group in sorted(by_tech.items()):
        times = [float(c.get("time", 0.0)) for c in group]  # type: ignore[arg-type]
        met = sum(1 for c in group if c.get("meets_deadline"))
        rows.append(
            (
                tech,
                sum(times) / len(times),
                max(times),
                f"{met}/{len(group)}",
            )
        )
    return rows


def _robustness_line(payload: Mapping[str, object]) -> str | None:
    rob = payload.get("robustness")
    if not isinstance(rob, Mapping):
        return None
    rho1 = float(rob.get("rho1", 0.0))  # type: ignore[arg-type]
    rho2 = float(rob.get("rho2", 0.0))  # type: ignore[arg-type]
    return f"(rho1, rho2) = ({rho1:.2%}, {rho2:.2f}%)"


def _results_section(run: RunRecord) -> list[str]:
    parts: list[str] = []
    for name, payload in sorted(run.results().items()):
        if not isinstance(payload, Mapping):
            continue
        parts.append(f"### {name}")
        line = _robustness_line(payload)
        if line is not None:
            parts.append(line)
        cells = payload.get("cells")
        if isinstance(cells, list) and cells:
            parts.append(
                render_markdown_table(
                    ["technique", "mean time", "worst time", "meets deadline"],
                    _technique_rows(cells),
                    floatfmt=_FLOATFMT,
                )
            )
        impact = payload.get("fault_impact")
        if isinstance(impact, Mapping):
            parts.append(
                "Fault impact vs fault-free baseline: "
                f"rho1 drop {100 * float(impact.get('rho1_drop', 0.0)):.2f} pp, "  # type: ignore[arg-type]
                f"rho2 drop {float(impact.get('rho2_drop', 0.0)):.2f} pp"  # type: ignore[arg-type]
            )
    return parts


def _timeline_section(timelines: Sequence[AppTimeline]) -> str:
    if not timelines:
        return (
            "_(no worker timelines: the run was traced without simulator "
            "chunk events)_"
        )
    by_tech: dict[str, list[AppTimeline]] = {}
    for timeline in timelines:
        by_tech.setdefault(timeline.technique, []).append(timeline)
    rows: list[tuple[object, ...]] = []
    for tech, group in sorted(by_tech.items()):
        stats = [t.stats() for t in group]
        n = len(stats)
        rows.append(
            (
                tech,
                n,
                sum(s.makespan for s in stats) / n,
                sum(s.load_imbalance for s in stats) / n,
                sum(s.utilization for s in stats) / n,
                sum(s.n_chunks for s in stats),
                sum(s.crashes for s in stats),
                sum(s.requeued for s in stats),
            )
        )
    return render_markdown_table(
        [
            "technique",
            "runs",
            "mean makespan",
            "mean imbalance",
            "mean utilization",
            "chunks",
            "crashes",
            "requeued it.",
        ],
        rows,
        floatfmt=_FLOATFMT,
    )


def _spans_section(
    records: Sequence[Mapping[str, object]], *, top: int = 10
) -> str:
    aggregates = span_self_times(records)
    if not aggregates:
        return "_(no spans recorded)_"
    rows = [
        (a.name, a.count, a.total, a.self_time)
        for a in aggregates[:top]
    ]
    return render_markdown_table(
        ["span", "count", "total s", "self s"], rows, floatfmt=_FLOATFMT
    )


def _fault_section(
    run: RunRecord, timelines: Sequence[AppTimeline]
) -> str | None:
    plan = run.manifest.get("fault_plan")
    crashes = sum(t.stats().crashes for t in timelines)
    requeued = sum(t.stats().requeued for t in timelines)
    if plan is None and crashes == 0 and requeued == 0:
        return None
    lines: list[str] = []
    if isinstance(plan, Mapping):
        knobs = ", ".join(
            f"{key}={plan[key]}"
            for key in (
                "crash_rate",
                "blackout_rate",
                "slowdown_rate",
                "failover_delay",
            )
            if key in plan
        )
        lines.append(f"Fault plan: {knobs or plan}")
    lines.append(
        f"Observed across timelines: {crashes} worker crash(es), "
        f"{requeued} iteration(s) requeued."
    )
    return "\n\n".join(lines)


def render_run_report(run: RunRecord) -> str:
    """One recorded run as a self-contained markdown report."""
    records = run.trace_records()
    timelines = timelines_from_records(records)
    parts: list[str] = [f"# repro run `{run.run_id}`", _config_section(run)]
    results = _results_section(run)
    if results:
        parts.append("## Results")
        parts.extend(results)
    parts.append("## Worker timelines")
    parts.append(_timeline_section(timelines))
    parts.append("## Top spans by self-time")
    parts.append(_spans_section(records))
    faults = _fault_section(run, timelines)
    if faults is not None:
        parts.append("## Faults")
        parts.append(faults)
    return "\n\n".join(parts) + "\n"


# --------------------------------------------------------------- comparison


def _counters(run: RunRecord) -> dict[str, float]:
    metrics = run.metrics()
    counters = metrics.get("counters")
    if not isinstance(counters, Mapping):
        return {}
    return {
        str(name): float(value)  # type: ignore[arg-type]
        for name, value in counters.items()
        if isinstance(value, (int, float))
    }


def _mean_times_by_technique(run: RunRecord) -> dict[str, float]:
    out: dict[str, float] = {}
    for payload in run.results().values():
        if not isinstance(payload, Mapping):
            continue
        cells = payload.get("cells")
        if isinstance(cells, list) and cells:
            for tech, mean, _worst, _met in _technique_rows(cells):
                out[tech] = mean
    return out


def _run_robustness(run: RunRecord) -> Mapping[str, object] | None:
    for _, payload in sorted(run.results().items()):
        if isinstance(payload, Mapping) and isinstance(
            payload.get("robustness"), Mapping
        ):
            rob = payload["robustness"]
            assert isinstance(rob, Mapping)
            return rob
    return None


def render_run_comparison(
    a: RunRecord, b: RunRecord, *, top_counters: int = 12
) -> str:
    """Two recorded runs diffed as markdown (B relative to A).

    Sections: the two configurations side by side, per-technique mean
    execution-time deltas, robustness drop (via
    :class:`~repro.framework.robustness.FaultImpact` when both runs
    recorded a robustness tuple — run A is treated as the baseline), and
    the largest counter deltas.
    """
    parts: list[str] = [
        f"# repro compare `{a.run_id}` vs `{b.run_id}`",
        render_markdown_table(
            ["field", f"A: {a.run_id}", f"B: {b.run_id}"],
            [
                (
                    key,
                    _manifest_cell(a.manifest.get(key, "-")),
                    _manifest_cell(b.manifest.get(key, "-")),
                )
                for key in _MANIFEST_FIELDS
                if key in a.manifest or key in b.manifest
            ],
            floatfmt=_FLOATFMT,
        ),
    ]
    times_a = _mean_times_by_technique(a)
    times_b = _mean_times_by_technique(b)
    if times_a and times_b:
        rows: list[tuple[object, ...]] = []
        for tech in sorted(set(times_a) | set(times_b)):
            ta, tb = times_a.get(tech), times_b.get(tech)
            delta = tb - ta if ta is not None and tb is not None else None
            rows.append(
                (
                    tech,
                    ta if ta is not None else "-",
                    tb if tb is not None else "-",
                    delta if delta is not None else "-",
                )
            )
        parts.append("## Per-technique mean execution time")
        parts.append(
            render_markdown_table(
                ["technique", "A", "B", "delta (B - A)"], rows,
                floatfmt=_FLOATFMT,
            )
        )
    rob_a, rob_b = _run_robustness(a), _run_robustness(b)
    if rob_a is not None and rob_b is not None:
        # Deferred: repro.framework imports the simulator, which imports
        # repro.obs, so a module-level import here would cycle.
        from ..framework.robustness import FaultImpact, SystemRobustness

        impact = FaultImpact(
            baseline=SystemRobustness.from_mapping(rob_a),
            faulty=SystemRobustness.from_mapping(rob_b),
        )
        parts.append("## Robustness")
        parts.append(
            render_markdown_table(
                ["", "rho1", "rho2 %"],
                [
                    ("A (baseline)", impact.baseline.rho1, impact.baseline.rho2),
                    ("B", impact.faulty.rho1, impact.faulty.rho2),
                    ("drop (A - B)", impact.rho1_drop, impact.rho2_drop),
                ],
                floatfmt=_FLOATFMT,
            )
        )
    counters_a, counters_b = _counters(a), _counters(b)
    if counters_a or counters_b:
        deltas = [
            (
                name,
                counters_a.get(name, 0.0),
                counters_b.get(name, 0.0),
                counters_b.get(name, 0.0) - counters_a.get(name, 0.0),
            )
            for name in sorted(set(counters_a) | set(counters_b))
        ]
        deltas.sort(key=lambda row: (-abs(row[3]), row[0]))
        parts.append("## Largest counter deltas")
        parts.append(
            render_markdown_table(
                ["counter", "A", "B", "delta"],
                deltas[:top_counters],
                floatfmt=".0f",
            )
        )
    return "\n\n".join(parts) + "\n"


def format_observability(snapshot: Mapping[str, Any] | None) -> str:
    """Human-readable run summary of a metrics snapshot.

    ``snapshot`` is the dict returned by
    :func:`repro.obs.metrics_snapshot` (or
    :meth:`~repro.obs.MetricsRegistry.snapshot`); None or an all-empty
    snapshot renders a one-line placeholder.
    """
    if snapshot is None:
        return "Observability: no observation session was active."
    sections: list[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        sections.append(
            render_table(
                ["counter", "value"],
                sorted(counters.items()),
                title="Observability: counters",
                floatfmt=".0f",
            )
        )
    gauges = snapshot.get("gauges", {})
    if gauges:
        sections.append(
            render_table(
                ["gauge", "last", "min", "max", "updates"],
                [
                    (name, g["last"], g["min"], g["max"], g["updates"])
                    for name, g in sorted(gauges.items())
                ],
                title="Observability: gauges",
                floatfmt=".4g",
            )
        )
    histograms = snapshot.get("histograms", {})
    if histograms:
        sections.append(
            render_table(
                ["histogram", "count", "mean", "p50", "p90", "p99", "min", "max"],
                [
                    (
                        name,
                        h["count"],
                        h["mean"],
                        h.get("p50"),
                        h.get("p90"),
                        h.get("p99"),
                        h["min"],
                        h["max"],
                    )
                    for name, h in sorted(histograms.items())
                ],
                title="Observability: histograms",
                floatfmt=".4g",
            )
        )
    if not sections:
        return "Observability: no metrics were recorded."
    return "\n\n".join(sections)
