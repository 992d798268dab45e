"""repro.obs — tracing, metrics, and run records for the dual-stage pipeline.

The CDSF pipeline is instrumented end to end — stage-I RA search, the
PMF algebra underneath it, the stage-II DLS simulation grid, and the
orchestrator — through three primitives:

* :func:`span` — hierarchical wall-clock spans exported as a JSONL trace
  (``cdsf.run`` → ``cdsf.stage_i``/``cdsf.stage_ii`` → ``study.case`` →
  ``sim.replicate`` → ``sim.app``);
* :func:`incr` / :func:`gauge_set` / :func:`observe_value` — counters,
  gauges, and histograms in a :class:`~repro.obs.metrics.MetricsRegistry`;
* :func:`get_logger` / :func:`console` — the library's only logging and
  stdout paths (enforced by lint rule ``OBS001``).

Every event, metric, and span name is listed in the tables of
``docs/observability.md``; ``tests/integration/test_obs_names.py`` runs
every emitter and holds what it records to that list.

Observation is **off by default** and every hook compiles down to one
module-global ``is None`` check when off (same philosophy as
:mod:`repro.contracts`; the disabled-mode cost is gated below 5% by
``benchmarks/test_bench_obs_overhead.py``). Enable it either
programmatically::

    import repro.obs as obs

    with obs.observed(trace_path="run.jsonl") as session:
        result = cdsf.run(heuristic, cases, techniques)
    print(session.metrics.snapshot()["counters"])

or from the environment: ``REPRO_OBS=1`` activates observation at import
time and ``REPRO_TRACE=/path/run.jsonl`` selects the trace destination
(exported at interpreter exit via :func:`stop` or by the CLI). The CLI
exposes the same switches as ``repro --trace run.jsonl --metrics ...``.
"""

from __future__ import annotations

import atexit
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

from ..errors import ObservabilityError
from .env import cpu_counts, env_fingerprint, git_revision, utc_stamp
from .logs import LOGGER_NAME, configure_logging, console, get_logger, log
from .metrics import (
    DEFAULT_BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .report import (
    SpanAggregate,
    format_observability,
    render_run_comparison,
    render_run_report,
    span_self_times,
)
from .runs import (
    ENV_RUN_DIR,
    RunRecord,
    RunRecorder,
    RunStore,
    current_recorder,
    load_run,
    recording,
    resolve_run,
)
from .spans import (
    NULL_SPAN,
    TRACE_SCHEMA_VERSION,
    AttrValue,
    Event,
    NullSpan,
    Span,
    SpanHandle,
    Tracer,
    read_trace,
    write_records,
)
from .timeline import (
    AppTimeline,
    ChunkInterval,
    TimelineEvent,
    TimelineStats,
    WorkerTimeline,
    chrome_trace_events,
    timeline_from_result,
    timelines_from_records,
    write_chrome_trace,
)

__all__ = [
    "ENV_FLAG",
    "ENV_RUN_DIR",
    "ENV_TRACE",
    "LOGGER_NAME",
    "TRACE_SCHEMA_VERSION",
    "DEFAULT_BUCKET_BOUNDS",
    "AppTimeline",
    "AttrValue",
    "ChunkInterval",
    "Counter",
    "Event",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullSpan",
    "NULL_SPAN",
    "Observation",
    "RunRecord",
    "RunRecorder",
    "RunStore",
    "Span",
    "SpanAggregate",
    "SpanHandle",
    "TimelineEvent",
    "TimelineStats",
    "Tracer",
    "WorkerTimeline",
    "chrome_trace_events",
    "configure_logging",
    "console",
    "cpu_counts",
    "current",
    "current_recorder",
    "env_fingerprint",
    "event",
    "format_observability",
    "gauge_set",
    "get_logger",
    "git_revision",
    "incr",
    "load_run",
    "log",
    "metrics_snapshot",
    "obs_enabled",
    "observe_value",
    "observed",
    "read_trace",
    "recording",
    "render_run_comparison",
    "render_run_report",
    "resolve_run",
    "span",
    "span_self_times",
    "start",
    "stop",
    "timeline_from_result",
    "timelines_from_records",
    "utc_stamp",
    "write_chrome_trace",
    "write_records",
]

#: Environment variable that activates observation at import time.
ENV_FLAG = "REPRO_OBS"

#: Environment variable selecting the trace destination for the env gate.
ENV_TRACE = "REPRO_TRACE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


class Observation:
    """One live observation session: a tracer plus a metrics registry."""

    def __init__(
        self,
        trace_path: str | Path | None = None,
        *,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.tracer = Tracer(clock=clock)
        self.metrics = MetricsRegistry()
        self.trace_path: Path | None = (
            Path(trace_path) if trace_path is not None else None
        )

    def export(self, path: str | Path | None = None) -> Path | None:
        """Write spans + metrics as one JSONL trace; returns the path.

        ``path`` overrides the session's ``trace_path``; with neither set
        this is a no-op returning None.
        """
        target = path if path is not None else self.trace_path
        if target is None:
            return None
        records = [*self.tracer.records(), *self.metrics.records()]
        return write_records(
            target, records, open_spans=self.tracer.open_spans
        )


#: The active observation, or None when observation is disabled. Every
#: hot-path hook guards on this single global.
_active: Observation | None = None


def obs_enabled() -> bool:
    """True when an observation session is active."""
    return _active is not None


def current() -> Observation | None:
    """The active observation session, or None."""
    return _active


def start(
    trace_path: str | Path | None = None,
    *,
    clock: Callable[[], float] | None = None,
) -> Observation:
    """Activate observation; returns the new session.

    Only one session can be active at a time — nested activation would
    silently split the trace — so a second :func:`start` raises
    :class:`~repro.errors.ObservabilityError`.
    """
    global _active
    if _active is not None:
        raise ObservabilityError(
            "observation already active; call stop() first"
        )
    _active = Observation(trace_path, clock=clock)
    return _active


def stop(*, export: bool = True) -> Observation:
    """Deactivate observation; exports the trace if a path was set."""
    global _active
    if _active is None:
        raise ObservabilityError("no active observation to stop")
    session = _active
    _active = None
    if export:
        session.export()
    return session


@contextmanager
def observed(
    trace_path: str | Path | None = None,
    *,
    clock: Callable[[], float] | None = None,
) -> Iterator[Observation]:
    """Activate observation for a block; exports the trace on exit."""
    session = start(trace_path, clock=clock)
    try:
        yield session
    finally:
        if _active is session:
            stop()


# ------------------------------------------------------------------- hooks
#
# The module-level functions below are the instrumentation surface used
# throughout the library. Each is a no-op costing one global load and one
# identity check while observation is off.


def span(name: str, **attributes: AttrValue) -> SpanHandle | NullSpan:
    """Open a child span of the current span (no-op when disabled)."""
    session = _active
    if session is None:
        return NULL_SPAN
    return session.tracer.span(name, attributes)


def event(name: str, time: float, **attributes: AttrValue) -> None:
    """Record a domain-time point event (no-op when disabled).

    ``time`` is in the caller's own time base — the simulator passes
    simulated time — and the event is parented under the currently open
    span; see :meth:`Tracer.event`.
    """
    session = _active
    if session is not None:
        session.tracer.event(name, time, attributes)


def incr(name: str, amount: float = 1.0) -> None:
    """Increment a counter (no-op when disabled)."""
    session = _active
    if session is not None:
        session.metrics.inc(name, amount)


def gauge_set(name: str, value: float) -> None:
    """Set a gauge (no-op when disabled)."""
    session = _active
    if session is not None:
        session.metrics.set(name, value)


def observe_value(name: str, value: float) -> None:
    """Record one histogram observation (no-op when disabled)."""
    session = _active
    if session is not None:
        session.metrics.observe(name, value)


def metrics_snapshot() -> dict[str, dict[str, object]] | None:
    """The active session's metrics snapshot, or None when disabled."""
    session = _active
    if session is None:
        return None
    return session.metrics.snapshot()


def _activate_from_env() -> None:
    """Honor ``REPRO_OBS``/``REPRO_TRACE`` at import time."""
    if os.environ.get(ENV_FLAG, "").strip().lower() not in _TRUTHY:
        return
    start(trace_path=os.environ.get(ENV_TRACE) or None)

    def _flush() -> None:
        if _active is not None:
            stop()

    atexit.register(_flush)


_activate_from_env()
