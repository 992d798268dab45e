"""Per-worker chunk timelines reconstructed from simulator traces.

The paper judges stage-II DLS quality *temporally*: per-worker finish
time balance (the sigma/mu load-imbalance measure), utilization under
the realized availability, and the resulting makespan. This module turns
the simulator's observability output into those timelines:

* :func:`timeline_from_result` — build an :class:`AppTimeline` directly
  from an in-memory :class:`~repro.sim.results.AppRunResult`;
* :func:`timelines_from_records` — rebuild the same timelines from a
  persisted JSONL trace (``sim.chunk`` / fault events parented under
  their ``sim.app`` span), so a run directory is enough to re-analyze a
  run long after the process exited;
* :func:`write_chrome_trace` — export timelines as Chrome trace-event
  JSON: open the file in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing`` to scrub through every chunk and fault.

All times are *simulated* time units. The Chrome export maps one
simulated time unit to one microsecond of trace time (``ts`` is in
microseconds by convention), so a ~10^3-unit makespan renders as ~1 ms.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import ObservabilityError

#: Event names the simulator emits that a timeline overlays. Declared in
#: the trace-schema registry; re-exported here for consumers.
from .schema import FAULT_EVENT_NAMES

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..sim.results import AppRunResult

__all__ = [
    "ChunkInterval",
    "FAULT_EVENT_NAMES",
    "TimelineEvent",
    "WorkerTimeline",
    "TimelineStats",
    "AppTimeline",
    "timeline_from_result",
    "timelines_from_records",
    "chrome_trace_events",
    "write_chrome_trace",
]


@dataclass(frozen=True)
class ChunkInterval:
    """One dispatched chunk on one worker, in simulated time."""

    worker_id: int
    size: int
    request: float  # when the worker asked for work
    start: float  # request + scheduling overhead
    finish: float

    @property
    def busy(self) -> float:
        """Compute time of the chunk (excluding dispatch overhead)."""
        return self.finish - self.start

    @property
    def overhead(self) -> float:
        """Dispatch overhead paid before the chunk started computing."""
        return self.start - self.request


@dataclass(frozen=True)
class TimelineEvent:
    """One fault-overlay occurrence (crash, requeue, failover, ...)."""

    name: str
    time: float
    worker_id: int | None
    attributes: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class WorkerTimeline:
    """Everything one worker did during one application's parallel loop."""

    worker_id: int
    intervals: tuple[ChunkInterval, ...]  # sorted by start
    events: tuple[TimelineEvent, ...] = ()

    @property
    def iterations(self) -> int:
        return sum(c.size for c in self.intervals)

    @property
    def n_chunks(self) -> int:
        return len(self.intervals)

    @property
    def busy_time(self) -> float:
        """Total compute time (excluding per-chunk dispatch overhead)."""
        return sum(c.busy for c in self.intervals)

    @property
    def overhead_time(self) -> float:
        return sum(c.overhead for c in self.intervals)

    def finish_time(self, loop_start: float) -> float:
        """When this worker went permanently idle (the DLS balance signal).

        A worker that never received a chunk finishes at the loop start —
        the same convention as the simulator's ``worker_finish_times``.
        """
        if not self.intervals:
            return loop_start
        return max(c.finish for c in self.intervals)

    def idle_time(self, loop_start: float, loop_end: float) -> float:
        """Time inside ``[loop_start, loop_end]`` spent neither computing
        nor in dispatch overhead."""
        span = max(0.0, loop_end - loop_start)
        return max(0.0, span - self.busy_time - self.overhead_time)


@dataclass(frozen=True)
class TimelineStats:
    """Scalar summary of one :class:`AppTimeline` (JSON-ready)."""

    makespan: float
    loop_time: float
    load_imbalance: float  # sigma/mu of worker finish times
    utilization: float  # busy time / (workers x loop time)
    idle_fraction: float
    overhead_fraction: float
    critical_worker: int | None  # worker on the critical path (last finisher)
    n_chunks: int
    iterations: int
    crashes: int
    requeued: int

    def as_dict(self) -> dict[str, object]:
        return {
            "makespan": self.makespan,
            "loop_time": self.loop_time,
            "load_imbalance": self.load_imbalance,
            "utilization": self.utilization,
            "idle_fraction": self.idle_fraction,
            "overhead_fraction": self.overhead_fraction,
            "critical_worker": self.critical_worker,
            "n_chunks": self.n_chunks,
            "iterations": self.iterations,
            "crashes": self.crashes,
            "requeued": self.requeued,
        }


@dataclass(frozen=True)
class AppTimeline:
    """The reconstructed execution timeline of one simulated application.

    ``start`` is when the parallel loop opened (the end of the serial
    phase); ``workers`` holds one :class:`WorkerTimeline` per group
    worker, including workers that never received a chunk.
    """

    app: str
    technique: str
    case: str | None
    group_size: int
    start: float
    workers: tuple[WorkerTimeline, ...]
    events: tuple[TimelineEvent, ...] = ()
    span_id: int | None = None

    @property
    def makespan(self) -> float:
        """Completion of the whole run (serial phase + parallel loop)."""
        finishes = [w.finish_time(self.start) for w in self.workers]
        return max([self.start, *finishes])

    def worker_finish_times(self) -> dict[int, float]:
        """Per-worker permanent-idle times, keyed by worker id."""
        return {
            w.worker_id: w.finish_time(self.start) for w in self.workers
        }

    def load_imbalance(self) -> float:
        """Coefficient of variation (sigma/mu) of worker finish times.

        0 means perfect balance — the paper's DLS quality measure, computed
        by the same function as
        :meth:`repro.sim.results.AppRunResult.load_imbalance`.
        """
        # Deferred: repro.sim imports repro.obs, so a module-level import
        # here would cycle.
        from ..sim.results import finish_time_cv

        return finish_time_cv(self.worker_finish_times().values())

    def utilization(self) -> float:
        """Fraction of worker-time inside the loop spent computing."""
        loop_time = self.makespan - self.start
        if loop_time <= 0 or not self.workers:
            return 0.0
        busy = sum(w.busy_time for w in self.workers)
        return busy / (len(self.workers) * loop_time)

    def critical_worker(self) -> int | None:
        """The last-finishing worker — the parallel loop's critical path."""
        last: int | None = None
        best = -math.inf
        for w in self.workers:
            finish = w.finish_time(self.start)
            if finish > best:
                best, last = finish, w.worker_id
        return last

    def stats(self) -> TimelineStats:
        loop_time = self.makespan - self.start
        worker_time = len(self.workers) * loop_time
        busy = sum(w.busy_time for w in self.workers)
        overhead = sum(w.overhead_time for w in self.workers)
        idle = max(0.0, worker_time - busy - overhead)
        return TimelineStats(
            makespan=self.makespan,
            loop_time=loop_time,
            load_imbalance=self.load_imbalance(),
            utilization=self.utilization(),
            idle_fraction=idle / worker_time if worker_time > 0 else 0.0,
            overhead_fraction=(
                overhead / worker_time if worker_time > 0 else 0.0
            ),
            critical_worker=self.critical_worker(),
            n_chunks=sum(w.n_chunks for w in self.workers),
            iterations=sum(w.iterations for w in self.workers),
            crashes=sum(1 for e in self.events if e.name == "sim.crash"),
            requeued=sum(
                int(e.attributes.get("size", 0))  # type: ignore[arg-type]
                for e in self.events
                if e.name == "sim.requeue"
            ),
        )

    @property
    def label(self) -> str:
        case = f"{self.case}/" if self.case else ""
        return f"{case}{self.app}/{self.technique}"


def _build_workers(
    group_size: int,
    intervals: Iterable[ChunkInterval],
    events: Iterable[TimelineEvent],
) -> tuple[WorkerTimeline, ...]:
    by_worker: dict[int, list[ChunkInterval]] = {
        wid: [] for wid in range(group_size)
    }
    for interval in intervals:
        by_worker.setdefault(interval.worker_id, []).append(interval)
    events_by_worker: dict[int, list[TimelineEvent]] = {}
    for ev in events:
        if ev.worker_id is not None:
            events_by_worker.setdefault(ev.worker_id, []).append(ev)
    return tuple(
        WorkerTimeline(
            worker_id=wid,
            intervals=tuple(
                sorted(chunks, key=lambda c: (c.start, c.finish))
            ),
            events=tuple(
                sorted(
                    events_by_worker.get(wid, ()), key=lambda e: e.time
                )
            ),
        )
        for wid, chunks in sorted(by_worker.items())
    )


def timeline_from_result(
    result: "AppRunResult", *, case: str | None = None
) -> AppTimeline:
    """Build the timeline of one in-memory simulator result.

    The reconstruction is lossless: worker finish times, makespan, and
    load imbalance all agree exactly with the result's own accessors
    (and with :func:`timelines_from_records` over the same run's trace).
    """
    intervals = [
        ChunkInterval(
            worker_id=c.worker_id,
            size=c.size,
            request=c.request_time,
            start=c.start_time,
            finish=c.finish_time,
        )
        for c in result.chunks
    ]
    events: list[TimelineEvent] = []
    for wid in result.crashed_workers:
        events.append(TimelineEvent(name="sim.crash", time=-1.0, worker_id=wid))
    for failover in result.master_failovers:
        events.append(
            TimelineEvent(
                name="sim.failover",
                time=failover.time,
                worker_id=failover.new_master,
                attributes={"old": failover.old_master},
            )
        )
    if result.rescheduled_iterations:
        events.append(
            TimelineEvent(
                name="sim.requeue",
                time=-1.0,
                worker_id=None,
                attributes={"size": result.rescheduled_iterations},
            )
        )
    group_size = max(
        result.group_size, len(result.worker_finish_times)
    )
    return AppTimeline(
        app=result.app_name,
        technique=result.technique,
        case=case,
        group_size=group_size,
        start=result.serial_time,
        workers=_build_workers(group_size, intervals, events),
        events=tuple(sorted(events, key=lambda e: e.time)),
    )


def _ancestor_case(
    span: Mapping[str, object], spans: Mapping[object, Mapping[str, object]]
) -> str | None:
    """The enclosing ``study.case`` span's case id, walking up the tree."""
    seen: set[object] = set()
    current: Mapping[str, object] | None = span
    while current is not None:
        attrs = current.get("attrs")
        if (
            current.get("name") == "study.case"
            and isinstance(attrs, dict)
            and "case" in attrs
        ):
            return str(attrs["case"])
        parent = current.get("parent")
        if parent is None or parent in seen:
            return None
        seen.add(parent)
        current = spans.get(parent)
    return None


def timelines_from_records(
    records: Sequence[Mapping[str, object]],
) -> list[AppTimeline]:
    """Rebuild every application timeline found in a trace's records.

    ``records`` is the output of :func:`~repro.obs.read_trace` (or
    :meth:`~repro.obs.Tracer.records`). One :class:`AppTimeline` is
    produced per ``sim.app`` span that has at least one ``sim.chunk``
    event parented under it; runs traced without chunk events (older
    schema, or observation enabled without the simulator) yield an empty
    list rather than an error. Timelines come back in span-id order.
    """
    spans: dict[object, Mapping[str, object]] = {}
    for record in records:
        if record.get("type") == "span" and "id" in record:
            spans[record["id"]] = record
    chunk_events: dict[object, list[ChunkInterval]] = {}
    fault_events: dict[object, list[TimelineEvent]] = {}
    for record in records:
        if record.get("type") != "event":
            continue
        parent = record.get("parent")
        attrs_raw = record.get("attrs")
        attrs: dict[str, object] = (
            dict(attrs_raw) if isinstance(attrs_raw, dict) else {}
        )
        name = str(record.get("name"))
        if name == "sim.chunk":
            try:
                chunk_events.setdefault(parent, []).append(
                    ChunkInterval(
                        worker_id=int(attrs["worker"]),  # type: ignore[arg-type]
                        size=int(attrs["size"]),  # type: ignore[arg-type]
                        request=float(attrs["request"]),  # type: ignore[arg-type]
                        start=float(attrs["start"]),  # type: ignore[arg-type]
                        finish=float(attrs["finish"]),  # type: ignore[arg-type]
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ObservabilityError(
                    f"malformed sim.chunk event attributes {attrs!r}: {exc}"
                ) from exc
        elif name in FAULT_EVENT_NAMES:
            worker = attrs.get("worker")
            fault_events.setdefault(parent, []).append(
                TimelineEvent(
                    name=name,
                    time=float(record.get("time", 0.0)),  # type: ignore[arg-type]
                    worker_id=int(worker) if worker is not None else None,  # type: ignore[arg-type]
                    attributes=attrs,
                )
            )
    timelines: list[AppTimeline] = []
    for span_id, span in sorted(
        spans.items(), key=lambda kv: (isinstance(kv[0], int), kv[0], 0)
    ):
        if span.get("name") != "sim.app" or span_id not in chunk_events:
            continue
        attrs_raw = span.get("attrs")
        attrs = dict(attrs_raw) if isinstance(attrs_raw, dict) else {}
        group_size = int(attrs.get("group_size", 0))  # type: ignore[arg-type]
        intervals = chunk_events[span_id]
        events = tuple(
            sorted(fault_events.get(span_id, ()), key=lambda e: e.time)
        )
        if group_size <= 0:
            group_size = 1 + max(c.worker_id for c in intervals)
        timelines.append(
            AppTimeline(
                app=str(attrs.get("app", "?")),
                technique=str(attrs.get("technique", "?")),
                case=_ancestor_case(span, spans),
                group_size=group_size,
                start=float(attrs.get("serial_time", 0.0)),  # type: ignore[arg-type]
                workers=_build_workers(group_size, intervals, events),
                events=events,
                span_id=span_id if isinstance(span_id, int) else None,
            )
        )
    return timelines


# ------------------------------------------------------------- Chrome trace
#
# The trace-event format understood by Perfetto and chrome://tracing:
# https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
# One simulated time unit maps to one microsecond of ``ts``.


def chrome_trace_events(
    timelines: Sequence[AppTimeline],
) -> list[dict[str, object]]:
    """Timelines as a sorted list of Chrome trace-event dicts.

    Each timeline becomes one *process* (pid = its index, named by the
    timeline label) and each worker one *thread* (tid = worker id).
    Chunks are complete events (``ph: "X"``); faults are instant events
    (``ph: "i"``). Events are globally sorted by timestamp and strictly
    monotone per (pid, tid) track, which is what Perfetto expects.
    """
    meta: list[dict[str, object]] = []
    events: list[dict[str, object]] = []
    for pid, timeline in enumerate(timelines):
        meta.append(
            {
                "ph": "M",
                "pid": pid,
                "name": "process_name",
                "args": {"name": timeline.label},
            }
        )
        for worker in timeline.workers:
            meta.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": worker.worker_id,
                    "name": "thread_name",
                    "args": {"name": f"worker {worker.worker_id}"},
                }
            )
            for chunk in worker.intervals:
                events.append(
                    {
                        "ph": "X",
                        "pid": pid,
                        "tid": worker.worker_id,
                        "name": f"chunk x{chunk.size}",
                        "cat": "chunk",
                        "ts": chunk.start,
                        "dur": max(0.0, chunk.busy),
                        "args": {
                            "size": chunk.size,
                            "request": chunk.request,
                            "overhead": chunk.overhead,
                        },
                    }
                )
        for ev in timeline.events:
            if ev.time < 0:  # synthesized without a concrete time
                continue
            events.append(
                {
                    "ph": "i",
                    "pid": pid,
                    "tid": ev.worker_id if ev.worker_id is not None else 0,
                    "name": ev.name,
                    "cat": "fault",
                    "s": "p",
                    "ts": ev.time,
                    "args": dict(ev.attributes),
                }
            )
    events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"]))  # type: ignore[index]
    return meta + events


def write_chrome_trace(
    path: str | Path, timelines: Sequence[AppTimeline]
) -> Path:
    """Write timelines as a Chrome trace-event JSON file.

    The output is the JSON *object* flavor of the format
    (``{"traceEvents": [...]}``), loadable in Perfetto or
    ``chrome://tracing`` as-is.
    """
    target = Path(path)
    payload = {
        "traceEvents": chrome_trace_events(timelines),
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs.timeline",
            "time_base": "1 simulated time unit = 1us of trace time",
        },
    }
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return target
