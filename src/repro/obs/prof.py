"""Profilers: span-tree self/cumulative profiles and a sampling profiler.

Two complementary views of where wall time goes, both exporting the same
stack-profile formats so flamegraphs load directly:

* :func:`profile_from_spans` — the **deterministic instrumented
  profiler**: every finished span already carries start/end/parent, so a
  recorded trace folds into a call-stack profile with exact call counts
  and self/cumulative times (the :func:`span_self_times` decomposition,
  extended from per-name aggregates to full stacks). Zero extra runtime
  cost — it is pure post-processing of the trace the session collects
  anyway.
* :class:`SamplingProfiler` — an **opt-in statistical profiler**: a
  daemon thread snapshots the target thread's Python stack every
  ``interval`` seconds and attributes each sample to the innermost
  ``repro.*`` frames, catching the time spent *between* spans (dict
  churn in the PMF kernels, the simulator inner loop) that span
  instrumentation is too coarse to see. Gated by the CLI ``--profile``
  flag or the ``REPRO_PROF`` environment variable; disabled it costs
  nothing at all (no thread, no hooks).

Both produce :class:`Profile` objects; :func:`speedscope_document`
bundles any number of them into one speedscope-loadable JSON file
(https://www.speedscope.app) and :meth:`Profile.collapsed` emits the
classic semicolon-separated collapsed-stack lines for
``flamegraph.pl``-style tooling. The CLI writes the document as
``profile.json`` inside the run directory when a run is recorded.
"""

from __future__ import annotations

import sys
import threading
import types
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from ..errors import ObservabilityError

__all__ = [
    "ENV_PROF",
    "PROFILE_SCHEMA_URL",
    "Profile",
    "SamplingProfiler",
    "SpanAggregate",
    "profile_from_spans",
    "profiling_env_interval",
    "span_self_times",
    "speedscope_document",
]

#: Environment variable enabling the sampling profiler. A truthy value
#: ("1", "true", ...) uses the default interval; a float value ("0.01")
#: selects the sampling interval in seconds.
ENV_PROF = "REPRO_PROF"

#: The speedscope file-format schema both exporters target.
PROFILE_SCHEMA_URL = "https://www.speedscope.app/file-format-schema.json"

#: Default sampling interval: 5 ms keeps overhead ~per-mille while still
#: resolving the millisecond-scale PMF/simulator kernels.
DEFAULT_SAMPLING_INTERVAL = 0.005

#: Stacks deeper than this are truncated at the root end; Python frames
#: past 128 levels add noise, not signal.
MAX_STACK_DEPTH = 128

#: Pseudo-frame collecting samples whose stack holds no ``repro.*`` frame
#: (interpreter startup, third-party code called outside the library).
OTHER_FRAME = "(non-repro)"


# --------------------------------------------------------------- span profile


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


# ------------------------------------------------------------- stack profiles


class Profile:
    """One aggregated stack profile: weight and hit count per call stack.

    Stacks are tuples of frame labels ordered root → leaf. ``unit`` is a
    speedscope weight unit (``"seconds"`` for both profilers here).
    """

    def __init__(self, name: str, *, unit: str = "seconds") -> None:
        self.name = name
        self.unit = unit
        self._weights: dict[tuple[str, ...], float] = {}
        self._counts: dict[tuple[str, ...], int] = {}

    def add(
        self, stack: Sequence[str], weight: float, *, count: int = 1
    ) -> None:
        """Accumulate ``weight`` (and ``count`` hits) onto one stack."""
        if not stack:
            return
        key = tuple(stack)
        self._weights[key] = self._weights.get(key, 0.0) + float(weight)
        self._counts[key] = self._counts.get(key, 0) + count

    @property
    def stacks(self) -> dict[tuple[str, ...], float]:
        """Stack → accumulated weight (a copy)."""
        return dict(self._weights)

    @property
    def counts(self) -> dict[tuple[str, ...], int]:
        """Stack → hit count (a copy)."""
        return dict(self._counts)

    def __len__(self) -> int:
        return len(self._weights)

    @property
    def total_weight(self) -> float:
        return sum(self._weights.values())

    def collapsed(self) -> list[str]:
        """Collapsed-stack lines (``root;child;leaf weight``), sorted.

        Weights are emitted in microseconds rounded to integers — the
        format flamegraph.pl and speedscope's collapsed importer expect
        — with a floor of 1 so a sampled stack never vanishes.
        """
        lines = []
        for stack in sorted(self._weights):
            micros = max(1, round(self._weights[stack] * 1e6))
            lines.append(";".join(stack) + f" {micros}")
        return lines

    def _speedscope_profile(
        self, frame_index: Mapping[str, int]
    ) -> dict[str, object]:
        """This profile as one speedscope ``sampled`` profile entry."""
        samples: list[list[int]] = []
        weights: list[float] = []
        for stack in sorted(self._weights):
            samples.append([frame_index[frame] for frame in stack])
            weights.append(self._weights[stack])
        return {
            "type": "sampled",
            "name": self.name,
            "unit": self.unit,
            "startValue": 0,
            "endValue": sum(weights),
            "samples": samples,
            "weights": weights,
        }


def profile_from_spans(
    records: Sequence[Mapping[str, object]], *, name: str = "spans (self time)"
) -> Profile:
    """Fold span records into a call-stack profile weighted by self time.

    Each closed span contributes its root→leaf *name* path as one stack,
    weighted by its self time (duration minus direct children), counted
    once per instance. Summed over a tree the weights reproduce the root
    span's duration, so the flamegraph's width is the run's wall time.
    Open spans and orphaned parents (never closed) are skipped; a span
    whose parent is unknown roots its own stack.
    """
    durations, names, parents = _closed_spans(records)
    selfs = _self_times(durations, parents)
    profile = Profile(name)
    for span_id in durations:
        stack: list[str] = []
        cursor: object = span_id
        for _ in range(MAX_STACK_DEPTH):
            stack.append(names[cursor])
            cursor = parents.get(cursor)
            if cursor not in durations:
                break
        stack.reverse()
        profile.add(stack, selfs[span_id])
    return profile


def speedscope_document(
    profiles: Sequence[Profile], *, name: str = "repro"
) -> dict[str, object]:
    """Bundle profiles into one speedscope-loadable JSON document.

    The document carries a shared frame table referenced by index from
    every profile, per the speedscope file format. Empty profiles are
    dropped; an entirely empty document is still valid (zero profiles).
    """
    kept = [p for p in profiles if len(p)]
    frame_names: list[str] = []
    frame_index: dict[str, int] = {}
    for profile in kept:
        for stack in sorted(profile.stacks):
            for frame in stack:
                if frame not in frame_index:
                    frame_index[frame] = len(frame_names)
                    frame_names.append(frame)
    return {
        "$schema": PROFILE_SCHEMA_URL,
        "name": name,
        "shared": {"frames": [{"name": f} for f in frame_names]},
        "profiles": [p._speedscope_profile(frame_index) for p in kept],
    }


# ---------------------------------------------------------- sampling profiler


def _frame_label(frame: types.FrameType) -> str | None:
    """``module.qualname`` when the frame belongs to ``repro``, else None."""
    module = frame.f_globals.get("__name__", "")
    if not (module == "repro" or module.startswith("repro.")):
        return None
    code = frame.f_code
    func = getattr(code, "co_qualname", None) or code.co_name
    return f"{module}.{func}"


def stack_from_frame(frame: types.FrameType | None) -> tuple[str, ...]:
    """The ``repro.*`` stack (root → leaf) visible from ``frame``.

    Non-``repro`` frames are dropped — samples are attributed to the
    library frames they run under. A stack with no ``repro`` frame at all
    collapses to the :data:`OTHER_FRAME` pseudo-frame so sample totals
    stay meaningful.
    """
    stack: list[str] = []
    cursor = frame
    while cursor is not None and len(stack) < MAX_STACK_DEPTH:
        label = _frame_label(cursor)
        if label is not None:
            stack.append(label)
        cursor = cursor.f_back
    if not stack:
        return (OTHER_FRAME,)
    stack.reverse()
    return tuple(stack)


def profiling_env_interval(value: str | None) -> float | None:
    """The sampling interval requested by a ``REPRO_PROF`` value.

    ``None``/empty/falsy → None (disabled); a truthy flag ("1", "true",
    "yes", "on") → the default interval; a float literal → that many
    seconds (must be positive).
    """
    if value is None:
        return None
    text = value.strip().lower()
    if not text or text in ("0", "false", "no", "off"):
        return None
    if text in ("1", "true", "yes", "on"):
        return DEFAULT_SAMPLING_INTERVAL
    try:
        interval = float(text)
    except ValueError:
        raise ObservabilityError(
            f"{ENV_PROF}={value!r} is neither a flag nor an interval "
            "in seconds"
        ) from None
    if interval <= 0:
        raise ObservabilityError(
            f"{ENV_PROF} interval must be positive, got {interval}"
        )
    return interval


class SamplingProfiler:
    """Thread-based statistical profiler attributing samples to ``repro.*``.

    A daemon thread wakes every ``interval`` seconds, snapshots the
    target thread's frame via ``sys._current_frames()``, and accumulates
    the filtered stack (see :func:`stack_from_frame`). ``stop()`` joins
    the thread and returns the collected :class:`Profile` with each
    stack weighted by ``samples × interval`` seconds.

    The profiler must only observe a *different* thread than the one it
    runs on (the sampler thread never samples itself); the default
    target is the thread that constructed it.
    """

    def __init__(
        self,
        interval: float = DEFAULT_SAMPLING_INTERVAL,
        *,
        target_thread_id: int | None = None,
    ) -> None:
        if interval <= 0:
            raise ObservabilityError(
                f"sampling interval must be positive, got {interval}"
            )
        self.interval = interval
        self._target = (
            target_thread_id
            if target_thread_id is not None
            else threading.get_ident()
        )
        self._counts: dict[tuple[str, ...], int] = {}
        self._samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def samples(self) -> int:
        """Samples collected so far."""
        return self._samples

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _record(self, stack: tuple[str, ...]) -> None:
        self._counts[stack] = self._counts.get(stack, 0) + 1
        self._samples += 1

    def _sample_once(self) -> None:
        frame = sys._current_frames().get(self._target)
        if frame is not None:
            self._record(stack_from_frame(frame))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample_once()

    def start(self) -> "SamplingProfiler":
        """Start the sampler thread; returns self for chaining."""
        if self._thread is not None:
            raise ObservabilityError("sampling profiler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-prof-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, *, name: str = "sampled (repro frames)") -> Profile:
        """Stop sampling and return the accumulated profile."""
        if self._thread is None:
            raise ObservabilityError("sampling profiler was never started")
        self._stop.set()
        self._thread.join()
        self._thread = None
        profile = Profile(name)
        for stack, count in self._counts.items():
            profile.add(stack, count * self.interval, count=count)
        return profile

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if self._thread is not None:
            self.stop()

