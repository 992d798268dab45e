"""Declared trace schema: every event, metric, and span name the library emits.

The observability contract between emitters (:mod:`repro.sim.loopsim`,
:mod:`repro.exec.backends`, the framework orchestrators) and consumers
(:mod:`repro.obs.timeline`, :mod:`repro.obs.report`, downstream trace
analysis) used to live in string literals that had to agree by luck.
This module is the single declared registry:

* :data:`EVENTS` — every domain-time point event (``obs.event``), with
  the attributes each event is required to carry;
* :data:`METRICS` — every counter/gauge/histogram name. Dynamic names
  use the ``{placeholder}`` convention: ``dls.chunks.{technique}``
  matches ``dls.chunks.FAC``, ``dls.chunks.AWF`` — one dot-free segment
  per placeholder;
* :data:`SPANS` — every wall-clock span name.

Lint rules ``OBS101``–``OBS103`` (:mod:`repro._lint.rules_schema`)
cross-check the registry against the code in both directions: an emitter
literal or consumer match that is not declared here is a finding, and a
declared name nothing emits is a finding. They are also the one place
names are matched against the ``{placeholder}`` patterns. The registry
is deliberately written as **pure literals** so the linter can re-read
it from source without importing anything
(``tests/unit/test_obs_schema.py`` pins the two views together).

Keep ``docs/observability.md`` ("Event & metric schema registry") in
sync when editing — a regression test checks every name is documented.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "EVENTS",
    "FAULT_EVENT_NAMES",
    "METRICS",
    "METRIC_KINDS",
    "SPANS",
    "EventSpec",
    "MetricSpec",
    "SpanSpec",
    "event_names",
    "metric_names",
    "span_names",
]

#: The metric kinds a :class:`~repro.obs.metrics.MetricsRegistry` holds.
METRIC_KINDS = ("counter", "gauge", "histogram")


@dataclass(frozen=True)
class EventSpec:
    """One declared domain-time point event."""

    name: str
    required: tuple[str, ...] = ()
    description: str = ""


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric name (exact, or a ``{placeholder}`` pattern)."""

    name: str
    kind: str = "counter"
    description: str = ""


@dataclass(frozen=True)
class SpanSpec:
    """One declared wall-clock span name."""

    name: str
    description: str = ""


# --------------------------------------------------------------------- events
#
# Emitted by repro/sim/loopsim.py in *simulated* time, parented under the
# enclosing ``sim.app`` span. repro/obs/timeline.py rebuilds worker
# timelines from exactly these names and attributes.

EVENTS: tuple[EventSpec, ...] = (
    EventSpec(
        "sim.chunk",
        required=("worker", "size", "request", "start", "finish"),
        description="one dispatched chunk completed on a worker",
    ),
    EventSpec(
        "sim.crash",
        required=("worker", "lost"),
        description="a worker crash fired (lost = in-flight iterations)",
    ),
    EventSpec(
        "sim.requeue",
        required=("worker", "size"),
        description="a crash re-queued lost in-flight iterations",
    ),
    EventSpec(
        "sim.failover",
        required=("worker", "old", "delay"),
        description="master hand-off to a surviving worker",
    ),
    EventSpec(
        "sim.degraded",
        required=("worker", "applied"),
        description="a blackout/slowdown fault stretched a chunk",
    ),
)

#: The fault-overlay subset a timeline renders as instant events.
FAULT_EVENT_NAMES = frozenset(
    {"sim.crash", "sim.requeue", "sim.failover", "sim.degraded"}
)

# -------------------------------------------------------------------- metrics

METRICS: tuple[MetricSpec, ...] = (
    # simulator
    MetricSpec("sim.apps", "counter", "stage-II application simulations"),
    MetricSpec("sim.iterations", "counter", "parallel iterations executed"),
    MetricSpec(
        "sim.loop.events",
        "counter",
        "scheduling-loop events popped by run_parallel_loop",
    ),
    MetricSpec("sim.makespan", "histogram", "makespans across simulations"),
    MetricSpec(
        "sim.makespan.{technique}",
        "histogram",
        "makespans split per DLS technique",
    ),
    MetricSpec(
        "sim.imbalance.{technique}",
        "histogram",
        "sigma/mu load imbalance split per DLS technique",
    ),
    # dynamic loop scheduling
    MetricSpec(
        "dls.chunks.{technique}",
        "counter",
        "chunks dispatched per DLS technique",
    ),
    MetricSpec("dls.chunk_size", "histogram", "chunk sizes, all techniques"),
    MetricSpec(
        "dls.chunk_size.{technique}",
        "histogram",
        "chunk sizes split per DLS technique",
    ),
    MetricSpec(
        "dls.requeued", "histogram", "iterations re-queued after crashes"
    ),
    # faults
    MetricSpec(
        "faults.injected", "counter", "crash/degradation events that landed"
    ),
    MetricSpec(
        "faults.rescheduled", "counter", "iterations re-dispatched after loss"
    ),
    # stage-I resource allocation
    MetricSpec("ra.results", "counter", "allocations produced by heuristics"),
    MetricSpec(
        "ra.evaluations", "histogram", "candidate evaluations per allocation"
    ),
    MetricSpec(
        "ra.candidate_evaluations", "counter", "stage-I candidates scored"
    ),
    MetricSpec("ra.pmf_cache.hit", "counter", "stage-I PMF cache hits"),
    MetricSpec("ra.pmf_cache.miss", "counter", "stage-I PMF cache misses"),
    MetricSpec(
        "ra.prob_cache.hit", "counter", "stage-I probability cache hits"
    ),
    MetricSpec(
        "ra.prob_cache.miss", "counter", "stage-I probability cache misses"
    ),
    # PMF algebra
    MetricSpec("pmf.combines", "counter", "PMF convolutions performed"),
    MetricSpec(
        "pmf.support", "histogram", "support sizes through convolutions"
    ),
    MetricSpec(
        "pmf.pulse_products",
        "histogram",
        "pulse pairs multiplied per combine (the kernel's true work)",
    ),
    MetricSpec(
        "pmf.truncations", "counter", "combines whose support was truncated"
    ),
    MetricSpec(
        "pmf.dilations", "counter", "availability dilations performed"
    ),
    # orchestration
    MetricSpec("study.cells", "counter", "stage-II study grid cells simulated"),
    MetricSpec("cdsf.stage_i_runs", "counter", "stage-I optimizations run"),
    MetricSpec("cdsf.stage_ii_runs", "counter", "stage-II study runs"),
    MetricSpec("cdsf.phi1", "gauge", "stage-I robustness phi_1 of last run"),
    MetricSpec("cdsf.rho1", "gauge", "system robustness rho_1 of last run"),
    MetricSpec("cdsf.rho2", "gauge", "system robustness rho_2 of last run"),
    MetricSpec(
        "cdsf.stage_i_seconds", "gauge", "wall-clock seconds in stage I"
    ),
    MetricSpec(
        "cdsf.stage_ii_seconds", "gauge", "wall-clock seconds in stage II"
    ),
    # execution backends
    MetricSpec("exec.tasks", "counter", "tasks joined from pool workers"),
    MetricSpec(
        "exec.adopted_spans", "counter", "worker span records merged on join"
    ),
    MetricSpec(
        "exec.retries", "counter", "tasks re-submitted after a pool rebuild"
    ),
)

# ---------------------------------------------------------------------- spans

SPANS: tuple[SpanSpec, ...] = (
    SpanSpec("cdsf.run", "one full dual-stage CDSF run"),
    SpanSpec("cdsf.stage_i", "stage-I resource-allocation search"),
    SpanSpec("cdsf.stage_ii", "stage-II simulation grid"),
    SpanSpec("study.case", "one availability case of the study grid"),
    SpanSpec("sim.replicate", "replicated simulations of one app"),
    SpanSpec("sim.app", "one application simulation"),
)


# ---------------------------------------------------------------------- names


def event_names() -> tuple[str, ...]:
    """Every declared event name, in declaration order."""
    return tuple(spec.name for spec in EVENTS)


def metric_names() -> tuple[str, ...]:
    """Every declared metric name/pattern, in declaration order."""
    return tuple(spec.name for spec in METRICS)


def span_names() -> tuple[str, ...]:
    """Every declared span name, in declaration order."""
    return tuple(spec.name for spec in SPANS)
