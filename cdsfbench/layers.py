"""Outside-in per-layer tracing of the ``repro`` packages.

The benchmark attributes wall time to the program's layers without
touching the program: :class:`LayerTracer` replaces selected public
functions and methods of each ``repro`` package with thin wrappers that
record one span per call (function id, parent span, start, end) into
flat in-memory arrays. Nothing is written while a pass runs; after the
pass the spans are folded into per-layer counts and *self* times (a
span's duration minus the part covered by its wrapped children), and the
last pass's spans are written out when the run ends.

Functions are patched where the caller looks them up. Names imported by
binding must be patched in the importing module: ``repro.ra.robustness``
binds ``dilate_by_availability`` and ``repro.sim.loopsim`` binds
``degraded_boundaries``, so patching only the defining module would miss
those calls. The traced run cross-checks the wrapped call counts against
the program's own ``repro.obs`` counters to catch exactly that mistake
(see :func:`cross_check`).

Only the traced run installs wrappers; timed runs never import this
module's patches, and the two run in separate processes.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

#: Layers in report order: the ``repro`` packages the benchmark splits by.
LAYERS = (
    "framework", "exec", "sim", "system", "dls", "apps",
    "faults", "pmf", "ra",
)

#: Layers that do stage-II work (the simulator kernel and what it calls).
STAGE_II_LAYERS = ("sim", "system", "dls", "apps")

#: Layers that do stage-I work (PMF algebra and the RA evaluator).
STAGE_I_LAYERS = ("pmf", "ra")

#: (layer, module, qualified attribute) of every wrapped call site.
#: Bindings are listed under the module that *calls* through them.
_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("framework", "repro.framework.cdsf", "CDSF.run"),
    ("framework", "repro.framework.cdsf", "CDSF.run_stage_i"),
    ("framework", "repro.framework.cdsf", "CDSF.run_stage_ii"),
    ("framework", "repro.framework.study", "DLSStudy.run"),
    ("exec", "repro.exec.backends", "SerialBackend.run_tasks"),
    ("exec", "repro.exec.tasks", "ReplicateTask.run"),
    ("sim", "repro.sim.loopsim", "run_seeded_replications"),
    ("sim", "repro.sim.loopsim", "simulate_application"),
    ("sim", "repro.sim.loopsim", "run_parallel_loop"),
    ("sim", "repro.sim.worker", "SimWorker.execute_chunk"),
    ("sim", "repro.sim.events", "EventQueue.push"),
    ("sim", "repro.sim.events", "EventQueue.pop"),
    ("system", "repro.system.availability", "AvailabilityProcess.finish_times"),
    ("system", "repro.system.availability", "AvailabilityProcess.finish_time"),
    ("system", "repro.system.availability", "AvailabilityProcess.level_at"),
    ("apps", "repro.apps.exectime", "IterationTimeModel.draw"),
    ("faults", "repro.faults.injector", "FaultInjector.crash_time"),
    ("faults", "repro.faults.injector", "FaultInjector.degradations_until"),
    ("faults", "repro.sim.loopsim", "degraded_boundaries"),
    ("pmf", "repro.apps.application", "Application.parallel_time_pmf"),
    ("pmf", "repro.ra.robustness", "dilate_by_availability"),
    ("pmf", "repro.pmf", "max_independent"),
    ("pmf", "repro.pmf.pmf", "PMF.prob_leq"),
    ("ra", "repro.ra.robustness", "StageIEvaluator.joint_probability"),
    ("ra", "repro.ra.robustness", "StageIEvaluator.app_deadline_prob"),
    # The benchmark's own machine-speed probe runs inside some program
    # calls (the timed backend probes before each task); tracing it keeps
    # its time out of every layer's self time.
    ("probe", "speed", "SpeedMeter.sample"),
)

#: Scheduling-session methods wrapped on the base class and on every
#: subclass that overrides them.
_DLS_METHODS = ("next_chunk", "record", "requeue", "retire")


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every (transitive) subclass, in definition order."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(s for s in _subclasses(sub) if s not in out)
    return out


@dataclass
class PassCounts:
    """Counts taken from arguments and return values at the boundaries."""

    chunks: int = 0                 # chunks dispatched by run_parallel_loop
    parallel_iters: int = 0         # parallel iterations executed
    crashes: int = 0                # crashed workers
    requeued_iters: int = 0         # iterations handed back by requeue
    dls_iters: int = 0              # iterations handed out by next_chunk
    dls_chunks: int = 0             # non-empty next_chunk answers
    pmf_points_out: int = 0         # support size of returned PMFs
    ra_evaluations: int = 0         # RAResult.evaluations, outermost searches


class LayerTracer:
    """Installs the wrappers and owns the span arrays of the current pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.fids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.on = False
        self.counts = PassCounts()
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every target; idempotent per process."""
        if self._patched:
            return
        for layer, module_name, attr in _TARGETS:
            owner: Any = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            self._patch(layer, owner, name, attr)
        dls_base = importlib.import_module("repro.dls.base").SchedulingSession
        importlib.import_module("repro.dls")  # registers every session class
        for cls in _subclasses(dls_base):
            for name in _DLS_METHODS:
                if name in cls.__dict__:
                    self._patch("dls", cls, name, f"{cls.__name__}.{name}")
        ra_base = importlib.import_module("repro.ra.base").RAHeuristic
        importlib.import_module("repro.ra")
        for cls in _subclasses(ra_base):
            if "allocate" in cls.__dict__:
                self._patch("ra", cls, "allocate", f"{cls.__name__}.allocate")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, layer: str, owner: Any, name: str, label: str) -> None:
        # Take a class's own attribute (not an inherited one) so that
        # uninstall restores exactly what was there.
        original = (
            owner.__dict__[name] if isinstance(owner, type)
            else getattr(owner, name)
        )
        fid = len(self.names)
        self.names.append(label)
        self.layer_of.append(layer)
        observe = self._observer(label)
        setattr(owner, name, self._wrap(original, fid, observe))
        self._patched.append((owner, name, original))

    def _wrap(
        self, fn: Callable[..., Any], fid: int,
        observe: Callable[[tuple[Any, ...], Any, int], None] | None,
    ) -> Callable[..., Any]:
        tracer = self
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(fids)
            parent = stack[-1] if stack else -1
            fids.append(fid)
            parents.append(parent)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, out, fids[parent] if parent >= 0 else -1)
            return out

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    # ---------------------------------------------------------- observers

    def _observer(
        self, label: str
    ) -> Callable[[tuple[Any, ...], Any, int], None] | None:
        """Per-call bookkeeping on arguments/results (outermost calls)."""
        method = label.rsplit(".", 1)[-1]
        same_method = self._same_method

        if label == "run_parallel_loop":
            def observe(args: tuple[Any, ...], out: Any, parent: int) -> None:
                c = self.counts
                c.chunks += len(out.chunks)
                c.parallel_iters += out.executed
                c.crashes += len(out.crashed)
            return observe
        if method == "next_chunk":
            def observe(args: tuple[Any, ...], out: Any, parent: int) -> None:
                if out > 0 and not same_method(parent, "next_chunk"):
                    c = self.counts
                    c.dls_iters += out
                    c.dls_chunks += 1
            return observe
        if method == "requeue":
            def observe(args: tuple[Any, ...], out: Any, parent: int) -> None:
                if not same_method(parent, "requeue"):
                    self.counts.requeued_iters += args[1]
            return observe
        if label in (
            "Application.parallel_time_pmf", "dilate_by_availability",
            "max_independent",
        ):
            def observe(args: tuple[Any, ...], out: Any, parent: int) -> None:
                self.counts.pmf_points_out += out.values.size
            return observe
        if method == "allocate":
            def observe(args: tuple[Any, ...], out: Any, parent: int) -> None:
                if not self._inside_allocate():
                    self.counts.ra_evaluations += out.evaluations
            return observe
        return None

    def _same_method(self, fid: int, method: str) -> bool:
        return fid >= 0 and self.names[fid].endswith("." + method)

    def _inside_allocate(self) -> bool:
        names = self.names
        return any(
            names[self.fids[i]].endswith(".allocate") for i in self.stack
        )

    # ---------------------------------------------------------- lifecycle

    @contextmanager
    def tracing(self) -> Iterator[None]:
        """Record one pass: clears the previous pass's spans first."""
        for arr in (self.fids, self.parents, self.starts, self.ends):
            del arr[:]
        self.stack.clear()
        self.counts = PassCounts()
        self.on = True
        try:
            yield
        finally:
            self.on = False

    # ---------------------------------------------------------- analysis

    def spans(self) -> dict[str, np.ndarray]:
        """The current pass's spans as numpy arrays (copies)."""
        return {
            "fid": np.array(self.fids, dtype=np.int32),
            "parent": np.array(self.parents, dtype=np.int64),
            "start": np.array(self.starts, dtype=np.float64),
            "end": np.array(self.ends, dtype=np.float64),
        }

    def profile(self) -> "PassProfile":
        """Fold the current pass's spans into per-function totals."""
        s = self.spans()
        n_fn = len(self.names)
        dur = s["end"] - s["start"]
        nested = s["parent"] >= 0
        child = np.bincount(
            s["parent"][nested], weights=dur[nested], minlength=dur.size
        )
        self_t = dur - child
        return PassProfile(
            names=list(self.names),
            layer_of=list(self.layer_of),
            calls=np.bincount(s["fid"], minlength=n_fn).astype(np.int64),
            total_s=np.bincount(s["fid"], weights=dur, minlength=n_fn),
            self_s=np.bincount(s["fid"], weights=self_t, minlength=n_fn),
            counts=self.counts,
        )

    def write_spans(self, path: Path) -> None:
        """Write the current pass's spans (and the function table) out."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            **self.spans(),
        )


@dataclass
class PassProfile:
    """Per-function totals of one traced pass."""

    names: list[str]
    layer_of: list[str]
    calls: np.ndarray
    total_s: np.ndarray
    self_s: np.ndarray
    counts: PassCounts

    def _index(self, label: str) -> int:
        return self.names.index(label)

    def calls_of(self, label: str) -> int:
        return int(self.calls[self._index(label)])

    def total_of(self, label: str) -> float:
        return float(self.total_s[self._index(label)])

    def layer_calls(self, layer: str) -> int:
        return int(sum(
            c for c, l in zip(self.calls, self.layer_of) if l == layer
        ))

    def layer_self(self, layer: str) -> float:
        return float(sum(
            s for s, l in zip(self.self_s, self.layer_of) if l == layer
        ))

    def top(self, k: int = 12) -> list[dict[str, object]]:
        """The ``k`` functions with the largest self time."""
        order = np.argsort(-self.self_s)[:k]
        return [
            {
                "name": self.names[i],
                "layer": self.layer_of[i],
                "calls": int(self.calls[i]),
                "self_s": round(float(self.self_s[i]), 6),
                "total_s": round(float(self.total_s[i]), 6),
            }
            for i in order
            if self.calls[i] > 0
        ]


def layer_metrics(
    profile: PassProfile, wall_s: float, cache: dict[str, int]
) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see ``BENCHMARK.json``)."""
    c = profile.counts
    m: dict[str, float] = {}
    self_of = {layer: profile.layer_self(layer) for layer in LAYERS}
    stage_ii_self = sum(self_of[l] for l in STAGE_II_LAYERS)
    m["sim.chunks"] = c.chunks
    m["sim.self_s"] = self_of["sim"]
    m["sim.us_per_chunk"] = 1e6 * stage_ii_self / c.chunks if c.chunks else 0.0
    m["system.calls"] = profile.layer_calls("system")
    m["system.self_s"] = self_of["system"]
    m["dls.calls"] = profile.layer_calls("dls")
    m["dls.self_s"] = self_of["dls"]
    m["dls.iters_per_chunk"] = c.dls_iters / c.dls_chunks if c.dls_chunks else 0.0
    m["apps.draws"] = profile.calls_of("IterationTimeModel.draw")
    m["apps.self_s"] = self_of["apps"]
    m["faults.calls"] = profile.layer_calls("faults")
    m["faults.self_s"] = self_of["faults"]
    m["faults.crashes"] = c.crashes
    m["faults.requeued_iters"] = c.requeued_iters
    m["sim.parallel_iters"] = c.parallel_iters
    m["faults.wasted_frac"] = (
        c.requeued_iters / c.parallel_iters if c.parallel_iters else 0.0
    )
    m["pmf.calls"] = profile.layer_calls("pmf")
    m["pmf.self_s"] = self_of["pmf"]
    m["pmf.points_out"] = c.pmf_points_out
    m["ra.evaluations"] = c.ra_evaluations
    m["ra.self_s"] = self_of["ra"]
    prob_lookups = cache["prob_hits"] + cache["prob_misses"]
    pmf_lookups = cache["pmf_hits"] + cache["pmf_misses"]
    m["ra.prob_lookups"] = prob_lookups
    m["ra.prob_hit_ratio"] = cache["prob_hits"] / prob_lookups if prob_lookups else 0.0
    m["ra.pmf_lookups"] = pmf_lookups
    m["ra.pmf_hit_ratio"] = cache["pmf_hits"] / pmf_lookups if pmf_lookups else 0.0
    m["exec.tasks"] = profile.calls_of("ReplicateTask.run")
    m["exec.self_s"] = self_of["exec"]
    m["framework.stage_i_s"] = profile.total_of("CDSF.run_stage_i")
    m["framework.stage_ii_s"] = profile.total_of("CDSF.run_stage_ii")
    m["framework.self_s"] = self_of["framework"]
    m["traced.wall_s"] = wall_s
    m["traced.unattributed_s"] = wall_s - sum(self_of.values())
    m["split.stage_ii_frac"] = stage_ii_self / wall_s
    m["split.stage_i_frac"] = sum(self_of[l] for l in STAGE_I_LAYERS) / wall_s
    return m


def cross_check(
    profile: PassProfile, counters: dict[str, float], cache: dict[str, int]
) -> list[str]:
    """Mismatches between wrapped call counts and ``repro.obs`` counters.

    Each pair counts the same event from two sides: the program's own
    counter (emitted inside the layer) and the benchmark's wrapper at the
    call site. A mismatch means a call path escaped the wrappers.
    """
    c = profile.counts
    pairs = (
        ("pmf.dilations", counters.get("pmf.dilations", 0.0),
         profile.calls_of("dilate_by_availability")),
        ("sim.loop.events", counters.get("sim.loop.events", 0.0),
         profile.calls_of("EventQueue.pop")),
        ("ra.prob_cache.hit+miss",
         counters.get("ra.prob_cache.hit", 0.0)
         + counters.get("ra.prob_cache.miss", 0.0),
         profile.calls_of("StageIEvaluator.app_deadline_prob")),
        ("ra.prob_cache.hit", counters.get("ra.prob_cache.hit", 0.0),
         cache["prob_hits"]),
        ("ra.prob_cache.miss", counters.get("ra.prob_cache.miss", 0.0),
         cache["prob_misses"]),
        ("faults.rescheduled", counters.get("faults.rescheduled", 0.0),
         c.requeued_iters),
    )
    return [
        f"{name}: repro.obs counted {int(theirs)}, wrappers counted {ours}"
        for name, theirs, ours in pairs
        if int(theirs) != int(ours)
    ]
