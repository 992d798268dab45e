"""One benchmark child process: set up a workload, then run its passes.

``run.py`` starts this script in a fresh interpreter with every
``REPRO_*`` variable removed, so each child is one clean user
invocation. The child prints ``READY`` once set-up is done (the parent
times set-up as spawn-to-READY) and one JSON record line when it
finishes.

Modes:

* ``setup`` — set up and exit (extra set-up samples);
* ``timed`` — passes for ``--seconds``, then the workload's untimed
  verification pass, if it has one;
* ``baseline`` — passes for ``--seconds`` (the untimed-trace reference
  of a traced run);
* ``traced`` — install the per-layer wrappers, run one pass with the
  program's ``repro.obs`` metrics on to cross-check call counts, then
  traced passes for ``--seconds``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import sys
import time
import traceback
from collections.abc import Callable, Iterator
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, ContextManager

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Fewest passes a run measures, however short ``--seconds`` is: three
#: for an end-to-end median; two in a traced run, whose per-layer counts
#: repeat exactly and whose times need no bound.
MIN_PASSES = {"timed": 3, "baseline": 2, "traced": 2}

#: Speed probes taken right after set-up.
SETUP_PROBES = 10


def _fail(message: str) -> int:
    sys.stderr.write(f"cdsfbench worker: {message}\n")
    return 2


def _run_checked(
    workload: Any, during: Callable[[], ContextManager[Any]] = nullcontext
) -> Any:
    """One pass plus its output checks; a pass that raises fails whole.

    ``during`` wraps the pass itself (tracing, observation) and never
    the checks, whose extra program calls must not be counted.
    """
    from workloads import PassResult

    try:
        with during():
            out, raw = workload.run_pass()
    except Exception:  # noqa: BLE001 - a failing pass is a measured outcome
        traceback.print_exc()
        return PassResult(
            wall_s=float("nan"), stage_i_s=float("nan"), evaluations=0,
            main_s=float("nan"), unit_s=[], ops=workload.ops_per_pass,
            failed=workload.ops_per_pass, problems=["pass raised"],
        )
    workload.check(out, raw)
    return out


def _loop(
    workload: Any, seconds: float, min_passes: int,
    during: Callable[[], ContextManager[Any]] = nullcontext,
    on_pass: Callable[[Any], None] | None = None,
) -> list[Any]:
    passes = []
    end = time.perf_counter() + seconds
    while True:
        gc.collect()
        out = _run_checked(workload, during)
        passes.append(out)
        if on_pass is not None:
            on_pass(out)
        if len(passes) >= min_passes and time.perf_counter() >= end:
            return passes


def _traced(workload: Any, seconds: float, name: str) -> dict[str, Any]:
    import repro.obs as obs
    from layers import LayerTracer, cross_check, layer_metrics

    tracer = LayerTracer()
    tracer.install()
    counters: dict[str, float] = {}

    @contextmanager
    def observed_and_traced() -> Iterator[None]:
        session = obs.start()  # no trace path: nothing is written
        try:
            with tracer.tracing():
                yield
        finally:
            obs.stop(export=False)
            counters.update(session.metrics.snapshot()["counters"])

    # Cross-check pass: the program's own counters on. It is excluded
    # from the per-layer figures, since repro.obs adds its own cost.
    check_pass = _run_checked(workload, observed_and_traced)
    mismatches = cross_check(tracer.profile(), counters, check_pass.cache)

    layers: list[dict[str, float]] = []
    top: list[dict[str, object]] = []

    def fold(out: Any) -> None:
        nonlocal top
        profile = tracer.profile()
        layers.append(layer_metrics(profile, out.wall_s, out.cache))
        top = profile.top()

    passes = _loop(
        workload, seconds, MIN_PASSES["traced"], tracer.tracing, on_pass=fold
    )
    tracer.write_spans(OUT_DIR / f"{name}.spans.npz")
    tracer.uninstall()
    return {
        "check_pass": dataclasses.asdict(check_pass),
        "passes": [dataclasses.asdict(p) for p in passes],
        "layers": layers,
        "cross_check": {
            "mismatches": mismatches,
            "counters": {
                k: counters.get(k, 0.0) for k in (
                    "pmf.dilations", "sim.loop.events", "ra.prob_cache.hit",
                    "ra.prob_cache.miss", "faults.rescheduled",
                )
            },
        },
        "top": top,
        "predicted_split": workload.predicted_split,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument(
        "--mode", choices=("setup", "timed", "baseline", "traced"),
        required=True,
    )
    args = parser.parse_args(argv)

    leaked = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if leaked:
        return _fail(f"REPRO_* variables must be cleared, found {leaked}")
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    import repro.obs as obs

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        return _fail(f"imported repro from {repro.__file__}, not {SRC}")
    if obs.obs_enabled():
        return _fail("repro.obs is active in a benchmark child")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(
            f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    print("READY", flush=True)
    # Machine speed right after set-up scales the parent's set-up time.
    from speed import SpeedMeter

    setup_meter = SpeedMeter()
    for _ in range(SETUP_PROBES):
        setup_meter.sample()
    setup = {"speed": setup_meter.speed()}
    if args.mode == "setup":
        print(json.dumps({"setup": setup}), flush=True)
        return 0

    if args.mode == "traced":
        record = _traced(workload, args.seconds, args.workload)
    else:
        passes = _loop(workload, args.seconds, MIN_PASSES[args.mode])
        record = {"passes": [dataclasses.asdict(p) for p in passes]}
    # The verification pass belongs to end-to-end runs; a traced run is
    # checked per pass and by the counter cross-check.
    extra = workload.verify() if args.mode == "timed" else None
    record["verify"] = dataclasses.asdict(extra) if extra is not None else None
    record["setup"] = setup
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    record["env"] = {**obs.env_fingerprint(workers=1), "nproc": os.cpu_count()}
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
