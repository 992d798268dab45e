"""Benchmark: serial-vs-pool wall clock and the stage-I cache hit rate.

Not a paper artifact — the performance contract of :mod:`repro.exec`.
Two claims are measured:

1. **Scaling** — the same stage-II replication fan-out, run once on
   :class:`SerialBackend` and once on a four-worker
   :class:`ProcessPoolBackend`. Results must be bit-for-bit identical
   (always asserted); the >= 2x speedup is asserted only on machines
   with at least four CPUs, since a container pinned to one core cannot
   speed anything up by adding processes.
2. **Cache locality** — a genetic stage-I search on the paper instance
   revisits the same (application, type, size) assignments constantly,
   so the :class:`StageIEvaluator` memo must absorb more than half of
   all probability lookups (asserted everywhere; it does not depend on
   CPU count).

The record is the host's own timings, not an artifact of the paper, so
it goes to the gitignored ``.bench_out/parallel_scale.json`` (CI uploads
it) and a local run leaves the tree clean.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.apps import Application, normal_exectime_model
from repro.dls import make_technique
from repro.exec import ProcessPoolBackend, SerialBackend
from repro.obs import env_fingerprint
from repro.paper import data, paper_batch, paper_system
from repro.pmf import percent_availability
from repro.ra import GeneticAllocator, StageIEvaluator
from repro.sim import LoopSimConfig, replicate_application
from repro.system import HeterogeneousSystem, ProcessorType

#: Replication fan-out sized so the serial leg takes O(seconds).
REPLICATIONS = 64
WORKERS = 4
#: Minimum speedup demanded of the pool when the CPUs exist to back it.
MIN_SPEEDUP = 2.0
#: Minimum fraction of stage-I probability lookups the memo must absorb.
MIN_HIT_RATE = 0.5

CONFIG = LoopSimConfig(overhead=1.0, availability_interval=500.0)

#: Where the record is written (gitignored, beside cdsfbench's outputs).
OUT_DIR = Path(__file__).resolve().parents[1] / ".bench_out"


def make_workload():
    system = HeterogeneousSystem(
        [
            ProcessorType(
                "t", 16,
                availability=percent_availability([(50, 50), (100, 50)]),
            )
        ]
    )
    app = Application(
        "scale-bench", 0, 8192,
        normal_exectime_model({"t": 8192.0}),
        iteration_cv=0.1,
    )
    return app, system.group("t", 8)


def run_replications(backend):
    app, group = make_workload()
    return replicate_application(
        app,
        group,
        make_technique("FAC"),
        replications=REPLICATIONS,
        seed=2012,
        config=CONFIG,
        backend=backend,
    )


def test_bench_parallel_scale(benchmark):
    t0 = time.perf_counter()
    serial_stats = run_replications(SerialBackend())
    serial_wall = time.perf_counter() - t0

    with ProcessPoolBackend(WORKERS) as pool:
        pool.run_tasks([])  # nothing yet; executor starts on first batch
        t0 = time.perf_counter()
        pool_stats = run_replications(pool)
        pool_wall = time.perf_counter() - t0

    assert pool_stats.makespans == serial_stats.makespans, (
        "pool results diverged from serial — backend invariance is broken"
    )
    speedup = serial_wall / pool_wall

    # Stage-I cache hit rate under the genetic search (paper instance).
    evaluator = StageIEvaluator(
        paper_batch(), paper_system("case1"), data.DEADLINE
    )
    GeneticAllocator(population=30, generations=40, rng=1).allocate(evaluator)
    info = evaluator.cache_info()
    lookups = info["prob_hits"] + info["prob_misses"]
    hit_rate = info["prob_hits"] / lookups

    # cpu_available (scheduler affinity) is what actually bounds a pool
    # speedup inside a container pinned to fewer cores than the host has;
    # the old os.cpu_count()-only field conflated it with cpu_logical.
    env = env_fingerprint(workers=WORKERS)
    cpus = int(env["cpu_available"])  # type: ignore[call-overload]
    result = {
        "workload": (
            f"replicate_application(FAC, 8192 iterations, 8 workers, "
            f"{REPLICATIONS} replications)"
        ),
        "env": env,
        "workers": WORKERS,
        "serial_wall_s": serial_wall,
        "pool_wall_s": pool_wall,
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
        "speedup_gated": cpus < WORKERS,
        "stage1_prob_lookups": lookups,
        "stage1_prob_hits": info["prob_hits"],
        "stage1_cache_hit_rate": hit_rate,
        "min_hit_rate": MIN_HIT_RATE,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "parallel_scale.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    print()
    print(
        f"parallel scale: serial {serial_wall:.2f}s, pool({WORKERS}) "
        f"{pool_wall:.2f}s -> {speedup:.2f}x on {cpus} available CPUs "
        f"({env['cpu_logical']} logical, {env['cpu_physical']} physical); "
        f"stage-I cache hit rate {100 * hit_rate:.1f}% "
        f"({info['prob_hits']}/{lookups})"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    assert hit_rate > MIN_HIT_RATE, (
        f"stage-I cache absorbed only {100 * hit_rate:.1f}% of lookups; "
        f"expected > {100 * MIN_HIT_RATE:.0f}%"
    )
    if cpus >= WORKERS:
        assert speedup >= MIN_SPEEDUP, (
            f"pool({WORKERS}) achieved only {speedup:.2f}x over serial on "
            f"{cpus} CPUs; expected >= {MIN_SPEEDUP}x"
        )
