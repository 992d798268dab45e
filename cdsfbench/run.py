"""CDSF benchmark: one workload, end-to-end or traced per layer.

Usage (from the repository root)::

    python3 cdsfbench/run.py --workload paper-cdsf --seed 2012 --seconds 20 --trace 0

Workloads: ``paper-cdsf``, ``stage1-search``, ``chaos-sweep`` (see
``cdsfbench/workloads.py`` for why each exists and the layer split each
should show). The default seed (2012) reproduces the paper's numbers;
seed 4099 is held out for verifying later performance claims.

``--trace 0`` measures the end-to-end metrics with no tracing: two
set-up-only children and one measuring child, each a fresh interpreter
(set-up is timed from spawn to ready, as a user pays it on every
invocation). ``--trace 1`` runs an untraced baseline child and a traced
child, and reports the per-layer metrics; the two never share a process,
so no wrapper leaks into a timed pass. End-to-end times are reported at
reference machine speed (see ``cdsfbench/speed.py``); the raw times are
printed and recorded beside them.

Every run checks the program's outputs. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a human-readable report. The full
record, with the environment fingerprint, is also written to
``.bench_out/<workload>.trace<0|1>.json``. The script exits non-zero,
printing no result, when a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".bench_out"

#: Default workload seed: reproduces the paper's numbers.
DEFAULT_SEED = 2012

#: Extra set-up-only children in an end-to-end run (plus the measuring one).
SETUP_CHILDREN = 2

#: Share of ``--seconds`` the untraced baseline child gets in a traced run.
BASELINE_SHARE = 1 / 3

#: Wall-clock limit of one whole run, children included.
RUN_LIMIT_S = 170.0

#: Metric names and units, in report order (``BENCHMARK.json`` is the
#: one definition the benchmark and its checker share).
SPEC_PATH = ROOT / "BENCHMARK.json"


def metric_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads(SPEC_PATH.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class ChildError(RuntimeError):
    """A benchmark child failed, timed out, or printed no result."""


def child_env() -> dict[str, str]:
    """The parent's environment with every code-path switch pinned.

    ``REPRO_*`` variables (``REPRO_OBS``, ``REPRO_TRACE``,
    ``REPRO_VALIDATE``, ``REPRO_WORKERS``, ``REPRO_PROF``,
    ``REPRO_SERVE``, ...) are removed so the program runs its default
    serial, unobserved path; numeric libraries get one thread; git does
    not look above the checkout for the environment fingerprint.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        GIT_CEILING_DIRECTORIES=str(ROOT.parent),
    )
    return env


def run_child(
    workload: str, seed: int, mode: str, seconds: float, deadline: float
) -> tuple[float, dict[str, Any] | None]:
    """Run one worker; return (spawn-to-READY seconds, its JSON record)."""
    cmd = [
        sys.executable, str(WORKER), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", f"{seconds:.3f}",
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    ready: float | None = None
    record: dict[str, Any] | None = None
    try:
        with selectors.DefaultSelector() as sel:
            assert proc.stdout is not None
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.perf_counter()
                if left <= 0:
                    raise ChildError(f"{mode} child of {workload} timed out")
                if not sel.select(timeout=left):
                    continue
                line = proc.stdout.readline()
                if not line:
                    break
                if line.strip() == "READY" and ready is None:
                    ready = time.perf_counter() - t0
                elif line.startswith("{"):
                    record = json.loads(line)
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
    if code != 0 or ready is None or record is None:
        raise ChildError(f"{mode} child of {workload} failed (exit {code})")
    return ready, record


def _finite(values: list[float]) -> list[float]:
    return [v for v in values if v == v]


def _deciles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=10, method="inclusive")


def _checks(*records: dict[str, Any] | None) -> tuple[int, int, list[str]]:
    """Operations attempted/failed and problems over passes and verifies."""
    attempted = failed = 0
    problems: list[str] = []
    for record in records:
        if record is None:
            continue
        passes = list(record["passes"])
        passes += [p for p in (record.get("verify"), record.get("check_pass")) if p]
        for p in passes:
            attempted += p["ops"]
            failed += p["failed"]
            problems += p["problems"]
    return attempted, failed, problems


def _scaled(p: dict[str, Any], key: str) -> float:
    """A pass's raw time scaled to reference machine speed."""
    return p[key] * p["speed"]


def end_to_end(
    workload: str, seed: int, seconds: float, deadline: float
) -> tuple[dict[str, float], dict[str, Any]]:
    children = [
        run_child(workload, seed, "setup", 0.0, deadline)
        for _ in range(SETUP_CHILDREN)
    ]
    children.append(run_child(workload, seed, "timed", seconds, deadline))
    record = children[-1][1]
    raw_setups = [ready for ready, _ in children]
    setups = [ready * rec["setup"]["speed"] for ready, rec in children]
    passes = [p for p in record["passes"] if p["wall_s"] == p["wall_s"]]
    units = [
        1000.0 * u * speed
        for p in passes
        for u, speed in zip(p["unit_s"], p["unit_speed"])
    ]
    deciles = _deciles(units)
    attempted, failed, _ = _checks(record)
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(_scaled(p, "wall_s") for p in passes),
        "evals_per_s": statistics.median(
            p["evaluations"] / (p["stage_i_s"] * p["stage_i_speed"])
            for p in passes
        ),
        "units_per_s": statistics.median(
            len(p["unit_s"]) / _scaled(p, "main_s") for p in passes
        ),
        "unit_ms.p50": deciles[4],
        "unit_ms.p90": deciles[8],
        "peak_rss_mb": record["peak_rss_mb"],
        "ok_frac": 1.0 - failed / attempted,
    }
    info = {
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "raw_solve_s": statistics.median(p["wall_s"] for p in passes),
        "pass_speeds": [p["speed"] for p in passes],
        "passes": len(passes),
        "unit_samples": len(units),
        "unit_samples_beyond_p90": sum(1 for u in units if u > deciles[8]),
    }
    return metrics, {"record": record, **info}


def traced(
    workload: str, seed: int, seconds: float, deadline: float
) -> tuple[dict[str, float], dict[str, Any]]:
    _, base = run_child(
        workload, seed, "baseline", seconds * BASELINE_SHARE, deadline
    )
    _, record = run_child(
        workload, seed, "traced", seconds * (1 - BASELINE_SHARE), deadline
    )
    assert base is not None and record is not None
    layers = record["layers"]
    metrics = {
        name: statistics.median(row[name] for row in layers)
        for name in layers[0]
    }
    untraced_s = statistics.median(
        _finite([_scaled(p, "wall_s") for p in base["passes"]])
    )
    traced_s = statistics.median(
        _finite([_scaled(p, "wall_s") for p in record["passes"]])
    )
    metrics["obs.trace_overhead_frac"] = traced_s / untraced_s - 1.0
    return metrics, {"record": record, "baseline": base}


def report(
    workload: str, seed: int, trace: int, metrics: dict[str, float],
    units: dict[str, str], info: dict[str, Any], problems: list[str],
) -> None:
    """Human-readable lines printed before the JSON result line."""
    record = info["record"]
    print(f"# cdsfbench {workload} seed={seed} trace={trace}")
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:16.6g} {unit}")
    if trace == 0:
        print(
            f"passes={info['passes']} unit samples={info['unit_samples']} "
            f"(beyond p90: {info['unit_samples_beyond_p90']}) "
            f"setup samples={[round(s, 3) for s in info['setup_samples_s']]}"
        )
        print(
            f"raw (unscaled) solve_s={info['raw_solve_s']:.4f} "
            f"setup samples={[round(s, 3) for s in info['raw_setup_samples_s']]} "
            f"pass speed factors={[round(f, 3) for f in info['pass_speeds']]}"
        )
    else:
        cc = record["cross_check"]
        status = "ok" if not cc["mismatches"] else "MISMATCH"
        print(f"cross-check vs repro.obs counters: {status} {cc['counters']}")
        for line in cc["mismatches"]:
            print(f"  {line}")
        print(f"predicted split: {json.dumps(record['predicted_split'])}")
        print("top self time (last traced pass):")
        for row in record["top"]:
            print(
                f"  {row['layer']:9s} {row['name']:40s} "
                f"calls={row['calls']:>8} self={row['self_s']:.4f}s"
            )
    notes = [p.get("notes") for p in record["passes"] if p.get("notes")]
    if notes:
        print(f"notes (first pass): {json.dumps(notes[0], sort_keys=True)}")
    for line in problems[:20]:
        print(f"CHECK FAILED: {line}")
    env = record["env"]
    print(
        "env: "
        + " ".join(f"{k}={env[k]}" for k in sorted(env) if env[k] is not None)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    measure = traced if args.trace else end_to_end
    try:
        metrics, info = measure(args.workload, args.seed, args.seconds, deadline)
        units = metric_units("per_layer" if args.trace else "end_to_end")
        attempted, failed, problems = _checks(
            info["record"], info.get("baseline")
        )
        mismatches = info["record"].get("cross_check", {}).get("mismatches", [])
    except (ChildError, json.JSONDecodeError, KeyError, ZeroDivisionError,
            statistics.StatisticsError) as exc:
        sys.stderr.write(f"cdsfbench: {exc}\n")
        return 1
    correct = failed == 0 and not problems and not mismatches
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps({"result": result, "seed": args.seed, **info}, indent=1)
    )
    report(args.workload, args.seed, args.trace, metrics, units, info, problems)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
