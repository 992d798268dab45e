"""Environment fingerprinting for run manifests and benchmark records.

A performance number without its environment is noise: the run store
(:mod:`repro.obs.runs`) stamps every manifest with :func:`env_fingerprint`,
and the benchmark (``cdsfbench/``) records the same fingerprint beside
its measurements, so a regression can be told apart from a hardware
change.

The fingerprint distinguishes three CPU counts that ad-hoc callers kept
conflating (``benchmarks/results/parallel_scale.json`` once recorded
``cpu_count: 1`` for a 4-worker run):

* ``cpu_logical`` — hardware threads the OS reports (``os.cpu_count()``);
* ``cpu_physical`` — physical cores (from ``/proc/cpuinfo`` where
  available, else the logical count);
* ``cpu_available`` — CPUs this *process* may actually run on
  (``os.sched_getaffinity``), the number that governs pool speedups in
  containers and under ``taskset``.

Wall-clock timestamps (:func:`utc_stamp`) live here too, inside the one
package lint rule ``OBS002`` allows to read the clock.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time

from .._version import __version__

__all__ = [
    "env_fingerprint",
    "cpu_counts",
    "git_revision",
    "utc_stamp",
]


def utc_stamp(epoch: float | None = None) -> str:
    """``epoch`` (default: now) as a ``YYYY-mm-ddTHH:MM:SSZ`` UTC string."""
    if epoch is None:
        epoch = time.time()
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))


def _physical_cpu_count() -> int | None:
    """Physical cores from ``/proc/cpuinfo``, or None when unreadable."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        return None
    cores: set[tuple[str, str]] = set()
    physical_id = ""
    for line in text.splitlines():
        if ":" not in line:
            continue
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "physical id":
            physical_id = value
        elif key == "core id":
            cores.add((physical_id, value))
    return len(cores) or None


def cpu_counts() -> dict[str, int]:
    """Logical, physical, and affinity-available CPU counts (all >= 1)."""
    logical = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        available = len(os.sched_getaffinity(0)) or 1
    else:  # pragma: no cover - non-Linux fallback
        available = logical
    physical = _physical_cpu_count() or logical
    return {
        "cpu_logical": logical,
        "cpu_physical": physical,
        "cpu_available": available,
    }


def git_revision() -> str | None:
    """The current checkout's HEAD sha, or None outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def env_fingerprint(*, workers: int | str | None = None) -> dict[str, object]:
    """One JSON-ready snapshot of the execution environment.

    Included in every :class:`~repro.obs.runs.RunRecorder` manifest and
    every benchmark record so results are comparable across time:
    interpreter, platform, the three CPU counts (see module docstring),
    the git sha of the working tree (None outside a checkout), and the
    ``workers`` knob when the caller passes it.
    """
    fingerprint: dict[str, object] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        **cpu_counts(),
        "git_sha": git_revision(),
        "repro_version": __version__,
    }
    if workers is not None:
        fingerprint["workers"] = workers
    return fingerprint


def _main() -> int:  # pragma: no cover - debugging aid
    import json

    sys.stdout.write(json.dumps(env_fingerprint(), indent=2) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_main())
