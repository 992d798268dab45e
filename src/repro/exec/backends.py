"""Execution backends: where tasks run.

An :class:`ExecutionBackend` consumes a sequence of picklable tasks
(anything with a pure ``run()``) and returns their results **in task
order**. Because every task carries its own derived seeds, results are
bit-for-bit identical across backends — the backend only chooses *where*
the work happens:

* :class:`SerialBackend` — in-process, in order. The zero-overhead
  default; observability spans nest naturally into the caller's trace.
* :class:`ProcessPoolBackend` — a persistent
  :class:`concurrent.futures.ProcessPoolExecutor`. When observation is
  active in the parent, each task runs under a worker-local observation
  session whose span records and metrics are merged into the parent
  trace on join, every adopted span tagged with a ``worker`` (pid)
  attribute. A broken pool (killed worker) is rebuilt and the
  unfinished tasks re-submitted — see the class docstring.

:func:`get_backend` resolves the default worker count from the
``REPRO_WORKERS`` environment variable (CLI flag ``--workers`` wins), so
``REPRO_WORKERS=4 python -m repro scenario 4`` parallelizes the study
grid with no code changes.

This module is the one place in the library allowed to import
``concurrent.futures``/``multiprocessing`` (lint rule ``EXEC001``).
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from .. import obs
from ..errors import ExecutionError
from .tasks import Task

__all__ = [
    "ENV_WORKERS",
    "MAX_POOL_REBUILDS",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "get_backend",
    "default_workers",
    "parse_workers",
    "fan_out_ranges",
]

#: Environment variable selecting the default worker count.
ENV_WORKERS = "REPRO_WORKERS"

#: Times a broken process pool is rebuilt before a batch is abandoned.
MAX_POOL_REBUILDS = 3

#: Base pause before rebuilding a broken pool (doubles per rebuild).
_REBUILD_BACKOFF = 0.05


def parse_workers(raw: str | int, *, source: str = "workers") -> int:
    """Parse a worker-count spec into a concrete positive count.

    Accepts a positive integer, or ``"auto"`` / ``0`` meaning "one worker
    per CPU core" (``os.cpu_count()``). ``source`` names the offending
    setting in error messages.
    """
    if isinstance(raw, str) and raw.strip().lower() == "auto":
        return os.cpu_count() or 1
    try:
        workers = int(raw)
    except (TypeError, ValueError):
        raise ExecutionError(
            f"{source} must be a positive integer, 0, or 'auto', got {raw!r}"
        ) from None
    if workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ExecutionError(
            f"{source} must be a positive integer, 0, or 'auto', got {raw!r}"
        )
    return workers


def default_workers() -> int:
    """The worker count implied by ``REPRO_WORKERS`` (1 when unset).

    ``REPRO_WORKERS=auto`` (or ``0``) resolves to ``os.cpu_count()``.
    """
    raw = os.environ.get(ENV_WORKERS, "").strip()
    if not raw:
        return 1
    return parse_workers(raw, source=ENV_WORKERS)


class ExecutionBackend(ABC):
    """Executes task batches; results come back in task order."""

    #: Registry-friendly identifier; subclasses override.
    name: str = "abstract"

    @abstractmethod
    def run_tasks(self, tasks: Sequence[Task]) -> list[Any]:
        """Run every task; return their results in task order."""

    @property
    def workers(self) -> int:
        """Degree of parallelism (1 for serial execution)."""
        return 1

    def close(self) -> None:
        """Release any held resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(ExecutionBackend):
    """In-process, in-order execution (the default)."""

    name = "serial"

    def run_tasks(self, tasks: Sequence[Task]) -> list[Any]:
        return [task.run() for task in tasks]


# --------------------------------------------------------------------- pool
#
# The functions below are module-level so they pickle by reference under
# both fork and spawn start methods.


def _worker_init() -> None:
    """Reset inherited state in a fresh pool worker.

    Under the fork start method the child inherits the parent's active
    observation session; recording into that copy would silently drop
    spans (the parent never sees the child's object). Workers therefore
    always start unobserved and opt in per task.
    """
    if obs.obs_enabled():
        obs.stop(export=False)


def _run_plain(task: Task) -> Any:
    return task.run()


def _run_observed(task: Task) -> tuple[Any, int, list[dict[str, object]], Any]:
    """Run one task under a worker-local observation session.

    Returns ``(result, worker pid, span records, metrics registry)`` for
    the parent to merge on join.
    """
    session = obs.start()
    try:
        result = task.run()
    finally:
        obs.stop(export=False)
    return result, os.getpid(), session.tracer.records(), session.metrics


#: Placeholder for a task slot whose result has not been produced yet.
_UNFINISHED = object()


class ProcessPoolBackend(ExecutionBackend):
    """Fan tasks out over a persistent process pool.

    The executor is created lazily on first use and reused across
    ``run_tasks`` calls (a study submits one batch per availability
    case); ``close()`` shuts it down. Tasks are submitted individually
    and collected in task order — combined with per-task seeds this
    makes pool output bit-for-bit identical to :class:`SerialBackend`.

    The pool is resilient to worker death: when the executor breaks
    (a worker was OOM-killed, segfaulted, or the machine shed the
    process), the backend rebuilds it after a short backoff and
    re-submits only the unfinished tasks, up to
    :data:`MAX_POOL_REBUILDS` times. Tasks are pure functions of their
    own pre-derived seeds, so re-running one is safe and yields the
    identical result. A task that *raises* is not retried — the error
    is deterministic — and surfaces as an :class:`ExecutionError`
    naming the failing task.
    """

    name = "process-pool"

    def __init__(self, workers: int | str | None = None) -> None:
        if workers is None:
            workers = default_workers()
        else:
            workers = parse_workers(workers)
        self._workers = workers
        self._executor: ProcessPoolExecutor | None = None

    @property
    def workers(self) -> int:
        return self._workers

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._workers, initializer=_worker_init
            )
        return self._executor

    def _discard_executor(self) -> None:
        """Drop a broken executor so the next use builds a fresh pool."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def run_tasks(self, tasks: Sequence[Task]) -> list[Any]:
        tasks = list(tasks)
        if not tasks:
            return []
        session = obs.current()
        run = _run_plain if session is None else _run_observed
        results: list[Any] = [_UNFINISHED] * len(tasks)
        pending = list(range(len(tasks)))
        rebuilds = 0
        while pending:
            executor = self._ensure_executor()
            futures = {i: executor.submit(run, tasks[i]) for i in pending}
            unfinished: list[int] = []
            for i in pending:
                try:
                    out = futures[i].result()
                except BrokenProcessPool:
                    # The pool died under this task (or while it was
                    # queued behind the death) — re-submit after rebuild.
                    unfinished.append(i)
                    continue
                except Exception as exc:
                    raise ExecutionError(
                        f"task {i + 1}/{len(tasks)} "
                        f"({type(tasks[i]).__name__}) failed in the "
                        f"process pool: {exc}"
                    ) from exc
                if session is None:
                    results[i] = out
                else:
                    result, worker, records, metrics = out
                    # Spans AND events come back: worker-side sim.chunk /
                    # fault events keep their remapped sim.app parents,
                    # so run-store timelines cover pool runs too.
                    adopted = session.tracer.adopt_records(
                        records, attributes={"worker": worker}
                    )
                    session.metrics.merge(metrics)
                    obs.incr("exec.tasks")
                    obs.incr("exec.adopted_spans", float(len(adopted)))
                    results[i] = result
            pending = unfinished
            if pending:
                rebuilds += 1
                if rebuilds > MAX_POOL_REBUILDS:
                    raise ExecutionError(
                        f"process pool broke {rebuilds} times; giving up "
                        f"with {len(pending)} of {len(tasks)} tasks "
                        "unfinished"
                    )
                if session is not None:
                    obs.incr("exec.retries", float(len(pending)))
                self._discard_executor()
                time.sleep(_REBUILD_BACKOFF * (2 ** (rebuilds - 1)))
        return results

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def fan_out_ranges(
    n_items: int, backend: ExecutionBackend | None
) -> list[tuple[int, int]] | None:
    """The one fan-out rule: how ``n_items`` split over ``backend``.

    Returns ``None`` — stay in-process — when there is no backend, one
    worker, or fewer than two items per worker. Otherwise returns two
    contiguous ``(lo, hi)`` ranges per worker, tiling ``[0, n_items)``
    in order, so each worker has a second task queued behind its first.
    """
    if backend is None or backend.workers <= 1 or n_items < 2 * backend.workers:
        return None
    n_ranges = 2 * backend.workers
    bounds = [(n_items * k) // n_ranges for k in range(n_ranges + 1)]
    return list(zip(bounds, bounds[1:]))


def get_backend(workers: int | str | None = None) -> ExecutionBackend:
    """Resolve a backend from an explicit worker count or the environment.

    ``workers=None`` consults ``REPRO_WORKERS``; ``0`` means "all CPU
    cores" (like ``REPRO_WORKERS=auto``). A resolved count of 1 (the
    default) yields a :class:`SerialBackend`, anything larger a
    :class:`ProcessPoolBackend`.
    """
    if workers is None:
        workers = default_workers()
    else:
        workers = parse_workers(workers)
    if workers == 1:
        return SerialBackend()
    return ProcessPoolBackend(workers)
