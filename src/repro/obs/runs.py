"""Run-artifact store: durable, diffable records of pipeline invocations.

PR 2 made the pipeline observable; this module makes observations
*persistent*. A :class:`RunRecorder` — enabled by the CLI's ``--run-dir``
flag or the ``REPRO_RUN_DIR`` environment variable — captures one
invocation into a self-contained run directory::

    runs/20260806T120301Z-4711/
        manifest.json       command, args, seed, fault plan, version, wall time
        trace.jsonl         the full span/event/metric trace (schema v2)
        metrics.json        the metrics registry snapshot
        results/
            scenario.json   command-specific result tables (one file per name)

Everything needed to re-analyze the run later — rebuild worker timelines,
render a report, diff against another run — lives in the directory; no
in-process state survives. :class:`RunStore` lists and loads past runs,
:func:`resolve_run` accepts either a run directory path or a run id, and
``repro report`` / ``repro compare`` (see :mod:`repro.obs.report`) are the
one-command consumers.

This module lives under ``repro.obs`` so its wall-clock reads (run ids,
start timestamps, wall time) stay inside the only package the ``OBS002``
lint rule allows to touch the real clock.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import ObservabilityError
from .env import env_fingerprint, utc_stamp
from .spans import read_trace
from .timeline import AppTimeline, timelines_from_records

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from . import Observation

__all__ = [
    "ENV_RUN_DIR",
    "MANIFEST_SCHEMA_VERSION",
    "RunRecorder",
    "RunRecord",
    "RunStore",
    "current_recorder",
    "recording",
    "load_run",
    "resolve_run",
]

#: Environment variable selecting the run-store base directory.
ENV_RUN_DIR = "REPRO_RUN_DIR"

#: Bumped when the manifest layout changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1

_MANIFEST = "manifest.json"
_TRACE = "trace.jsonl"
_METRICS = "metrics.json"
_RESULTS_DIR = "results"


class RunRecorder:
    """Captures one invocation into a fresh run directory.

    The directory is created eagerly (so a crashing run still leaves a
    locatable — if incomplete — artifact); :meth:`finalize` writes the
    manifest, trace, metrics, and result tables exactly once at the end.
    """

    def __init__(
        self,
        base_dir: str | Path,
        *,
        run_id: str | None = None,
        argv: list[str] | None = None,
    ) -> None:
        base = Path(base_dir)
        try:
            base.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            # The base comes from --run-dir / $REPRO_RUN_DIR, e.g. a
            # path naming an existing file: a usage error, not a crash.
            raise ObservabilityError(
                f"cannot create run store {str(base)!r}: {exc.strerror}"
            ) from None
        self._started_wall = time.time()
        self._started_perf = time.perf_counter()
        rid = run_id if run_id is not None else self._fresh_id(base)
        self.path = base / rid
        try:
            self.path.mkdir(parents=False, exist_ok=False)
        except FileExistsError:
            raise ObservabilityError(
                f"run directory {self.path} already exists; "
                "run ids must be unique within a store"
            ) from None
        self.manifest: dict[str, object] = {
            "schema": MANIFEST_SCHEMA_VERSION,
            "run_id": rid,
            "started": utc_stamp(self._started_wall),
            "env": env_fingerprint(),
        }
        if argv is not None:
            self.manifest["argv"] = list(argv)
        self._results: dict[str, object] = {}
        self._finalized = False

    def _fresh_id(self, base: Path) -> str:
        """Timestamp + pid, suffixed on collision (two runs in one second)."""
        stamp = time.strftime(
            "%Y%m%dT%H%M%SZ", time.gmtime(self._started_wall)
        )
        candidate = f"{stamp}-{os.getpid()}"
        rid, n = candidate, 0
        while (base / rid).exists():
            n += 1
            rid = f"{candidate}-{n}"
        return rid

    @property
    def run_id(self) -> str:
        return str(self.manifest["run_id"])

    def annotate(self, **fields: object) -> None:
        """Merge fields into the manifest (command, seed, fault plan, ...)."""
        if self._finalized:
            raise ObservabilityError(
                f"run {self.run_id} already finalized; cannot annotate"
            )
        self.manifest.update(fields)

    def record_result(self, name: str, payload: object) -> None:
        """Stage one JSON-ready result table, written as ``results/<name>.json``."""
        if self._finalized:
            raise ObservabilityError(
                f"run {self.run_id} already finalized; cannot record results"
            )
        if not name or any(c in name for c in "/\\") or name.startswith("."):
            raise ObservabilityError(
                f"result name {name!r} must be a plain file stem"
            )
        self._results[name] = payload

    def finalize(
        self,
        session: "Observation | None" = None,
        *,
        exit_code: int = 0,
    ) -> Path:
        """Write every artifact; returns the run directory.

        ``session`` supplies the trace and metrics snapshot; with None
        (observation never started — e.g. a failed argument parse) the
        manifest and any staged results are still written.
        """
        if self._finalized:
            raise ObservabilityError(
                f"run {self.run_id} already finalized"
            )
        self._finalized = True
        files = [_MANIFEST]
        if session is not None:
            session.export(self.path / _TRACE)
            files.append(_TRACE)
            (self.path / _METRICS).write_text(
                json.dumps(session.metrics.snapshot(), sort_keys=True) + "\n",
                encoding="utf-8",
            )
            files.append(_METRICS)
        if self._results:
            results_dir = self.path / _RESULTS_DIR
            results_dir.mkdir(exist_ok=True)
            for name, payload in sorted(self._results.items()):
                (results_dir / f"{name}.json").write_text(
                    json.dumps(payload, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
                files.append(f"{_RESULTS_DIR}/{name}.json")
        self.manifest["exit_code"] = exit_code
        self.manifest["wall_seconds"] = time.perf_counter() - self._started_perf
        self.manifest["files"] = files
        (self.path / _MANIFEST).write_text(
            json.dumps(self.manifest, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        return self.path


@dataclass(frozen=True)
class RunRecord:
    """One past run, loaded read-only from its directory."""

    path: Path
    manifest: dict[str, object]

    @property
    def run_id(self) -> str:
        return str(self.manifest.get("run_id", self.path.name))

    def trace_records(
        self, *, on_error: str = "skip"
    ) -> list[dict[str, object]]:
        """The run's trace records (empty when no trace was captured).

        Defaults to ``on_error="skip"`` — a run directory left behind by
        a crashed writer should still yield its good prefix.
        """
        trace = self.path / _TRACE
        if not trace.is_file():
            return []
        return read_trace(trace, on_error=on_error)

    def metrics(self) -> dict[str, object]:
        """The metrics snapshot captured at finalize (empty if absent)."""
        return _read_json_object(self.path / _METRICS, required=False)

    def results(self) -> dict[str, object]:
        """Result tables by name, from ``results/*.json``."""
        results_dir = self.path / _RESULTS_DIR
        if not results_dir.is_dir():
            return {}
        out: dict[str, object] = {}
        for file in sorted(results_dir.glob("*.json")):
            with file.open("r", encoding="utf-8") as fh:
                out[file.stem] = json.load(fh)
        return out

    def timelines(self) -> list[AppTimeline]:
        """Per-application worker timelines rebuilt from the trace."""
        return timelines_from_records(self.trace_records())


def _read_json_object(
    path: Path, *, required: bool
) -> dict[str, object]:
    if not path.is_file():
        if required:
            raise ObservabilityError(f"{path} does not exist")
        return {}
    try:
        with path.open("r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ObservabilityError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ObservabilityError(f"{path}: expected a JSON object")
    return payload


def load_run(path: str | Path) -> RunRecord:
    """Load one run directory (must contain a ``manifest.json``)."""
    run_dir = Path(path)
    manifest = _read_json_object(run_dir / _MANIFEST, required=True)
    return RunRecord(path=run_dir, manifest=manifest)


class RunStore:
    """Lists and loads the runs under one base directory."""

    def __init__(self, base_dir: str | Path) -> None:
        self.base = Path(base_dir)

    def run_ids(self) -> list[str]:
        """Ids of every completed run (directories with a manifest), sorted.

        Run ids start with a UTC timestamp, so lexicographic order is
        chronological order.
        """
        if not self.base.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.base.iterdir()
            if entry.is_dir() and (entry / _MANIFEST).is_file()
        )

    def list(self) -> list[RunRecord]:
        return [self.load(rid) for rid in self.run_ids()]

    def load(self, run_id: str) -> RunRecord:
        run_dir = self.base / run_id
        if not (run_dir / _MANIFEST).is_file():
            known = ", ".join(self.run_ids()) or "<none>"
            raise ObservabilityError(
                f"no run {run_id!r} under {self.base} (known runs: {known})"
            )
        return load_run(run_dir)

    def latest(self) -> RunRecord | None:
        ids = self.run_ids()
        return self.load(ids[-1]) if ids else None


def resolve_run(
    spec: str | Path, *, base_dir: str | Path | None = None
) -> RunRecord:
    """Resolve a CLI argument to a run: a run directory path or a run id.

    A path to a directory containing ``manifest.json`` wins; otherwise
    ``spec`` is treated as a run id under ``base_dir`` (the ``--run-dir``
    flag or ``REPRO_RUN_DIR``).
    """
    as_path = Path(spec)
    if (as_path / _MANIFEST).is_file():
        return load_run(as_path)
    if base_dir is not None:
        store = RunStore(base_dir)
        if str(spec) in store.run_ids():
            return store.load(str(spec))
    raise ObservabilityError(
        f"{spec!r} is neither a run directory nor a known run id"
        + (f" under {base_dir}" if base_dir is not None else "")
        + "; pass the path printed by a --run-dir invocation"
    )


#: The recorder capturing the current invocation, or None. Command
#: handlers fetch it via :func:`current_recorder` to stage result tables.
_current: RunRecorder | None = None


def current_recorder() -> RunRecorder | None:
    """The active run recorder, or None when run capture is off."""
    return _current


@contextmanager
def recording(recorder: RunRecorder) -> Iterator[RunRecorder]:
    """Make ``recorder`` the current recorder for a block (one at a time)."""
    global _current
    if _current is not None:
        raise ObservabilityError(
            "a run is already being recorded; nested recording would "
            "split the artifacts across two directories"
        )
    _current = recorder
    try:
        yield recorder
    finally:
        _current = None
