"""Serialization of problem instances (systems, batches, PMFs) to JSON.

A *study* is only reproducible if its inputs can leave the process: this
module round-trips every model object through plain JSON documents —

* :func:`pmf_to_dict` / :func:`pmf_from_dict`
* :func:`system_to_dict` / :func:`system_from_dict`
* :func:`application_to_dict` / :func:`application_from_dict`
* :func:`batch_to_dict` / :func:`batch_from_dict`
* :func:`save_instance` / :func:`load_instance` — a full (system, batch,
  deadline) problem instance in one file.

The format is versioned; loading rejects unknown versions instead of
guessing.
"""

from __future__ import annotations

import json
from pathlib import Path

from .apps import Application, Batch, ExecutionTimeModel
from .errors import ModelError
from .pmf import PMF
from .system import HeterogeneousSystem, ProcessorType

__all__ = [
    "FORMAT_VERSION",
    "pmf_to_dict",
    "pmf_from_dict",
    "system_to_dict",
    "system_from_dict",
    "application_to_dict",
    "application_from_dict",
    "batch_to_dict",
    "batch_from_dict",
    "save_instance",
    "load_instance",
]

FORMAT_VERSION = 1

_REQUIRED = object()


def _field(doc: dict, key: str, kind: type, default: object = _REQUIRED):
    """``kind(doc[key])``; a :class:`ModelError` naming ``key`` otherwise.

    ``default`` stands in for an absent key; without one the key is
    required.
    """
    try:
        value = doc[key]
    except KeyError:
        if default is _REQUIRED:
            raise ModelError(f"missing field {key!r}") from None
        value = default
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ModelError(
            f"field {key!r} must be {kind.__name__}, got {value!r}"
        ) from None


def pmf_to_dict(pmf: PMF) -> dict:
    return {
        "values": [float(v) for v in pmf.values],
        "probs": [float(p) for p in pmf.probs],
    }


def pmf_from_dict(payload: dict) -> PMF:
    try:
        return PMF(payload["values"], payload["probs"], normalize=True)
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed PMF payload: {exc}") from exc


def system_to_dict(system: HeterogeneousSystem) -> dict:
    return {
        "types": [
            {
                "name": t.name,
                "count": t.count,
                "capacity": t.capacity,
                "availability": pmf_to_dict(t.availability),
            }
            for t in system.types
        ]
    }


def system_from_dict(payload: dict) -> HeterogeneousSystem:
    try:
        return HeterogeneousSystem(
            ProcessorType(
                name=doc["name"],
                count=_field(doc, "count", int),
                capacity=_field(doc, "capacity", float, 1.0),
                availability=pmf_from_dict(doc["availability"]),
            )
            for doc in payload["types"]
        )
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed system payload: {exc}") from exc


def application_to_dict(app: Application) -> dict:
    return {
        "name": app.name,
        "n_serial": app.n_serial,
        "n_parallel": app.n_parallel,
        "serial_fraction": app.serial_fraction,
        "iteration_cv": app.iteration_cv,
        "exec_time": {
            type_name: pmf_to_dict(app.exec_time.pmf(type_name))
            for type_name in app.exec_time.type_names
        },
    }


def application_from_dict(payload: dict) -> Application:
    try:
        exec_time = ExecutionTimeModel(
            {
                type_name: pmf_from_dict(doc)
                for type_name, doc in payload["exec_time"].items()
            }
        )
        return Application(
            name=payload["name"],
            n_serial=_field(payload, "n_serial", int),
            n_parallel=_field(payload, "n_parallel", int),
            exec_time=exec_time,
            serial_fraction=payload.get("serial_fraction"),
            iteration_cv=_field(payload, "iteration_cv", float, 0.1),
        )
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed application payload: {exc}") from exc


def batch_to_dict(batch: Batch) -> dict:
    return {"applications": [application_to_dict(app) for app in batch]}


def batch_from_dict(payload: dict) -> Batch:
    try:
        return Batch(
            application_from_dict(doc) for doc in payload["applications"]
        )
    except (KeyError, TypeError) as exc:
        raise ModelError(f"malformed batch payload: {exc}") from exc


def save_instance(
    path,
    system: HeterogeneousSystem,
    batch: Batch,
    *,
    deadline: float | None = None,
    metadata: dict | None = None,
):
    """Write a complete problem instance as one JSON document."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format_version": FORMAT_VERSION,
        "system": system_to_dict(system),
        "batch": batch_to_dict(batch),
    }
    if deadline is not None:
        payload["deadline"] = float(deadline)
    if metadata:
        payload["metadata"] = metadata
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_instance(path) -> tuple[HeterogeneousSystem, Batch, float | None]:
    """Inverse of :func:`save_instance`; returns (system, batch, deadline).

    Instance files come from outside the program, so a malformed one
    raises :class:`ModelError` naming the offending field.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ModelError(f"instance file {path} is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelError(
            f"instance file {path} must hold a JSON object, "
            f"got {type(payload).__name__}"
        )
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelError(
            f"unsupported instance format version {version!r} "
            f"(this library reads version {FORMAT_VERSION})"
        )
    for key in ("system", "batch"):
        if key not in payload:
            raise ModelError(f"instance file {path} has no {key!r} field")
    deadline = payload.get("deadline")
    return (
        system_from_dict(payload["system"]),
        batch_from_dict(payload["batch"]),
        None if deadline is None else _field(payload, "deadline", float),
    )
