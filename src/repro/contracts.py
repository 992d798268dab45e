"""Runtime contract checks, gated by the ``REPRO_VALIDATE`` env flag.

The static linter (:mod:`repro._lint`) enforces invariants that are
visible in the source; this module checks the ones that only exist at
runtime: a PMF that left canonicalization really is canonical, a span
really closes after it opened, an allocation a heuristic returned really
is feasible. The checks are assertions, not error handling — they
guard against bugs *inside* the library, so they are off by default and
enabled by setting ``REPRO_VALIDATE=1`` in the environment (the property
tests run with contracts hot).

Usage inside the library::

    from ..contracts import contracts_enabled, check_pmf_canonical

    if contracts_enabled():
        check_pmf_canonical(values, probs)

Tests (or embedding applications) can force the flag programmatically::

    with repro.contracts.validation(True):
        ...

A violated contract raises :class:`ContractViolation` (a
:class:`~repro.errors.ReproError`).
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np

from .errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .apps import Batch
    from .ra.allocation import Allocation
    from .system import HeterogeneousSystem

__all__ = [
    "ContractViolation",
    "contracts_enabled",
    "validation",
    "require",
    "check_pmf_canonical",
    "check_span_monotone",
    "check_allocation_feasible",
    "check_iteration_conservation",
]

#: Environment variable that turns the checks on (``1``/``true``/``on``).
ENV_FLAG = "REPRO_VALIDATE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Programmatic override (None = defer to the environment).
_forced: bool | None = None


class ContractViolation(ReproError):
    """An internal library invariant did not hold at runtime."""


def contracts_enabled() -> bool:
    """True when contract checks should run (env flag or override)."""
    if _forced is not None:
        return _forced
    return os.environ.get(ENV_FLAG, "").strip().lower() in _TRUTHY


@contextmanager
def validation(enabled: bool) -> Iterator[None]:
    """Force contracts on/off within a block, ignoring the environment."""
    global _forced
    previous = _forced
    _forced = enabled
    try:
        yield
    finally:
        _forced = previous


def require(condition: bool, message: str) -> None:
    """Raise :class:`ContractViolation` unless ``condition`` holds.

    Callers should guard with :func:`contracts_enabled` when building the
    message (or the condition) is itself costly.
    """
    if not condition:
        raise ContractViolation(message)


# ------------------------------------------------------------------ checks


def check_pmf_canonical(values: np.ndarray, probs: np.ndarray) -> None:
    """Canonical-form contract for a PMF that finished construction.

    Sorted strictly-increasing support, strictly positive probabilities
    summing to one, finite float64 data, and read-only buffers.
    """
    require(values.ndim == 1 and probs.ndim == 1, "PMF arrays must be 1-D")
    require(
        values.shape == probs.shape,
        f"PMF arrays disagree in length: {values.size} != {probs.size}",
    )
    require(values.size >= 1, "canonical PMF has empty support")
    require(
        bool(np.all(np.isfinite(values))), "canonical PMF support not finite"
    )
    require(
        bool(np.all(np.diff(values) > 0.0)),
        "canonical PMF support not strictly increasing",
    )
    require(
        bool(np.all(probs > 0.0)),
        "canonical PMF carries non-positive probability mass",
    )
    require(
        abs(float(probs.sum()) - 1.0) <= 1e-9,
        f"canonical PMF probabilities sum to {float(probs.sum())!r}",
    )
    require(
        not values.flags.writeable and not probs.flags.writeable,
        "canonical PMF arrays must be frozen (read-only)",
    )


def check_span_monotone(
    name: str,
    start: float,
    end: float,
    *,
    parent_name: str | None = None,
    parent_start: float | None = None,
) -> None:
    """Trace-shape contract for a span the tracer is about to close.

    A span never ends before it starts, and a child span never starts
    before its (still open) parent did — together with the monotone span
    clock this keeps every child interval nested within its parent's.
    """
    require(
        end >= start,
        f"span {name!r} ends at {end} before it starts at {start}",
    )
    if parent_start is not None:
        require(
            start >= parent_start,
            f"child span {name!r} starts at {start} before its parent "
            f"{parent_name!r} started at {parent_start}",
        )


def check_iteration_conservation(
    executed: int, expected: int, rescheduled: int
) -> None:
    """Conservation contract for a parallel loop that finished.

    Every iteration is executed exactly once — even under fault
    injection, where ``rescheduled`` iterations were lost to crashes and
    re-dispatched to surviving workers. A mismatch means the recovery
    path dropped or duplicated work.
    """
    require(
        executed == expected,
        f"parallel loop executed {executed} of {expected} iterations "
        f"({rescheduled} rescheduled after crashes); fault recovery must "
        "conserve iterations",
    )
    require(
        rescheduled >= 0,
        f"negative rescheduled-iteration count {rescheduled}",
    )


def check_allocation_feasible(
    allocation: "Allocation",
    system: "HeterogeneousSystem",
    batch: "Batch | None" = None,
) -> None:
    """Feasibility contract for an allocation a heuristic handed back.

    Every application mapped (when a batch is given), no unknown types,
    per-type capacity respected, and power-of-two group sizes.
    """
    if batch is not None:
        missing = set(batch.names) - set(allocation.app_names)
        require(
            not missing,
            f"allocation leaves applications unassigned: {sorted(missing)}",
        )
    known = {ptype.name for ptype in system.types}
    for type_name, used in allocation.usage().items():
        require(
            type_name in known,
            f"allocation uses unknown processor type {type_name!r}",
        )
        capacity = system.type(type_name).count
        require(
            used <= capacity,
            f"type {type_name!r} oversubscribed: {used} > {capacity}",
        )
    for app_name, group in allocation.items():
        require(
            group.size >= 1 and group.size & (group.size - 1) == 0,
            f"application {app_name!r} assigned a non-power-of-two group "
            f"of {group.size} processors",
        )
