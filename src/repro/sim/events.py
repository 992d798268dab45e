"""Event queue primitives for the discrete-event simulator.

A tiny, dependency-free DES core: events are ``(time, seq, payload)``
tuples kept in a binary heap; ``seq`` is a monotonically increasing
tie-breaker so simultaneous events fire in scheduling order (deterministic
replay is a hard requirement for reproducible experiments).
"""

from __future__ import annotations

import heapq
from typing import Any

from ..errors import SimulationError

__all__ = ["EventQueue"]


class EventQueue:
    """Binary-heap event queue with deterministic FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = 0

    def push(self, time: float, payload: Any = None) -> None:
        """Schedule ``payload`` at ``time``."""
        if not time >= 0:  # also rejects NaN, which the heap would pop first
            raise SimulationError(f"event time must be >= 0, got {time}")
        heapq.heappush(self._heap, (time, self._seq, payload))
        self._seq += 1

    def pop(self) -> tuple[float, Any]:
        """Remove the earliest event; returns its ``(time, payload)``."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        time, _, payload = heapq.heappop(self._heap)
        return time, payload

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
