"""Simulated workers: processors executing chunks under varying availability.

A :class:`SimWorker` couples a realized availability process with a seeded
RNG stream. Executing a chunk of ``k`` iterations draws ``k`` dedicated
iteration times and converts them into wall-clock finish times via the
availability work-integral; the simulator derives the per-iteration *wall*
times the adaptive DLS techniques adapt on from those finish times.
"""

from __future__ import annotations

import numpy as np

from ..apps import IterationTimeModel
from ..errors import SimulationError
from ..system import AvailabilityProcess

__all__ = ["SimWorker"]


class SimWorker:
    """One simulated processor of an application's group."""

    def __init__(
        self,
        worker_id: int,
        availability: AvailabilityProcess,
        rng: np.random.Generator,
    ) -> None:
        self.worker_id = worker_id
        self.availability = availability
        self.rng = rng

    def execute_chunk(
        self, start: float, n_iterations: int, model: IterationTimeModel
    ) -> np.ndarray:
        """Execute ``n_iterations`` starting at wall-clock ``start``.

        Returns the wall-clock finish time of each iteration, in order; the
        last one is the chunk's finish. The drawn iteration times are
        *dedicated* times (fully available processor at reference capacity);
        the availability process converts them into wall-clock time
        iteration by iteration, so iterations that run while availability
        is low take proportionally longer — exactly the signal the adaptive
        DLS techniques measure.
        """
        if n_iterations < 1:
            raise SimulationError(
                f"chunk must contain at least one iteration, got {n_iterations}"
            )
        dedicated = model.draw(n_iterations, self.rng)
        return self.availability.finish_times(start, dedicated.cumsum())
