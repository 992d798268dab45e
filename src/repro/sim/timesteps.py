"""Time-stepping application simulation (AWF's natural habitat).

Many of the scientific applications the DLS literature targets are
*time-stepping*: the same parallel loop executes once per simulation step,
for many steps. The AWF technique (as opposed to its B/C variants) was
designed exactly for this setting — it freezes its weights within one step
and refreshes them between steps from the accumulated measurements
(Cariño & Banicescu 2008).

:func:`simulate_timestepped` runs ``n_timesteps`` successive executions of
an application's loop on one persistent set of workers, through the same
driver as :func:`~repro.sim.loopsim.simulate_application`: availability
processes continue across steps (a processor loaded in step 3 is still
loaded when step 4 starts) and the per-worker
:class:`~repro.dls.WorkerState` objects are carried from session to
session, which is what lets AWF adapt. Crashes persist across steps too:
a worker that crashed in one step runs neither the serial phase nor any
chunk of a later step, and a crashed master fails over exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps import Application
from ..dls import DLSTechnique
from ..errors import SimulationError
from ..system import AvailabilityModel, ProcessorGroup
from .loopsim import LoopSimConfig, _run_steps
from .results import ChunkRecord

__all__ = ["TimestepResult", "TimesteppedRunResult", "simulate_timestepped"]


@dataclass(frozen=True)
class TimestepResult:
    """One timestep's loop execution."""

    index: int
    start_time: float
    finish_time: float
    chunks: tuple[ChunkRecord, ...]
    rescheduled: int = 0  # iterations re-dispatched after crashes this step

    @property
    def duration(self) -> float:
        return self.finish_time - self.start_time


@dataclass(frozen=True)
class TimesteppedRunResult:
    """All timesteps of one run."""

    app_name: str
    technique: str
    steps: tuple[TimestepResult, ...]
    crashed_workers: tuple[int, ...] = ()  # unique, in first-crash order

    @property
    def makespan(self) -> float:
        """Completion time of the last timestep."""
        return self.steps[-1].finish_time

    @property
    def step_durations(self) -> tuple[float, ...]:
        return tuple(s.duration for s in self.steps)

    def improvement_ratio(self) -> float:
        """First-step duration over last-step duration.

        > 1 means the technique got faster as it learned (the adaptive
        signature); ~1 for non-adaptive techniques under stationary
        availability.
        """
        first, last = self.steps[0].duration, self.steps[-1].duration
        return first / last if last > 0 else float("inf")


def simulate_timestepped(
    app: Application,
    group: ProcessorGroup,
    technique: DLSTechnique,
    *,
    n_timesteps: int,
    seed: int | None = None,
    config: LoopSimConfig | None = None,
    availability: AvailabilityModel | list[AvailabilityModel] | None = None,
) -> TimesteppedRunResult:
    """Run ``n_timesteps`` executions of the application's parallel loop.

    The serial phase, if any, executes at the start of every timestep on
    a live master (the loop body's sequential prologue). Worker state —
    including every adaptive technique's measurements — persists across
    timesteps.
    """
    if n_timesteps < 1:
        raise SimulationError(f"need >= 1 timestep, got {n_timesteps}")
    runs = _run_steps(
        app, group, technique, n_timesteps,
        seed=seed, config=config or LoopSimConfig(), availability=availability,
    )
    steps: list[TimestepResult] = []
    crashed: list[int] = []
    for index, (start, _, loop) in enumerate(runs):
        crashed.extend(loop.crashed)
        steps.append(
            TimestepResult(
                index=index,
                start_time=start,
                finish_time=loop.end_time,
                chunks=tuple(loop.chunks),
                rescheduled=loop.rescheduled,
            )
        )
    return TimesteppedRunResult(
        app_name=app.name,
        technique=technique.name,
        steps=tuple(steps),
        crashed_workers=tuple(crashed),
    )
