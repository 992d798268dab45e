"""Fault specifications: what can go wrong, and how often.

A :class:`FaultPlan` is the immutable description of a fault environment
for one simulated application run. It combines two sources of events:

* **scripted** events — an explicit tuple of :class:`FaultEvent` records
  (used by regression tests and what-if studies: "worker 3 crashes at
  t=120");
* **stochastic** events — Poisson arrival processes per worker with the
  configured rates, drawn from a :class:`~repro.exec.seeds.SeedTree`
  path of the simulation seed so the realization replays bit for bit on
  every backend and never perturbs the worker RNG streams.

Three fault kinds are modeled (see ``docs/faults.md``):

``crash``
    The worker dies permanently at ``time``. Its in-flight chunk is lost
    and re-queued by the simulator; a crashed master triggers failover.
``blackout``
    The worker delivers no work for ``duration`` time units starting at
    ``time`` (a pause inserted into its compute timeline).
``slowdown``
    Wall-clock time inside ``[time, time + duration)`` is stretched by
    ``factor`` (> 1) for that worker.

``FaultPlan()`` (all rates zero, no scripted events) is inert: the
simulator takes the exact same code path as with no plan at all, which
is what the zero-rate bit-for-bit property test pins down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import FaultError

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultPlan"]

#: The fault kinds a plan may script or draw.
FAULT_KINDS: tuple[str, ...] = ("crash", "blackout", "slowdown")


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One concrete fault occurrence on one worker, in simulation time.

    Ordering is by ``(time, worker, kind)`` so merged scripted/drawn
    streams process deterministically. ``duration`` and ``factor`` are
    meaningful for ``blackout``/``slowdown`` only (a crash is terminal).
    """

    time: float
    worker: int
    kind: str = field(compare=True, default="crash")
    duration: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        # NaN fails every comparison the injector and the loop make, and
        # an infinite time, duration or factor makes the degradation scan
        # run forever or a makespan infinite: all three must be finite.
        if not 0 <= self.time < math.inf:
            raise FaultError(f"fault time must be finite and >= 0, got {self.time}")
        if self.worker < 0:
            raise FaultError(f"fault worker must be >= 0, got {self.worker}")
        if not math.isfinite(self.duration):
            raise FaultError(f"fault duration must be finite, got {self.duration}")
        if self.kind in ("blackout", "slowdown") and not self.duration > 0:
            raise FaultError(
                f"{self.kind} faults need a positive duration, got {self.duration}"
            )
        if not math.isfinite(self.factor):
            raise FaultError(f"fault factor must be finite, got {self.factor}")
        if self.kind == "slowdown" and not self.factor > 1.0:
            raise FaultError(
                f"slowdown factor must be > 1, got {self.factor}"
            )

    @property
    def end(self) -> float:
        """End of the fault's active window (``time`` for a crash)."""
        return self.time + self.duration


@dataclass(frozen=True)
class FaultPlan:
    """Seed-deterministic fault environment for one simulated run.

    Rates are expected events *per worker per simulated time unit*
    (arrivals are Poisson; blackout/slowdown durations are exponential
    with the configured means). ``events`` adds scripted occurrences on
    top of the stochastic draw. ``failover_delay`` is the re-election
    penalty charged when the group's master crashes: re-dispatch of the
    lost work waits that long.

    The plan is picklable and value-like, so it rides inside
    :class:`~repro.sim.LoopSimConfig` through every execution backend.
    """

    crash_rate: float = 0.0
    blackout_rate: float = 0.0
    blackout_duration: float = 50.0
    slowdown_rate: float = 0.0
    slowdown_duration: float = 100.0
    slowdown_factor: float = 2.0
    failover_delay: float = 0.0
    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        # An infinite blackout or slowdown rate draws arrivals 0 apart and
        # an infinite blackout duration or slowdown factor stretches a
        # timeline to infinity, which hangs the degradation scan; an
        # infinite crash rate or slowdown duration kills or slows every
        # worker for good. So every parameter must be finite (which also
        # rejects NaN).
        for name in (
            "crash_rate", "blackout_rate", "blackout_duration", "slowdown_rate",
            "slowdown_duration", "slowdown_factor", "failover_delay",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise FaultError(f"{name} must be finite, got {value}")
        for name in ("crash_rate", "blackout_rate", "slowdown_rate"):
            rate = getattr(self, name)
            if rate < 0:
                raise FaultError(f"{name} must be >= 0, got {rate}")
        for name in ("blackout_duration", "slowdown_duration"):
            mean = getattr(self, name)
            if not mean > 0:
                raise FaultError(f"{name} must be > 0, got {mean}")
        if not self.slowdown_factor > 1.0:
            raise FaultError(
                f"slowdown_factor must be > 1, got {self.slowdown_factor}"
            )
        if self.failover_delay < 0:
            raise FaultError(
                f"failover_delay must be >= 0, got {self.failover_delay}"
            )
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise FaultError(
                    f"scripted events must be FaultEvent, got {type(event).__name__}"
                )

    @property
    def is_zero(self) -> bool:
        """True when the plan can never produce a fault (inert)."""
        return (
            self.crash_rate == 0.0
            and self.blackout_rate == 0.0
            and self.slowdown_rate == 0.0
            and not self.events
        )

    @classmethod
    def chaos(cls, intensity: float = 1e-4, *, failover_delay: float = 10.0) -> "FaultPlan":
        """A balanced chaos-mode plan scaled by one ``intensity`` knob.

        ``intensity`` is the blackout/slowdown arrival rate per worker
        per time unit; crashes (terminal, hence rarer) arrive at a fifth
        of it. The defaults are sized for the paper example's ~10^3-unit
        makespans: ``chaos()`` injects a handful of degradations and the
        occasional crash per replicated run.
        """
        if not (math.isfinite(intensity) and intensity > 0):
            raise FaultError(
                f"chaos intensity must be finite and > 0, got {intensity}"
            )
        return cls(
            crash_rate=intensity / 5.0,
            blackout_rate=intensity,
            slowdown_rate=intensity,
            failover_delay=failover_delay,
        )

    def realize(self, seed: int | None, n_workers: int) -> "FaultInjector":
        """Draw the plan's fault realization for one run.

        ``seed`` is the *simulation* seed of the run; the injector draws
        from the ``("faults", kind, worker)`` seed-tree paths beneath
        it, so fault draws are independent of (and never reorder) the
        worker availability/iteration streams.
        """
        from .injector import FaultInjector

        return FaultInjector(self, seed=seed, n_workers=n_workers)
