"""Master–worker loop-scheduling simulation of one application (stage II).

The execution model follows the paper's §III-B: an application's serial
iterations run first on the group's master processor; the parallel loop is
then scheduled across the whole group by a DLS technique — each time a
processor becomes free, the technique's session computes "a new size for the
next chunk of ready-to-be-executed loop iterations ... offered for execution
to the first processor that finished executing other assigned chunks".

Every dispatch pays a wall-clock scheduling ``overhead`` (master round-trip)
before the chunk starts computing; each processor's compute rate is
modulated by its realized availability process, so a chunk started under
full availability slows down if availability drops mid-chunk.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..apps import Application
from ..contracts import check_iteration_conservation, contracts_enabled
from ..dls import DLSTechnique, SchedulingSession, WorkerState
from ..errors import SimulationError
from ..exec.backends import ExecutionBackend, fan_out_ranges
from ..exec.seeds import SeedTree
from ..exec.tasks import ReplicateTask
from ..faults import FaultInjector, FaultPlan, degraded_boundaries
from ..obs import event as obs_event
from ..obs import incr, obs_enabled, observe_value, span
from ..rng import DEFAULT_SEED, spawn_rngs
from ..system import (
    AvailabilityModel,
    ProcessorGroup,
    ResampledAvailability,
)
from .events import EventQueue
from .results import AppRunResult, ChunkRecord, MasterFailover, ReplicatedAppStats
from .worker import SimWorker

__all__ = [
    "LoopSimConfig",
    "ParallelLoopResult",
    "run_parallel_loop",
    "simulate_application",
    "replicate_application",
    "replication_seeds",
    "run_seeded_replications",
]

#: Default wall-clock cost of dispatching one chunk (master round-trip).
DEFAULT_OVERHEAD = 1.0

#: Default re-sampling interval of the runtime availability processes.
DEFAULT_AVAIL_INTERVAL = 100.0


@dataclass(frozen=True)
class LoopSimConfig:
    """Simulator knobs shared by all stage-II experiments.

    ``availability_interval`` is the piecewise-constant re-sampling period
    of the runtime availability processes (in the application's time units;
    ``inf`` draws each processor's level once); ``overhead`` the finite
    per-chunk dispatch cost. Both default to values that
    are small relative to the paper example's ~10^3-unit makespans.

    ``master_policy`` selects the group processor executing the serial
    iterations: ``"first"`` uses processor 0 (an arbitrary coordinator);
    ``"best-available"`` models a resource manager that designates the
    currently least-loaded processor as coordinator.

    ``faults`` attaches a :class:`~repro.faults.FaultPlan`: crash /
    blackout / slowdown events drawn deterministically from the run's
    seed. A zero-rate plan (``FaultPlan()``, the inert default) takes
    the exact no-faults code path, so results are bit-for-bit identical
    to ``faults=None``.

    An application without serial iterations (``n_serial=0``) runs no
    serial phase: its parallel loop starts at time 0.
    """

    overhead: float = DEFAULT_OVERHEAD
    availability_interval: float = DEFAULT_AVAIL_INTERVAL
    master_policy: str = "first"
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.overhead < math.inf:
            raise SimulationError(
                f"overhead must be finite and >= 0, got {self.overhead}"
            )
        if not self.availability_interval > 0:  # also rejects NaN
            raise SimulationError(
                "availability_interval must be > 0, "
                f"got {self.availability_interval}"
            )
        if self.master_policy not in ("first", "best-available"):
            raise SimulationError(
                f"unknown master_policy {self.master_policy!r}; "
                "expected 'first' or 'best-available'"
            )


def _fault_plan(config: LoopSimConfig) -> FaultPlan | None:
    """The config's fault plan if it can inject anything, else ``None``.

    A zero-rate plan realizes no injector at all, so it takes exactly
    the fault-free code path (bit-for-bit identical results).
    """
    plan = config.faults
    return None if plan is None or plan.is_zero else plan


def _build_workers(
    group: ProcessorGroup,
    availability: AvailabilityModel | list[AvailabilityModel] | None,
    config: LoopSimConfig,
    seed: int,
) -> list[SimWorker]:
    """Spawn one SimWorker per group processor with independent streams."""
    n = group.size
    if availability is None:
        availability = ResampledAvailability(
            group.availability, interval=config.availability_interval
        )
    if isinstance(availability, AvailabilityModel):
        models = [availability] * n
    else:
        models = list(availability)
        if len(models) != n:
            raise SimulationError(
                f"got {len(models)} availability models for {n} workers"
            )
    # Two streams per worker: availability realization and iteration draws.
    streams = spawn_rngs(seed, 2 * n)
    return [
        SimWorker(
            worker_id=i,
            availability=models[i].spawn(
                streams[2 * i], capacity=group.ptype.capacity
            ),
            rng=streams[2 * i + 1],
        )
        for i in range(n)
    ]


@dataclass(frozen=True)
class ParallelLoopResult:
    """Outcome of one parallel-loop phase (:func:`run_parallel_loop`).

    The fault fields are all zero/empty when no injector is active, so
    fault-free callers can ignore them.
    """

    chunks: list[ChunkRecord]
    finish_times: dict[int, float]
    executed: int
    crashed: tuple[int, ...] = ()
    rescheduled: int = 0
    degradations: int = 0
    failovers: tuple[MasterFailover, ...] = ()
    master_id: int | None = None

    @property
    def end_time(self) -> float:
        """When the last worker finished (the loop start if none ran)."""
        return max(self.finish_times.values())


@dataclass(slots=True)
class _InFlight:
    """One dispatched chunk awaiting its completion (or crash) event.

    ``wall_times`` is read only when the session is measured; otherwise
    it may be ``None``, or the undegraded times the degradation pass
    started from.
    """

    size: int
    wall_times: np.ndarray | None
    chunk_time: float
    finish: float
    record: ChunkRecord
    lost: bool = False


def _chunk_event(record: ChunkRecord) -> None:
    """Emit the ``sim.chunk`` trace event for one completed dispatch.

    The event carries the full interval (request/start/finish, in
    simulated time) under the enclosing ``sim.app`` span, which is what
    :mod:`repro.obs.timeline` rebuilds worker timelines from. Callers
    guard on :func:`~repro.obs.obs_enabled`.
    """
    obs_event(
        "sim.chunk",
        record.finish_time,
        worker=record.worker_id,
        size=record.size,
        request=record.request_time,
        start=record.start_time,
        finish=record.finish_time,
    )


def _pick_master(
    candidates: list[SimWorker], policy: str, at: float
) -> SimWorker:
    """The coordinator among ``candidates`` per the master policy."""
    if policy == "best-available":
        return max(candidates, key=lambda w: w.availability.level_at(at))
    return min(candidates, key=lambda w: w.worker_id)


def _wall_times(ends: np.ndarray, start: float) -> np.ndarray:
    """Per-iteration wall times of a chunk started at ``start``.

    The differences of the iterations' finish times ``ends``, the first
    taken from ``start``.
    """
    wall_times = ends.copy()
    wall_times[1:] -= ends[:-1]
    wall_times[0] -= start
    return wall_times


def _degradation_horizon(finish: float, size: int) -> float:
    """An upper bound on ``start + np.cumsum(wall_times)[-1]``.

    That is the horizon :func:`~repro.faults.degraded_boundaries` queries
    for a chunk of ``size`` iterations whose wall times were taken as
    differences of its finish times, the last being ``finish``. It re-adds
    the wall times in sequence: ``size - 1`` additions in the cumsum and
    one with ``start``, each rounded by at most ``ulp(finish)``. The
    differences themselves are exact (Sterbenz) except where the finish
    times more than double, and those errors shrink geometrically to under
    one ``ulp(finish)`` in total. So the horizon exceeds ``finish`` by less
    than ``(size + 1) * ulp(finish)``; the spare ulp covers the rounding of
    this sum itself.
    """
    return finish + (size + 2) * math.ulp(finish)


def run_parallel_loop(
    workers: list[SimWorker],
    session: SchedulingSession,
    par_model,
    start_time: float,
    config: LoopSimConfig,
    *,
    injector: FaultInjector | None = None,
    master_id: int | None = None,
) -> ParallelLoopResult:
    """Drive one scheduling session to completion on the given workers.

    Measurements become visible to the scheduling session only when a
    chunk *finishes* (the worker's next request) — recording at dispatch
    time would leak future knowledge into other workers' chunk decisions.
    A session whose ``measured`` flag is false (a technique whose chunk
    rule reads no measurements) is never measured: its chunks build no
    wall times and :meth:`~repro.dls.SchedulingSession.record` is not
    called.

    With a fault ``injector``, the loop additionally models worker
    failure: a crashed worker's in-flight chunk is re-queued through
    :meth:`~repro.dls.SchedulingSession.requeue` and re-dispatched to the
    survivors (idle workers are parked, not released, so late re-queued
    work always finds a taker); blackouts and slowdowns stretch chunk
    timelines, and a chunk no degradation can reach
    (:meth:`~repro.faults.FaultInjector.may_degrade` says ``False``)
    skips that pass; a crashed master triggers failover per
    ``config.master_policy``, charging the plan's ``failover_delay``
    before the lost work is re-offered. The group's last surviving
    worker never crashes — a run always completes — and iteration
    conservation (``executed == n_parallel``) is contract-checked by the
    caller after recovery.
    """
    queue = EventQueue()
    for w in workers:
        queue.push(start_time, w)

    chunks: list[ChunkRecord] = []
    finish_times: dict[int, float] = {w.worker_id: start_time for w in workers}
    executed = 0
    pending: dict[int, _InFlight] = {}
    # Fault bookkeeping (all inert when injector is None).
    parked: dict[int, float] = {}  # idle workers that may yet see re-queued work
    dead: set[int] = set()
    immortal: set[int] = set()  # designated survivors: crash suppressed
    crashed: list[int] = []
    failovers: list[MasterFailover] = []
    rescheduled = 0
    degradations = 0
    measured = session.measured

    def _others_alive(wid: int) -> bool:
        return any(
            w.worker_id != wid and w.worker_id not in dead for w in workers
        )

    def _handle_crash(wid: int, now: float, lost_size: int) -> None:
        """Retire a worker; fail the master over and wake parked workers."""
        nonlocal master_id, rescheduled
        dead.add(wid)
        crashed.append(wid)
        wake = now
        if obs_enabled():
            obs_event("sim.crash", now, worker=wid, lost=lost_size)
        if lost_size > 0:
            session.requeue(lost_size)
            rescheduled += lost_size
            if obs_enabled():
                obs_event("sim.requeue", now, worker=wid, size=lost_size)
        session.retire(wid)
        if wid == master_id and injector is not None:
            alive = [w for w in workers if w.worker_id not in dead]
            new_master = _pick_master(alive, config.master_policy, now)
            failovers.append(
                MasterFailover(
                    time=now, old_master=wid, new_master=new_master.worker_id
                )
            )
            master_id = new_master.worker_id
            wake = now + injector.failover_delay
            if obs_enabled():
                obs_event(
                    "sim.failover",
                    now,
                    worker=new_master.worker_id,
                    old=wid,
                    delay=injector.failover_delay,
                )
        if session.remaining > 0:
            # Orphaned iterations need takers — both a lost in-flight
            # chunk just re-queued and a reservation the retirement
            # released: wake every parked worker.
            for pid, parked_at in parked.items():
                queue.push(max(parked_at, wake), by_id[pid])
            parked.clear()

    by_id = {w.worker_id: w for w in workers}
    loop_events = 0
    while queue:
        now, worker = queue.pop()
        loop_events += 1
        wid = worker.worker_id
        if wid in dead:  # pragma: no cover - defensive; no events outlive death
            continue
        inflight = pending.pop(wid, None)
        crash_at = (
            injector.crash_time(wid)
            if injector is not None and wid not in immortal
            else None
        )
        if inflight is not None and inflight.lost:
            # This event *is* the worker's crash, mid-chunk.
            if not _others_alive(wid):
                # Last worker standing: suppress the crash and let the
                # chunk complete at its true finish time.
                immortal.add(wid)
                inflight.lost = False
                pending[wid] = inflight
                chunks.append(inflight.record)
                executed += inflight.size
                finish_times[wid] = inflight.finish
                if obs_enabled():
                    _chunk_event(inflight.record)
                queue.push(inflight.finish, worker)
                continue
            _handle_crash(wid, now, inflight.size)
            continue
        if inflight is not None and measured:
            assert inflight.wall_times is not None  # built for measured sessions
            session.record(
                wid, inflight.size, inflight.wall_times,
                chunk_time=inflight.chunk_time,
            )
        if crash_at is not None and crash_at <= now:
            # Crash between assignments (idle, parked, or exactly at a
            # chunk boundary): nothing in flight is lost.
            if _others_alive(wid):
                _handle_crash(wid, now, 0)
                continue
            immortal.add(wid)
        size = session.next_chunk(wid)
        if size == 0:
            # Every worker id was pre-seeded into `finish_times` at
            # `start_time`, so a worker that never receives a chunk
            # deliberately reports the loop start as its finish (it was
            # never busy) — no update is needed here. Under fault
            # injection the worker is parked instead of released: a
            # later crash may re-queue iterations it must pick up.
            if injector is not None:
                parked[wid] = now
            continue
        start = now + config.overhead
        ends = worker.execute_chunk(start, size, par_model)
        finish = float(ends[-1])
        wall_times = _wall_times(ends, start) if measured else None
        if injector is not None and injector.may_degrade(
            wid, start, _degradation_horizon(finish, size)
        ):
            if wall_times is None:
                wall_times = _wall_times(ends, start)
            boundaries = start + np.cumsum(wall_times)
            adjusted, applied = degraded_boundaries(
                injector, wid, start, boundaries
            )
            if applied:
                degradations += applied
                finish = float(adjusted[-1])
                if measured:
                    wall_times = np.diff(np.concatenate(([start], adjusted)))
                if obs_enabled():
                    obs_event("sim.degraded", start, worker=wid, applied=applied)
        record = ChunkRecord(wid, size, now, start, finish)
        inflight = _InFlight(size, wall_times, finish - now, finish, record)
        if crash_at is not None and now <= crash_at < finish:
            # The worker dies while this chunk is in flight: surface the
            # crash at its own time so re-dispatch starts immediately,
            # and defer the completion accounting (it may be suppressed
            # if every other worker dies first).
            inflight.lost = True
            pending[wid] = inflight
            queue.push(crash_at, worker)
            continue
        pending[wid] = inflight
        chunks.append(record)
        executed += size
        finish_times[wid] = finish
        if obs_enabled():
            _chunk_event(record)
        queue.push(finish, worker)
    if obs_enabled():
        # One bulk increment per loop, not one per event: the inner loop
        # is the hot path the <5% disabled-overhead budget protects.
        incr("sim.loop.events", float(loop_events))
    return ParallelLoopResult(
        chunks=chunks,
        finish_times=finish_times,
        executed=executed,
        crashed=tuple(crashed),
        rescheduled=rescheduled,
        degradations=degradations,
        failovers=tuple(failovers),
        master_id=master_id,
    )


def simulate_application(
    app: Application,
    group: ProcessorGroup,
    technique: DLSTechnique,
    *,
    seed: int | None = None,
    config: LoopSimConfig | None = None,
    availability: AvailabilityModel | list[AvailabilityModel] | None = None,
) -> AppRunResult:
    """Simulate one execution of ``app`` on ``group`` under ``technique``.

    ``availability`` overrides the runtime availability model (default: the
    group's availability PMF re-sampled every ``config.availability_interval``
    time units). Pass per-worker ``TraceAvailability`` models to replay a
    frozen realization across techniques.

    ``seed=None`` means :data:`~repro.rng.DEFAULT_SEED`: the run replays,
    fault draws included. Pass distinct seeds for independent runs (see
    :func:`replication_seeds`).

    Returns an :class:`~repro.sim.results.AppRunResult`; its ``makespan``
    includes the serial phase (if any) and the full parallel loop.
    """
    config = config or LoopSimConfig()
    with span(
        "sim.app",
        app=app.name,
        technique=technique.name,
        group_type=group.ptype.name,
        group_size=group.size,
        faults=_fault_plan(config) is not None,
    ) as sp:
        ((_, serial_end, loop),) = _run_steps(
            app, group, technique, 1,
            seed=seed, config=config, availability=availability,
        )
        result = AppRunResult(
            app_name=app.name,
            technique=technique.name,
            group_type=group.ptype.name,
            group_size=group.size,
            serial_time=serial_end,
            makespan=loop.end_time,
            chunks=tuple(loop.chunks),
            worker_finish_times=loop.finish_times,
            iterations_executed=loop.executed,
            master_id=loop.master_id,
            crashed_workers=loop.crashed,
            rescheduled_iterations=loop.rescheduled,
            degradations_applied=loop.degradations,
            master_failovers=loop.failovers,
        )
        # Post-hoc attributes: the timeline builder needs the loop start
        # (serial_time) to reproduce worker finish times exactly.
        sp.set(
            serial_time=result.serial_time,
            makespan=result.makespan,
            chunks=len(result.chunks),
        )
    if obs_enabled():
        incr("sim.apps")
        incr("sim.iterations", float(result.iterations_executed))
        incr(f"dls.chunks.{technique.name}", float(len(result.chunks)))
        observe_value("sim.makespan", result.makespan)
        observe_value(f"sim.makespan.{technique.name}", result.makespan)
        observe_value(
            f"sim.imbalance.{technique.name}", result.load_imbalance()
        )
    return result


def _master_candidates(
    live: list[SimWorker], injector: FaultInjector | None, at: float
) -> list[SimWorker]:
    """Live workers whose crash time has not passed by ``at``.

    Falls back to every live worker: when all of them are past their
    crash time, the one still live is the survivor the loop kept alive.
    """
    if injector is None:
        return live
    fit = [
        w for w in live
        if (crash := injector.crash_time(w.worker_id)) is None or crash > at
    ]
    return fit or live


def _run_steps(
    app: Application,
    group: ProcessorGroup,
    technique: DLSTechnique,
    n_steps: int,
    *,
    seed: int | None,
    config: LoopSimConfig,
    availability: AvailabilityModel | list[AvailabilityModel] | None,
) -> Iterator[tuple[float, float, ParallelLoopResult]]:
    """Run ``n_steps`` executions of the application on one set of workers.

    The one driver behind :func:`simulate_application` (one step) and
    :func:`~repro.sim.timesteps.simulate_timestepped` (many). Workers,
    their :class:`~repro.dls.WorkerState` and the fault injector are built
    once, so availability, adaptive measurements and crashes carry over
    from step to step. Each step runs the serial phase (if any) on a live
    master, then the parallel loop under a fresh scheduling session, and
    yields ``(step start, loop start, loop result)``; the next step
    starts when the last worker finishes.

    A crashed worker is retired for good: later steps neither pick it as
    master nor dispatch to it (their sessions start with it retired).

    ``seed=None`` is :data:`~repro.rng.DEFAULT_SEED`, for the workers'
    streams and the fault draws alike.
    """
    if seed is None:
        seed = DEFAULT_SEED
    workers = _build_workers(group, availability, config, seed)
    type_name = group.ptype.name
    serial_model = app.serial_iteration_model(type_name)
    par_model = app.parallel_iteration_model(type_name)
    power = group.ptype.capacity * group.ptype.expected_availability
    states = [
        WorkerState(worker_id=w.worker_id, relative_power=power)
        for w in workers
    ]
    # One injector spans the whole run: crash times are absolute wall
    # clock, so a worker that died in step 3 stays dead in step 4.
    plan = _fault_plan(config)
    injector = plan.realize(seed, group.size) if plan is not None else None
    retired: list[int] = []
    start = 0.0
    for _ in range(n_steps):
        live = [w for w in workers if w.worker_id not in retired]
        loop_start = start
        master_id: int | None = None
        if serial_model is not None:
            master = _pick_master(
                _master_candidates(live, injector, start),
                config.master_policy,
                start,
            )
            master_id = master.worker_id
            ends = master.execute_chunk(start, app.n_serial, serial_model)
            loop_start = float(ends[-1])
        session = technique.session(app.n_parallel, states)
        session.label = technique.name
        session.measured = technique.adaptive
        for wid in retired:
            session.retire(wid)
        loop = run_parallel_loop(
            live, session, par_model, loop_start, config,
            injector=injector, master_id=master_id,
        )
        if loop.executed != app.n_parallel:
            raise SimulationError(
                f"simulated {loop.executed} parallel iterations, "
                f"expected {app.n_parallel}"
            )
        if contracts_enabled():
            check_iteration_conservation(
                loop.executed, app.n_parallel, loop.rescheduled
            )
        if injector is not None and obs_enabled():
            incr("faults.injected", float(len(loop.crashed) + loop.degradations))
            incr("faults.rescheduled", float(loop.rescheduled))
        retired.extend(loop.crashed)
        yield start, loop_start, loop
        start = loop.end_time


def replication_seeds(seed: int | None, replications: int) -> tuple[int, ...]:
    """One independent derived seed per replication, in replication order.

    Seeds come from the :class:`~repro.exec.seeds.SeedTree` path
    ``("rep", r)``, so replication ``r`` is the same no matter how the
    replications are later split across tasks or processes, and adding
    replications never perturbs earlier ones. ``seed=None`` draws fresh
    OS entropy (a genuinely new experiment); pass an explicit seed for
    reproducibility.
    """
    if replications < 1:
        raise SimulationError(f"need >= 1 replication, got {replications}")
    tree = SeedTree(seed)
    return tuple(tree.child("rep", r).seed() for r in range(replications))


def run_seeded_replications(
    app: Application,
    group: ProcessorGroup,
    technique: DLSTechnique,
    seeds: tuple[int, ...],
    *,
    config: LoopSimConfig | None = None,
    availability: AvailabilityModel | list[AvailabilityModel] | None = None,
) -> tuple[float, ...]:
    """Makespans of one simulation per pre-derived seed, in seed order.

    This is the body shared by the serial loop in
    :func:`replicate_application` and the pool-side
    :meth:`repro.exec.tasks.ReplicateTask.run`, which is what guarantees
    backends agree bit for bit.
    """
    makespans = []
    with span(
        "sim.replicate",
        app=app.name,
        technique=technique.name,
        replications=len(seeds),
    ):
        for s in seeds:
            result = simulate_application(
                app,
                group,
                technique,
                seed=s,
                config=config,
                availability=availability,
            )
            makespans.append(result.makespan)
    return tuple(makespans)


def replicate_application(
    app: Application,
    group: ProcessorGroup,
    technique: DLSTechnique,
    *,
    replications: int = 10,
    seed: int | None = None,
    config: LoopSimConfig | None = None,
    availability: AvailabilityModel | list[AvailabilityModel] | None = None,
    backend: ExecutionBackend | None = None,
) -> ReplicatedAppStats:
    """Run ``replications`` independent simulations; aggregate makespans.

    Per-replication seeds come from :func:`replication_seeds`:
    ``seed=None`` means fresh entropy, an explicit seed is fully
    reproducible. With the default runtime availability model the
    replications fan out over ``backend`` per
    :func:`~repro.exec.fan_out_ranges`, as
    :class:`~repro.exec.tasks.ReplicateTask` chunks; because every
    replication carries its own pre-derived seed, the results are
    identical to the in-process loop.
    """
    seeds = replication_seeds(seed, replications)
    ranges = (
        fan_out_ranges(replications, backend) if availability is None else None
    )
    if backend is None or ranges is None:
        makespans = run_seeded_replications(
            app, group, technique, seeds,
            config=config, availability=availability,
        )
    else:
        tasks = [
            ReplicateTask(
                app=app,
                group=group,
                technique=technique,
                seeds=seeds[lo:hi],
                config=config,
            )
            for lo, hi in ranges
        ]
        makespans = tuple(
            m for chunk in backend.run_tasks(tasks) for m in chunk
        )
    return ReplicatedAppStats(
        app_name=app.name,
        technique=technique.name,
        makespans=makespans,
    )
