"""Discrete-event simulation substrate for stage II."""

from .events import EventQueue
from .worker import SimWorker
from .results import (
    ChunkRecord,
    MasterFailover,
    AppRunResult,
    BatchRunResult,
    ReplicatedAppStats,
    ReplicatedBatchStats,
)
from .loopsim import (
    LoopSimConfig,
    ParallelLoopResult,
    run_parallel_loop,
    simulate_application,
    replicate_application,
    replication_seeds,
    run_seeded_replications,
    DEFAULT_OVERHEAD,
    DEFAULT_AVAIL_INTERVAL,
)
from .timesteps import (
    TimestepResult,
    TimesteppedRunResult,
    simulate_timestepped,
)
from .batchsim import simulate_batch, replicate_batch

__all__ = [
    "EventQueue",
    "SimWorker",
    "ChunkRecord",
    "MasterFailover",
    "AppRunResult",
    "BatchRunResult",
    "ReplicatedAppStats",
    "ReplicatedBatchStats",
    "LoopSimConfig",
    "ParallelLoopResult",
    "run_parallel_loop",
    "simulate_application",
    "replicate_application",
    "replication_seeds",
    "run_seeded_replications",
    "TimestepResult",
    "TimesteppedRunResult",
    "simulate_timestepped",
    "simulate_batch",
    "replicate_batch",
    "DEFAULT_OVERHEAD",
    "DEFAULT_AVAIL_INTERVAL",
]
