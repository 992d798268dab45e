"""repro.exec — backend-abstracted parallel evaluation core.

The paper's headline artifacts are embarrassingly parallel grids: the
stage-II study sweeps every (application x DLS technique x availability
case x replication) combination, and the stage-I heuristics score
thousands of candidate allocations against the same PMF algebra. This
package turns both hot loops into *task lists* executed through a
pluggable backend:

* :mod:`~repro.exec.tasks` — picklable task descriptions
  (:class:`ReplicateTask`, :class:`CandidateEvalTask`) whose ``run()``
  is a pure function of their fields;
* :mod:`~repro.exec.backends` — the :class:`ExecutionBackend` protocol
  with :class:`SerialBackend` and :class:`ProcessPoolBackend`
  implementations (``REPRO_WORKERS`` / CLI ``--workers`` select the
  degree of parallelism);
* :mod:`~repro.exec.seeds` — the :class:`SeedTree` deriving one
  independent stream per task from ``SeedSequence`` spawn keys, so
  results are bit-for-bit identical no matter where tasks land;
* :func:`evaluate_allocations` — the shared stage-I candidate scoring
  path (memoized serially, chunked across workers in parallel);
* :func:`fan_out_ranges` — the one rule deciding whether a batch of
  items stays in-process or splits into per-worker ranges.

Determinism guarantee: for the same root seed, every backend produces
identical results — tasks carry their own derived seeds and results are
joined in task order. See ``docs/parallelism.md``.
"""

from .backends import (
    ENV_WORKERS,
    MAX_POOL_REBUILDS,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    default_workers,
    fan_out_ranges,
    get_backend,
    parse_workers,
)
from .seeds import SeedTree, derive_seed, encode_component
from .stage1 import evaluate_allocations
from .tasks import Assignment, CandidateEvalTask, ReplicateTask, Task

__all__ = [
    "ENV_WORKERS",
    "MAX_POOL_REBUILDS",
    "Assignment",
    "CandidateEvalTask",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "ReplicateTask",
    "SeedTree",
    "SerialBackend",
    "Task",
    "default_workers",
    "derive_seed",
    "encode_component",
    "evaluate_allocations",
    "fan_out_ranges",
    "get_backend",
    "parse_workers",
]
