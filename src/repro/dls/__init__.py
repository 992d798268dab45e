"""Stage II — dynamic loop scheduling techniques.

Non-adaptive (STATIC, SS, FSC, mFSC, GSS, TSS, TFSS, FAC, WF) and adaptive
(FAC-P, AWF and variants, AF) chunk-size policies behind a common session
interface, plus a name registry.
"""

from .base import DLSTechnique, SchedulingSession, WorkerState
from .nonadaptive import (
    Static,
    SelfScheduling,
    FixedSizeChunking,
    ModifiedFSC,
    Guided,
    Trapezoid,
    TrapezoidFactoring,
)
from .factoring import Factoring, ProbabilisticFactoring, WeightedFactoring
from .adaptive import (
    AdaptiveWeightedFactoring,
    AWFBatch,
    AWFChunk,
    AWFBatchChunkTime,
    AWFChunkChunkTime,
    AdaptiveFactoring,
)
from .registry import ALL_TECHNIQUES, PAPER_TECHNIQUES, ROBUST_SET, make_technique

__all__ = [
    "DLSTechnique",
    "SchedulingSession",
    "WorkerState",
    "Static",
    "SelfScheduling",
    "FixedSizeChunking",
    "ModifiedFSC",
    "Guided",
    "Trapezoid",
    "TrapezoidFactoring",
    "Factoring",
    "ProbabilisticFactoring",
    "WeightedFactoring",
    "AdaptiveWeightedFactoring",
    "AWFBatch",
    "AWFChunk",
    "AWFBatchChunkTime",
    "AWFChunkChunkTime",
    "AdaptiveFactoring",
    "ALL_TECHNIQUES",
    "PAPER_TECHNIQUES",
    "ROBUST_SET",
    "make_technique",
]
