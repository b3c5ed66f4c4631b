"""Shared primitives: constants, value types, LRU structures, statistics."""

from repro.common import constants
from repro.common.assoc import LruDict, SetAssociativeTable
from repro.common.stats import CounterSet, Histogram, RunningStat, safe_ratio
from repro.common.types import (
    FaultBreakdown,
    HotPage,
    MemoryAccess,
    PageKind,
    PrefetchDecision,
    RptEntry,
    StreamObservation,
    TraceRecord,
    VmaRegion,
)

__all__ = [
    "constants",
    "LruDict",
    "SetAssociativeTable",
    "CounterSet",
    "Histogram",
    "RunningStat",
    "safe_ratio",
    "FaultBreakdown",
    "HotPage",
    "MemoryAccess",
    "PageKind",
    "PrefetchDecision",
    "RptEntry",
    "StreamObservation",
    "TraceRecord",
    "VmaRegion",
]
