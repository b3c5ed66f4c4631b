"""Shared primitives: constants, value types, LRU structures, statistics."""

from repro.common import constants
from repro.common.assoc import SetAssociativeTable
from repro.common.stats import Histogram, RunningStat, safe_ratio
from repro.common.types import (
    Decision,
    FaultBreakdown,
    PageKind,
    RptEntry,
    StreamObservation,
    TraceRecord,
    VmaRegion,
    target_vpn,
)

__all__ = [
    "constants",
    "SetAssociativeTable",
    "Histogram",
    "RunningStat",
    "safe_ratio",
    "Decision",
    "FaultBreakdown",
    "PageKind",
    "RptEntry",
    "StreamObservation",
    "TraceRecord",
    "VmaRegion",
    "target_vpn",
]
