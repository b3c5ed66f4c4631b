"""Shared primitives: constants, value types, statistics, and the
Python 3.9 compat shim (:mod:`repro.common.compat`)."""

from repro.common import constants
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
