"""Ripple-Stream-based Prefetch (RSP) — Section III-D(4), Algorithm 2.

Ripple streams (Figure 3) are stride-1 simple streams distorted by
out-of-order and cross-stream accesses inside a tiny address range.  The
insight: if the page belongs to a ripple, the walk back through the
stride history keeps *returning* — the cumulative stride from the newest
access repeatedly lands within +/- max_stride (2, tolerating two
out-of-order hops).  Count such returns as ripple evidence; with at least
L/2 of them the stream is a ripple and the target stride is 1.
"""

from __future__ import annotations

from typing import Optional

from repro.common.constants import RSP_MAX_STRIDE
from repro.common.types import Decision, StreamObservation

TIER_NAME = "rsp"


def ripple_score(strides, max_stride: int = RSP_MAX_STRIDE) -> int:
    """Number of ripple returns in a stride history (newest stride last).

    Mirrors Algorithm 2: the newest stride (stride_A) counts directly
    when small; then walk the remaining strides newest-to-oldest,
    accumulating, and count + reset each time the cumulative offset
    returns within +/- max_stride.
    """
    if not strides:
        return 0
    score = 0
    if abs(strides[-1]) <= max_stride:
        score += 1
    accumulate = 0
    for i in range(len(strides) - 2, -1, -1):
        accumulate += strides[i]
        if abs(accumulate) <= max_stride:
            score += 1
            accumulate = 0
    return score


def train(
    observation: StreamObservation,
    max_stride: int = RSP_MAX_STRIDE,
) -> Optional[Decision]:
    """Algorithm 2.  Returns a stride-1 decision when the ripple count
    reaches L/2, else None (no prefetch).  Reads the observation's live
    windows; it copies no history."""
    vpns = observation.vpns
    if ripple_score(observation.strides, max_stride) < len(vpns) // 2:
        return None
    return (TIER_NAME, vpns[-1], 1, 0)
