"""Simple-Stream-based Prefetch (SSP) — Section III-D(2).

A stride is *dominant* when it occurs at least L/2 times in the stream's
stride history; the prefetch target is ``VPN_history[L-1] + i * stride``
where ``i`` is the policy engine's prefetch offset.
"""

from __future__ import annotations

from typing import Optional

from repro.common.types import Decision, StreamObservation

TIER_NAME = "ssp"


def dominant_stride(strides, min_count: int) -> Optional[int]:
    """The most frequent stride if it reaches ``min_count``, else None.

    Zero strides never dominate: a self-stride carries no direction.
    Ties go to the stride seen first, matching ``Counter.most_common``
    (insertion-ordered counts, stable selection), hand-rolled instead of
    building a Counter per call.
    """
    counts: dict = {}
    for s in strides:
        if s != 0:
            counts[s] = counts.get(s, 0) + 1
    best = None
    best_count = 0
    for s, c in counts.items():
        if c > best_count:
            best = s
            best_count = c
    return best if best_count >= min_count else None


def train(observation: StreamObservation) -> Optional[Decision]:
    """Identify a simple stream; None hands over to LSP.

    Decides from the stream's non-zero-stride histogram in this one
    call, reading the observation's live windows and never its tuple
    histories, so an SSP decision copies no history.  The winner is the
    one :func:`dominant_stride` picks: the top count, ties going to the
    stride seen first in the window.  One pass over the histogram finds
    the top count and whether it is tied; only a tie re-scans the
    window, because the histogram's insertion order is re-insertion
    order, not first-occurrence order.  (With the paper's L = 16 a tie
    never clears ``min_count``: two strides of 8 need 16 of 15 slots.)
    Observations without a histogram recount from the strides.
    """
    vpns = observation.vpns
    min_count = len(vpns) // 2
    counts = observation.stride_counts
    if counts is None:
        stride = dominant_stride(observation.strides, min_count)
    else:
        stride = None
        top = 0
        tied = False
        for s, c in counts.items():
            if c > top:
                stride = s
                top = c
                tied = False
            elif c == top:
                tied = True
        if top < min_count:
            return None
        if tied:
            for s in observation.strides:
                if counts.get(s) == top:
                    stride = s
                    break
    if stride is None:
        return None
    return (TIER_NAME, vpns[-1], stride, 0)
