"""Ladder-Stream-based Prefetch (LSP) — Section III-D(3), Algorithm 1.

Ladder streams (Figure 2) repeat a short spatial pattern: a *tread* of
concentrated cross-stream accesses followed by a *rise* with a larger,
stable stride — the footprint of blocked matrix code such as HPL.

The algorithm forms a target pattern from the newest M=2 consecutive
strides (including stride_A) and scans the stride history, newest first,
for earlier occurrences of that pattern.  Each occurrence contributes:

* its *next stride* (the stride that followed it) — the majority vote
  becomes ``stride_target``;
* the VPN distance to the previous (more recent) occurrence — the
  majority vote becomes ``pattern_stride``, the period of the ladder.

The prefetch target is ``VPN_A + stride_target + i * pattern_stride``
(paper Algorithm 1, line 16): continue the way the previous repetition
continued, then jump ``i`` whole repetitions ahead.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.constants import LSP_PATTERN_LEN
from repro.common.types import Decision, StreamObservation

TIER_NAME = "lsp"


def _majority(values: Sequence[int]) -> int:
    """The most common value (ties break to the most recent, which is
    listed first because the scan walks newest-to-oldest).

    ``Counter.most_common(1)``'s answer (first-inserted among the top
    counts), hand-rolled: LSP runs on every observation SSP passes up,
    and a Counter per call costs more than the whole scan.
    """
    counts: dict = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    best = values[0]
    top = 0
    for value, count in counts.items():
        if count > top:
            best = value
            top = count
    return best


def train(
    observation: StreamObservation,
    pattern_len: int = LSP_PATTERN_LEN,
) -> Optional[Decision]:
    """Algorithm 1.  Returns None when no earlier pattern occurrence
    exists (next_stride empty -> stride_target = 0, no prefetch).

    Reads the observation's live windows and compares each candidate
    stride by stride, so a call copies no history."""
    vpns = observation.vpns
    strides = observation.strides
    n = len(vpns)
    if n < pattern_len + 2 or len(strides) != n - 1:
        return None

    # Target pattern: the newest M consecutive strides, strides[n - 1 - M]
    # .. strides[n - 2], ending in stride_A.
    newest = n - 2
    stride_a = strides[newest]

    next_strides: List[int] = []
    stride_sums: List[int] = []
    # VPN index where the most recent known occurrence ends; starts at the
    # target occurrence itself (the newest VPN).
    last_end = n - 1

    # A candidate occurrence ends at VPN index e; its strides are
    # strides[e - pattern_len : e].  Scan newest first, skipping the
    # target occurrence and requiring a following stride to exist
    # (e <= n - 2 so strides[e] is valid).  The candidate matches when
    # strides[e - k] == strides[newest + 1 - k] for k = 1 .. M, newest
    # stride first.
    for end in range(newest, pattern_len - 1, -1):
        if strides[end - 1] != stride_a:
            continue
        for k in range(2, pattern_len + 1):
            if strides[end - k] != strides[newest + 1 - k]:
                break
        else:
            next_strides.append(strides[end])
            stride_sums.append(vpns[last_end] - vpns[end])
            last_end = end

    if not next_strides:
        return None

    stride_target = _majority(next_strides)
    pattern_stride = _majority(stride_sums)
    if pattern_stride == 0:
        # Degenerate ladder (period 0) — nothing new to prefetch.
        return None
    return (TIER_NAME, vpns[-1], pattern_stride, stride_target)
