"""Offline stream-pattern analysis (the Section II-B / VI-D study).

Classifies windows of a page-access trace into the paper's three stream
shapes — simple, ladder, ripple — or irregular.  Used by the deep-dive
bench and the pattern-study example to show *why* the full memory trace
matters: the ladder/ripple share of HPL and NPB-MG is exactly the
coverage SSP alone leaves on the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.hopp.rsp import ripple_score
from repro.hopp.ssp import dominant_stride


@dataclass
class PatternBreakdown:
    """Window counts per pattern class."""

    counts: Dict[str, int] = field(
        default_factory=lambda: {
            "simple": 0,
            "ladder": 0,
            "ripple": 0,
            "irregular": 0,
        }
    )

    def add(self, label: str) -> None:
        self.counts[label] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fraction(self, label: str) -> float:
        total = self.total
        return self.counts[label] / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {label: self.fraction(label) for label in self.counts}


def classify_window(vpns: Sequence[int], pattern_len: int = 2) -> str:
    """Label one window of page accesses.

    Priority mirrors the three-tier cascade: a dominant stride makes a
    simple stream; a repeating short stride pattern makes a ladder; a
    high ripple score makes a ripple; anything else is irregular.
    """
    if len(vpns) < 4:
        return "irregular"
    strides = [b - a for a, b in zip(vpns, vpns[1:])]
    if dominant_stride(strides, min_count=len(vpns) // 2) is not None:
        return "simple"
    if _has_repeating_pattern(strides, pattern_len):
        return "ladder"
    if ripple_score(strides) >= len(vpns) // 2:
        return "ripple"
    return "irregular"


def _has_repeating_pattern(strides: Sequence[int], pattern_len: int) -> bool:
    """True when the newest ``pattern_len`` strides recur at least twice
    earlier in the window (the LSP candidate condition)."""
    if len(strides) < 2 * pattern_len + 1:
        return False
    target = tuple(strides[-pattern_len:])
    occurrences = 0
    for end in range(len(strides) - 1, pattern_len - 1, -1):
        if tuple(strides[end - pattern_len : end]) == target:
            occurrences += 1
    return occurrences >= 2


def analyze_trace(
    vpns: Iterable[int],
    window: int = 16,
    stream_delta: int = 64,
) -> PatternBreakdown:
    """Cluster a VPN stream into address-space streams (like the STT)
    and classify each full window."""
    breakdown = PatternBreakdown()
    streams: List[List[int]] = []
    for vpn in vpns:
        target = None
        best = stream_delta + 1
        for stream in streams:
            distance = abs(vpn - stream[-1])
            if distance <= stream_delta and distance < best:
                target = stream
                best = distance
        if target is None:
            target = []
            streams.append(target)
            if len(streams) > 64:
                streams.pop(0)
        target.append(vpn)
        if len(target) >= window:
            breakdown.add(classify_window(target[-window:]))
            del target[: -window + 1]
    return breakdown


def page_sequence(trace: Iterable[Tuple[int, int]], page_shift: int = 12) -> List[int]:
    """Collapse a (pid, vaddr) access trace to its distinct-page-visit
    VPN sequence (consecutive duplicates removed)."""
    vpns: List[int] = []
    last = None
    for _, vaddr in trace:
        vpn = vaddr >> page_shift
        if vpn != last:
            vpns.append(vpn)
            last = vpn
    return vpns
