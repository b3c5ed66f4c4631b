"""Detailed mode: filter raw reference streams through a real cache
hierarchy.

The fast path feeds workload traces to the machine as LLC-*miss*
streams.  Detailed mode instead treats a trace as the full reference
stream an MMU would observe, walks it through a set-associative cache
hierarchy, and forwards only the LLC misses — the traffic a memory
controller actually sees.

This is the quantitative backbone of Section II-D's "Why Memory
Controller?" argument: the MMU sees L1 accesses, "two orders of
magnitude higher than LLC miss (e.g., 180 times for Spark-Graph-BFS)",
so hardware at the MMU would have to filter enormous volumes and would
mistake in-LLC locality for streams.  :func:`mmu_vs_mc_volumes` measures
that reduction factor for any workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.memsim.cache import CacheHierarchy
from repro.workloads.base import Access


@dataclass
class VolumeReport:
    """Reference counts at each observation point (Section II-D)."""

    mmu_accesses: int
    llc_misses: int

    @property
    def reduction_factor(self) -> float:
        """How many MMU-visible references per MC-visible miss."""
        return self.mmu_accesses / self.llc_misses if self.llc_misses else 0.0


class CacheFilter:
    """Streams (pid, vaddr) references through a hierarchy, yielding
    only the LLC misses.

    Virtual addresses index the caches directly (a VIPT idealization);
    for the volume argument the indexing function is immaterial.
    """

    def __init__(self, hierarchy: Optional[CacheHierarchy] = None) -> None:
        self.hierarchy = hierarchy or CacheHierarchy()
        self.references = 0
        self.misses = 0

    def filter(self, trace: Iterable[Access]) -> Iterator[Access]:
        for pid, vaddr in trace:
            self.references += 1
            if self.hierarchy.access(vaddr):
                self.misses += 1
                yield pid, vaddr

    @property
    def report(self) -> VolumeReport:
        return VolumeReport(self.references, self.misses)


def expand_to_references(
    trace: Iterable[Access], repeats: int = 4, unroll: int = 16
) -> Iterator[Access]:
    """Approximate an MMU-level reference stream from a miss-level one.

    Each miss-level access in real code is surrounded by register/LLC
    locality: loads revisit recent lines (loop bodies re-touch the same
    cachelines).  Replaying a sliding window ``repeats`` times per
    ``unroll`` accesses synthesizes that locality without changing the
    page-level footprint.
    """
    window = []
    for access in trace:
        yield access
        window.append(access)
        if len(window) >= unroll:
            for _ in range(repeats - 1):
                yield from window
            window.clear()


def mmu_vs_mc_volumes(
    trace: Iterable[Access],
    hierarchy: Optional[CacheHierarchy] = None,
    repeats: int = 4,
) -> VolumeReport:
    """Measure the MMU-visible vs MC-visible reference volumes for a
    reference stream synthesized from ``trace``."""
    cache_filter = CacheFilter(hierarchy)
    for _ in cache_filter.filter(expand_to_references(trace, repeats=repeats)):
        pass
    return cache_filter.report
