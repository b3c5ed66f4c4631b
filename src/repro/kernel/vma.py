"""Virtual memory areas.

Workload generators register their allocations as VMAs, which each
process's page table holds; the VMA-based read-ahead baseline (Linux
5.4 behaviour, Section VI-E) uses them to bound prefetching to the
faulting page's region, which the paper notes is "a resemblance of page
clustering".
"""

from __future__ import annotations

import bisect
from typing import List, Optional

from repro.common.types import VmaRegion


class VmaMap:
    """Sorted, non-overlapping VMA registry for one process."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self._starts: List[int] = []
        self._regions: List[VmaRegion] = []

    def add(self, start_vpn: int, npages: int, name: str = "") -> VmaRegion:
        if npages < 1:
            raise ValueError("a VMA needs at least one page")
        region = VmaRegion(start_vpn, start_vpn + npages, name, self.pid)
        idx = bisect.bisect_left(self._starts, start_vpn)
        prev_overlaps = idx > 0 and self._regions[idx - 1].end_vpn > start_vpn
        next_overlaps = (
            idx < len(self._regions) and region.end_vpn > self._regions[idx].start_vpn
        )
        if prev_overlaps or next_overlaps:
            raise ValueError(
                f"VMA [{start_vpn}, {region.end_vpn}) overlaps an existing region"
            )
        self._starts.insert(idx, start_vpn)
        self._regions.insert(idx, region)
        return region

    def find(self, vpn: int) -> Optional[VmaRegion]:
        idx = bisect.bisect_right(self._starts, vpn) - 1
        if idx < 0:
            return None
        region = self._regions[idx]
        return region if vpn in region else None

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self):
        return iter(self._regions)

