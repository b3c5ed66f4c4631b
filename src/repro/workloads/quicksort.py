"""QuickSort (Table IV: 4 GB footprint, 1 core).

Hoare-partition quicksort over a big array: every partition pass runs
two *converging* page streams — one ascending from the left edge, one
descending from the right — then recurses depth-first into both halves.

Two properties matter for the reproduction: (1) the +1 and -1 streams
interleave in time, which defeats Leap's global majority vote while
HoPP's pages clustering keeps them apart; (2) recursion gives the access
pattern multi-scale reuse — sub-ranges that fit in local memory stop
faulting — so the 50% and 25% memory limits behave differently.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.workloads import traclib
from repro.workloads.base import ProcessSpec, Visit, Workload

ARRAY_BASE = 1 << 20


class Quicksort(Workload):
    name = "quicksort"
    jvm = False
    compute_us_per_access = 0.3

    def __init__(
        self,
        seed: int = 1,
        array_pages: int = 3000,
        leaf_pages: int = 96,
        blocks_per_page: int = 8,
    ) -> None:
        super().__init__(seed)
        self.array_pages = array_pages
        self.leaf_pages = leaf_pages
        self.blocks_per_page = blocks_per_page

    @property
    def footprint_pages(self) -> int:
        return self.array_pages

    @property
    def processes(self) -> List[ProcessSpec]:
        return [
            ProcessSpec(pid=1, vmas=((ARRAY_BASE, self.array_pages, "array"),))
        ]

    def visits(self) -> Iterator[Visit]:
        rng = random.Random(self.seed)
        yield from self._sort(rng, ARRAY_BASE, self.array_pages)

    def _sort(self, rng: random.Random, lo_vpn: int, npages: int) -> Iterator[Visit]:
        if npages <= self.leaf_pages:
            # Insertion-sort leaf: one tight pass.
            yield from traclib.scan(1, lo_vpn, npages, blocks_per_page=self.blocks_per_page)
            return
        yield from self._partition(rng, lo_vpn, npages)
        # Slightly uneven split around a random pivot, like real data.
        left = max(1, int(npages * rng.uniform(0.42, 0.58)))
        yield from self._sort(rng, lo_vpn, left)
        yield from self._sort(rng, lo_vpn + left, npages - left)

    def _partition(self, rng: random.Random, lo_vpn: int, npages: int) -> Iterator[Visit]:
        """Two converging pointer streams, interleaved chunk-wise."""
        half = npages // 2
        ascending = traclib.scan(
            1, lo_vpn, half, stride=1, blocks_per_page=self.blocks_per_page
        )
        descending = traclib.scan(
            1,
            lo_vpn + npages - 1,
            npages - half,
            stride=-1,
            blocks_per_page=self.blocks_per_page,
        )
        yield from traclib.interleave(
            [ascending, descending],
            rng,
            chunk_pages=4,
            blocks_per_page=self.blocks_per_page,
        )
