"""OMP-K-means (Table IV: 3.2 GB footprint, 2 cores).

Two worker threads each stream their half of a large, contiguous sample
array once per iteration — the paper notes that, unlike Spark's staged
allocation, OMP-K-means "allocates a large array and writes all the data
into a contiguous memory", producing long simple streams.  A small
centroid region stays hot throughout.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.workloads import traclib
from repro.workloads.base import ProcessSpec, Visit, Workload

DATA_BASE = 1 << 20
CENTROID_BASE = 1 << 22


class OmpKmeans(Workload):
    name = "omp-kmeans"
    jvm = False
    compute_us_per_access = 0.35

    def __init__(
        self,
        seed: int = 1,
        data_pages: int = 2400,
        centroid_pages: int = 24,
        iterations: int = 3,
        threads: int = 2,
        blocks_per_page: int = 8,
    ) -> None:
        super().__init__(seed)
        self.data_pages = data_pages
        self.centroid_pages = centroid_pages
        self.iterations = iterations
        self.threads = threads
        self.blocks_per_page = blocks_per_page

    @property
    def footprint_pages(self) -> int:
        return self.data_pages + self.centroid_pages

    @property
    def processes(self) -> List[ProcessSpec]:
        return [
            ProcessSpec(
                pid=1,
                vmas=(
                    (DATA_BASE, self.data_pages, "samples"),
                    (CENTROID_BASE, self.centroid_pages, "centroids"),
                ),
            )
        ]

    def visits(self) -> Iterator[Visit]:
        rng = random.Random(self.seed)
        chunk = self.data_pages // self.threads
        for _ in range(self.iterations):
            scans = [
                traclib.scan(
                    1,
                    DATA_BASE + t * chunk,
                    chunk,
                    blocks_per_page=self.blocks_per_page,
                )
                for t in range(self.threads)
            ]
            centroid_visits = self.data_pages  # roughly one per data page
            hot = traclib.hotspot(
                1, CENTROID_BASE, self.centroid_pages, centroid_visits, rng
            )
            yield from traclib.interleave(
                scans + [hot], rng, chunk_pages=8, blocks_per_page=self.blocks_per_page
            )
