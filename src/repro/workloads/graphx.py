"""GraphX workloads on Spark: BFS, CC, PageRank, LP (Table IV: 33 GB,
14 cores, JVM-hosted).

The graph lives in CSR-like form: edge arrays streamed per iteration and
a vertex-state table hit with power-law-skewed gathers.  Spark behaviour
per Section VI-B: the run has three parts with growing footprint (11,
22, 33 GB in the paper — thirds here); each part's RDD partitions are
scattered heap segments, so edge streams are short; GC passes sweep the
live heap between iterations.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.workloads import jvmlib, traclib
from repro.workloads.base import ProcessSpec, Visit, Workload

EDGE_BASE = 1 << 20
VERTEX_BASE = 1 << 23


class _GraphxBase(Workload):
    jvm = True
    compute_us_per_access = 0.25

    #: Fraction of per-iteration work that is irregular vertex gathers.
    gather_ratio = 0.3
    #: Iterations per part.
    iterations = 2
    #: Short sequential run length for frontier-driven kernels (pages);
    #: None means full-segment streaming.
    run_pages = None

    def __init__(
        self,
        seed: int = 1,
        edge_pages: int = 3600,
        vertex_pages: int = 600,
        parts: int = 3,
        segment_pages: int = 200,
        blocks_per_page: int = 8,
    ) -> None:
        super().__init__(seed)
        self.edge_pages = edge_pages
        self.vertex_pages = vertex_pages
        self.parts = parts
        self.segment_pages = segment_pages
        self.blocks_per_page = blocks_per_page
        rng = random.Random(seed ^ 0x5A17)
        self._segments = jvmlib.make_segments(
            EDGE_BASE, edge_pages, segment_pages, rng
        )

    @property
    def footprint_pages(self) -> int:
        return self.edge_pages + self.vertex_pages

    @property
    def processes(self) -> List[ProcessSpec]:
        start, npages = jvmlib.span(self._segments)
        return [
            ProcessSpec(
                pid=1,
                vmas=(
                    (start, npages, "edge-heap"),
                    (VERTEX_BASE, self.vertex_pages, "vertex-state"),
                ),
            )
        ]

    def visits(self) -> Iterator[Visit]:
        rng = random.Random(self.seed)
        nsegs = len(self._segments)
        for part in range(1, self.parts + 1):
            live = self._segments[: max(1, nsegs * part // self.parts)]
            for _ in range(self.iterations):
                yield from self._iteration(rng, live)
            # End-of-part GC: sweep the live heap.
            yield from jvmlib.gc_pass(1, live)

    def _iteration(self, rng: random.Random, live) -> Iterator[Visit]:
        edge_visits = jvmlib.total_pages(live)
        gathers = traclib.random_gather(
            1,
            VERTEX_BASE,
            self.vertex_pages,
            int(edge_visits * self.gather_ratio),
            rng,
            blocks_per_page=4,
            zipf_exponent=0.8,
        )
        yield from traclib.interleave(
            [self._edge_stream(rng, live), gathers],
            rng,
            chunk_pages=5,
            blocks_per_page=self.blocks_per_page,
        )

    def _edge_stream(self, rng: random.Random, live) -> Iterator[Visit]:
        if self.run_pages is None:
            yield from jvmlib.segmented_scan(
                1, live, self.blocks_per_page, parallelism=6, rng=rng
            )
            return
        # Frontier-driven: mostly short adjacency runs at random
        # positions, punctuated by long hub-vertex runs (power-law
        # graphs: a high-degree hub's edge list spans tens of pages).
        visits = jvmlib.total_pages(live)
        emitted = 0
        while emitted < visits:
            start, npages = live[rng.randrange(len(live))]
            if rng.random() < 0.3:
                run = min(rng.randrange(30, 81), npages)
            else:
                run = min(1 + rng.randrange(self.run_pages), npages)
            offset = rng.randrange(max(npages - run, 1))
            yield from traclib.scan(
                1, start + offset, run, blocks_per_page=self.blocks_per_page
            )
            emitted += run


class GraphxPageRank(_GraphxBase):
    name = "graphx-pr"
    gather_ratio = 0.3
    iterations = 2


class GraphxCC(_GraphxBase):
    name = "graphx-cc"
    gather_ratio = 0.5
    iterations = 2
    run_pages = 8


class GraphxLP(_GraphxBase):
    name = "graphx-lp"
    gather_ratio = 0.5
    iterations = 2


class GraphxBFS(_GraphxBase):
    name = "graphx-bfs"
    gather_ratio = 0.5
    iterations = 2
    run_pages = 4
