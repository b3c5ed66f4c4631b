"""Microbenchmarks.

* Pure-pattern stream micros (simple / ladder / ripple / interleaved)
  used by unit tests, the pattern-study example, and the STT ablations.
* :class:`AdderBenchmark` — the Section VI-E sensitivity benchmark:
  two worker threads, each streaming over its own large array and
  summing every 8-byte word (512 additions per page); local memory is
  limited to a quarter of the footprint in the paper's setup.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.workloads import traclib
from repro.workloads.base import ProcessSpec, Visit, Workload

BASE_A = 1 << 20
BASE_B = 1 << 22
NOISE_BASE = 1 << 25


class SimpleStream(Workload):
    """One clean fixed-stride stream."""

    name = "stream-simple"

    def __init__(self, seed: int = 1, npages: int = 1200, stride: int = 1,
                 passes: int = 2, blocks_per_page: int = 8) -> None:
        super().__init__(seed)
        self.npages = npages
        self.stride = stride
        self.passes = passes
        self.blocks_per_page = blocks_per_page

    @property
    def footprint_pages(self) -> int:
        return self.npages * abs(self.stride)

    @property
    def processes(self) -> List[ProcessSpec]:
        return [ProcessSpec(pid=1, vmas=((BASE_A, self.footprint_pages + 1, "arr"),))]

    def visits(self) -> Iterator[Visit]:
        for _ in range(self.passes):
            yield from traclib.scan(
                1, BASE_A, self.npages, stride=self.stride,
                blocks_per_page=self.blocks_per_page,
            )


class LadderStream(Workload):
    """A pure ladder stream (Figure 2)."""

    name = "stream-ladder"
    OFFSETS = (0, 9, 22, 43)

    def __init__(self, seed: int = 1, steps: int = 400, rise: int = 2,
                 passes: int = 2, blocks_per_page: int = 8) -> None:
        super().__init__(seed)
        self.steps = steps
        self.rise = rise
        self.passes = passes
        self.blocks_per_page = blocks_per_page

    @property
    def footprint_pages(self) -> int:
        return max(self.OFFSETS) + self.steps * self.rise + 1

    @property
    def processes(self) -> List[ProcessSpec]:
        return [ProcessSpec(pid=1, vmas=((BASE_A, self.footprint_pages, "arr"),))]

    def visits(self) -> Iterator[Visit]:
        for _ in range(self.passes):
            yield from traclib.ladder(
                1, BASE_A, self.OFFSETS, self.steps, self.rise,
                blocks_per_page=self.blocks_per_page,
            )


class RippleStream(Workload):
    """A pure ripple stream (Figure 3)."""

    name = "stream-ripple"

    def __init__(self, seed: int = 1, npages: int = 1200, passes: int = 2,
                 blocks_per_page: int = 8) -> None:
        super().__init__(seed)
        self.npages = npages
        self.passes = passes
        self.blocks_per_page = blocks_per_page

    @property
    def footprint_pages(self) -> int:
        return self.npages + 16  # hop margin

    @property
    def processes(self) -> List[ProcessSpec]:
        return [ProcessSpec(pid=1, vmas=((BASE_A, self.footprint_pages, "arr"),))]

    def visits(self) -> Iterator[Visit]:
        rng = random.Random(self.seed)
        for _ in range(self.passes):
            yield from traclib.ripple(
                1, BASE_A, self.npages, rng, blocks_per_page=self.blocks_per_page
            )


class InterleavedStreams(Workload):
    """The Figure 1 motivator: two streams with different strides,
    interleaved in time, plus occasional interference pages."""

    name = "stream-interleaved"

    def __init__(self, seed: int = 1, npages: int = 800, passes: int = 2,
                 blocks_per_page: int = 8) -> None:
        super().__init__(seed)
        self.npages = npages
        self.passes = passes
        self.blocks_per_page = blocks_per_page

    @property
    def footprint_pages(self) -> int:
        return self.npages * 3 + 64

    @property
    def processes(self) -> List[ProcessSpec]:
        return [
            ProcessSpec(
                pid=1,
                vmas=(
                    (BASE_A, self.npages * 2 + 1, "stream-a"),
                    (BASE_B, self.npages + 1, "stream-b"),
                    (NOISE_BASE, 64, "noise"),
                ),
            )
        ]

    def visits(self) -> Iterator[Visit]:
        rng = random.Random(self.seed)
        for _ in range(self.passes):
            a = traclib.scan(1, BASE_A, self.npages, stride=2,
                             blocks_per_page=self.blocks_per_page)
            b = traclib.scan(1, BASE_B, self.npages, stride=1,
                             blocks_per_page=self.blocks_per_page)
            mixed = traclib.interleave([a, b], rng, chunk_pages=2,
                                       blocks_per_page=self.blocks_per_page)
            yield from traclib.sprinkle(
                mixed, 1, NOISE_BASE, 64, rng, probability=0.02
            )


class AdderBenchmark(Workload):
    """Section VI-E's benchmark: 2 threads x (2 GB array, read + add all
    8-byte words of every page).  Scaled to pages; pure simple streams
    with no interference, so differences between systems isolate the
    prefetch-hit overhead and offset control."""

    name = "adder"
    compute_us_per_access = 0.4  # 64 additions per cacheline

    def __init__(self, seed: int = 1, pages_per_thread: int = 1500,
                 threads: int = 2, passes: int = 2,
                 blocks_per_page: int = 8) -> None:
        super().__init__(seed)
        self.pages_per_thread = pages_per_thread
        self.threads = threads
        self.passes = passes
        self.blocks_per_page = blocks_per_page

    @property
    def footprint_pages(self) -> int:
        return self.pages_per_thread * self.threads

    @property
    def processes(self) -> List[ProcessSpec]:
        vmas = tuple(
            (BASE_A + t * (1 << 22), self.pages_per_thread, f"array-{t}")
            for t in range(self.threads)
        )
        return [ProcessSpec(pid=1, vmas=vmas)]

    def visits(self) -> Iterator[Visit]:
        rng = random.Random(self.seed)
        for _ in range(self.passes):
            scans = [
                traclib.scan(
                    1,
                    BASE_A + t * (1 << 22),
                    self.pages_per_thread,
                    blocks_per_page=self.blocks_per_page,
                )
                for t in range(self.threads)
            ]
            yield from traclib.interleave(
                scans, rng, chunk_pages=3, blocks_per_page=self.blocks_per_page
            )

class ScanWithWorkingSet(Workload):
    """A long repeated scan interleaved with random reuse of a medium
    working set that fits in local memory *by itself*.

    The classic scan-resistance stressor: plain LRU lets the scan flood
    the recency list and evict the working set, so the working set
    faults on every reuse.  A stream-aware evictor (hopp-evict) keeps
    evicting the scan's dead trail instead and the working set stays
    local."""

    name = "scan-with-workingset"
    compute_us_per_access = 0.3

    def __init__(self, seed: int = 1, scan_pages: int = 2400,
                 working_set_pages: int = 500, passes: int = 3,
                 reuse_ratio: float = 0.5, blocks_per_page: int = 8) -> None:
        super().__init__(seed)
        self.scan_pages = scan_pages
        self.working_set_pages = working_set_pages
        self.passes = passes
        self.reuse_ratio = reuse_ratio
        self.blocks_per_page = blocks_per_page

    @property
    def footprint_pages(self) -> int:
        return self.scan_pages + self.working_set_pages

    @property
    def processes(self) -> List[ProcessSpec]:
        return [
            ProcessSpec(
                pid=1,
                vmas=(
                    (BASE_A, self.scan_pages, "scan"),
                    (BASE_B, self.working_set_pages, "working-set"),
                ),
            )
        ]

    def visits(self) -> Iterator[Visit]:
        rng = random.Random(self.seed)
        for _ in range(self.passes):
            scan = traclib.scan(
                1, BASE_A, self.scan_pages, blocks_per_page=self.blocks_per_page
            )
            reuse = traclib.random_gather(
                1,
                BASE_B,
                self.working_set_pages,
                int(self.scan_pages * self.reuse_ratio),
                rng,
                blocks_per_page=self.blocks_per_page,
            )
            yield from traclib.interleave(
                [scan, reuse], rng, chunk_pages=4,
                blocks_per_page=self.blocks_per_page,
            )
