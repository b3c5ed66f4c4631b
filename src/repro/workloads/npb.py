"""NAS Parallel Benchmarks: CG, FT, LU, MG, IS (Table IV: 1-7 GB, 2 cores).

Each kernel reproduces the documented access structure:

* **CG**  — sparse mat-vec: a long stream over the matrix (values +
  column indices) with irregular gathers into the dense vector.
* **FT**  — 3-D FFT: unit-stride butterfly passes alternating with
  large-stride transpose passes (all simple streams, varied strides).
* **LU**  — SSOR wavefronts: net-stride-1 sweeps locally out of order —
  the canonical *ripple* stream.
* **MG**  — multigrid V-cycles: smoothing passes at power-of-two strides
  across levels plus ladder-shaped restriction/prolongation stencils;
  the paper's second LSP/RSP showcase (Figures 19-20).
* **IS**  — bucket sort: a sequential key scan with scattered bucket
  counter updates.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.workloads import traclib
from repro.workloads.base import ProcessSpec, Visit, Workload

REGION_A = 1 << 20   # main data (matrix / grid / keys)
REGION_B = 1 << 22   # secondary data (vectors / buckets / scratch)


class _NpbKernel(Workload):
    jvm = False
    compute_us_per_access = 0.35

    def __init__(
        self,
        seed: int = 1,
        main_pages: int = 2000,
        aux_pages: int = 400,
        iterations: int = 3,
        blocks_per_page: int = 8,
    ) -> None:
        super().__init__(seed)
        self.main_pages = main_pages
        self.aux_pages = aux_pages
        self.iterations = iterations
        self.blocks_per_page = blocks_per_page

    @property
    def footprint_pages(self) -> int:
        return self.main_pages + self.aux_pages

    @property
    def processes(self) -> List[ProcessSpec]:
        return [
            ProcessSpec(
                pid=1,
                vmas=(
                    (REGION_A, self.main_pages, "main"),
                    (REGION_B, self.aux_pages, "aux"),
                ),
            )
        ]


class NpbCG(_NpbKernel):
    name = "npb-cg"

    def visits(self) -> Iterator[Visit]:
        rng = random.Random(self.seed)
        for _ in range(self.iterations):
            matrix = traclib.scan(
                1, REGION_A, self.main_pages, blocks_per_page=self.blocks_per_page
            )
            # Column-index gathers into the dense vector: irregular.
            gathers = traclib.random_gather(
                1, REGION_B, self.aux_pages, self.main_pages // 3, rng,
                blocks_per_page=4,
            )
            yield from traclib.interleave(
                [matrix, gathers], rng, chunk_pages=6,
                blocks_per_page=self.blocks_per_page,
            )


class NpbFT(_NpbKernel):
    name = "npb-ft"

    def visits(self) -> Iterator[Visit]:
        strides = (1, 8, 1, 16)
        for _ in range(self.iterations):
            for stride in strides:
                npages = self.main_pages // stride
                for lane in range(stride):
                    yield from traclib.scan(
                        1,
                        REGION_A + lane,
                        npages,
                        stride=stride,
                        blocks_per_page=self.blocks_per_page,
                    )


class NpbLU(_NpbKernel):
    name = "npb-lu"

    def visits(self) -> Iterator[Visit]:
        rng = random.Random(self.seed)
        for _ in range(self.iterations):
            # SSOR: a forward wavefront sweep (ripple) followed by the
            # backward-substitution sweep walking the grid top-down.
            yield from traclib.ripple(
                1, REGION_A, self.main_pages, rng,
                blocks_per_page=self.blocks_per_page,
            )
            yield from traclib.scan(
                1, REGION_A + self.main_pages - 1, self.main_pages,
                stride=-1, blocks_per_page=self.blocks_per_page,
            )


class NpbMG(_NpbKernel):
    name = "npb-mg"

    #: Tread offsets of the 3-D stencil's plane touches (non-uniform).
    STENCIL_OFFSETS = (0, 11, 26)

    def visits(self) -> Iterator[Visit]:
        rng = random.Random(self.seed)
        span = max(self.STENCIL_OFFSETS) + 1
        for _ in range(self.iterations):
            # Down the V-cycle: symmetric smoothing (forward + backward
            # sweeps) at coarsening strides.
            for stride in (1, 2, 4):
                npages = self.main_pages // stride
                yield from traclib.scan(
                    1,
                    REGION_A,
                    npages,
                    stride=stride,
                    blocks_per_page=self.blocks_per_page,
                )
                yield from traclib.scan(
                    1,
                    REGION_A + (npages - 1) * stride,
                    npages,
                    stride=-stride,
                    blocks_per_page=self.blocks_per_page,
                )
            # Restriction/prolongation stencils: ladder across planes.
            yield from traclib.ladder(
                1,
                REGION_A,
                self.STENCIL_OFFSETS,
                steps=max((self.main_pages - span) // 2, 8),
                rise=2,
                blocks_per_page=self.blocks_per_page,
            )
            # Finest-level smoother: slightly out-of-order stride-1.
            yield from traclib.ripple(
                1, REGION_A, self.main_pages // 2, rng,
                blocks_per_page=self.blocks_per_page,
            )


class NpbIS(_NpbKernel):
    name = "npb-is"

    def visits(self) -> Iterator[Visit]:
        rng = random.Random(self.seed)
        for _ in range(self.iterations):
            keys = traclib.scan(
                1, REGION_A, self.main_pages, blocks_per_page=self.blocks_per_page
            )
            buckets = traclib.random_gather(
                1, REGION_B, self.aux_pages, self.main_pages // 2, rng,
                blocks_per_page=2,
            )
            yield from traclib.interleave(
                [keys, buckets], rng, chunk_pages=4,
                blocks_per_page=self.blocks_per_page,
            )
            # Rank pass: stream the buckets back out.
            yield from traclib.scan(
                1, REGION_B, self.aux_pages, blocks_per_page=self.blocks_per_page
            )
