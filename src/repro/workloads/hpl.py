"""High Performance Linpack (Table IV: 1.2 GB, 2 cores).

Blocked LU factorization.  Each step factors a panel (a plain stream)
and then updates the trailing submatrix, whose footprint is the
paper's canonical *ladder stream* (Section II-B, Figure 2): a tread of
concentrated accesses across several column blocks at non-uniform
offsets, followed by a stable rise to the next row of blocks.  The
non-uniform tread spacing leaves no majority stride, so SSP fails and
LSP supplies the extra coverage Figure 19/20 report for HPL.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.workloads import traclib
from repro.workloads.base import ProcessSpec, Visit, Workload

MATRIX_BASE = 1 << 20
PANEL_BASE = 1 << 22

#: Non-uniformly spaced column-block offsets: strides 9, 13, 21 within a
#: tread never reach the L/2 majority SSP needs.
TREAD_OFFSETS = (0, 9, 22, 43)


class Hpl(Workload):
    name = "hpl"
    jvm = False
    compute_us_per_access = 0.5  # DGEMM is compute-heavy

    def __init__(
        self,
        seed: int = 1,
        matrix_pages: int = 1800,
        panel_pages: int = 120,
        steps: int = 10,
        blocks_per_page: int = 8,
    ) -> None:
        super().__init__(seed)
        self.matrix_pages = matrix_pages
        self.panel_pages = panel_pages
        self.steps = steps
        self.blocks_per_page = blocks_per_page

    @property
    def footprint_pages(self) -> int:
        return self.matrix_pages + self.panel_pages

    @property
    def processes(self) -> List[ProcessSpec]:
        return [
            ProcessSpec(
                pid=1,
                vmas=(
                    (MATRIX_BASE, self.matrix_pages, "matrix"),
                    (PANEL_BASE, self.panel_pages, "panel"),
                ),
            )
        ]

    def visits(self) -> Iterator[Visit]:
        rng = random.Random(self.seed)
        ladder_span = max(TREAD_OFFSETS) + 1
        for step in range(self.steps):
            # Panel factorization: stream over the current panel twice.
            for _ in range(2):
                yield from traclib.scan(
                    1, PANEL_BASE, self.panel_pages, blocks_per_page=self.blocks_per_page
                )
            # Trailing update: ladder walks over the shrinking submatrix.
            remaining = self.matrix_pages - step * (self.matrix_pages // (2 * self.steps))
            base = MATRIX_BASE + self.matrix_pages - remaining
            ladder_steps = max((remaining - ladder_span) // 2, 8)
            yield from traclib.ladder(
                1,
                base,
                TREAD_OFFSETS,
                steps=ladder_steps,
                rise=2,
                blocks_per_page=self.blocks_per_page,
            )
            # Row swaps: a short pass over the factored region.
            yield from traclib.scan(
                1,
                MATRIX_BASE,
                min(self.matrix_pages, remaining // 2),
                blocks_per_page=self.blocks_per_page,
            )
