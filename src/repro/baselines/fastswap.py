"""Fastswap's read-ahead prefetcher (Amaro et al., EuroSys '20).

Fastswap keeps Linux's swap read-ahead: on a major fault it reads the
pages whose *swap offsets* neighbor the faulting page's slot.  Swap slots
are assigned in reclaim order, so this clusters pages that were evicted
together — only an approximation of pages that will be *used* together,
which is why its accuracy trails both VMA read-ahead and HoPP
(Section VI-E: "Fastswap prefetches adjacent pages based on swap
offset").

The window adapts like Linux's swap_vma_readahead heuristic: it doubles
after productive batches and halves after wasted ones, bounded by
[1, max_window] (page-cluster default 3 -> 8 pages).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.baselines.base import FaultTimePrefetcher


class FastswapPrefetcher(FaultTimePrefetcher):
    name = "fastswap"
    inject_pte = False

    def __init__(self, max_window: int = 8, initial_window: int = 8) -> None:
        if not 1 <= initial_window <= max_window:
            raise ValueError("need 1 <= initial_window <= max_window")
        self.max_window = max_window
        self.window = initial_window
        #: Hits/waste observed since the last window adjustment.
        self._recent_hits = 0
        self._recent_waste = 0
        self.batches = 0

    def on_fault(self, pid, vpn, slot, now_us, machine) -> List[Tuple[int, int]]:
        self._adapt()
        if slot < 0:
            # First-touch fault: nothing adjacent in swap space yet.
            return []
        self.batches += 1
        half = self.window // 2
        return machine.swap_space.neighbors(
            slot, before=half, after=self.window - half
        )

    def _adapt(self) -> None:
        if self._recent_hits + self._recent_waste < self.window:
            return
        if self._recent_waste > self._recent_hits:
            self.window = max(1, self.window // 2)
        elif self._recent_hits > 0:
            self.window = min(self.max_window, self.window * 2)
        self._recent_hits = 0
        self._recent_waste = 0

    def on_prefetch_hit(self, pid: int, vpn: int, now_us: float, machine=None) -> None:
        self._recent_hits += 1

    def on_prefetch_wasted(self, pid: int, vpn: int) -> None:
        self._recent_waste += 1
