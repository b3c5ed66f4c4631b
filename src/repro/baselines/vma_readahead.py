"""VMA-based read-ahead (the Linux 5.4 swap_vma_readahead baseline of
Section VI-E).

Prefetches pages *adjacent in the virtual address space* around the
fault, clipped to the faulting page's VMA.  The VMA acts as a coarse
pages-clustering: it beats Fastswap's swap-offset read-ahead (~3.6% in
the paper's microbenchmark) because virtual adjacency predicts reuse
better than eviction adjacency, but it still only fires on faults and
still pays the prefetch-hit cost.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.baselines.base import FaultTimePrefetcher


class VmaReadaheadPrefetcher(FaultTimePrefetcher):
    name = "vma-readahead"
    inject_pte = False

    def __init__(self, window: int = 8) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window

    def on_fault(self, pid, vpn, slot, now_us, machine) -> List[Tuple[int, int]]:
        region = machine.page_table(pid).vmas.find(vpn)
        # Forward-biased window around the fault, like swap_vma_readahead.
        back = self.window // 4
        fwd = self.window - back
        lo = vpn - back
        hi = vpn + fwd
        if region is not None:
            lo = max(lo, region.start_vpn)
            hi = min(hi, region.end_vpn - 1)
        return [
            (pid, candidate)
            for candidate in range(lo, hi + 1)
            if candidate != vpn and candidate >= 0
        ]
