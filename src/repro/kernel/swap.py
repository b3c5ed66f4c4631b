"""Swap-slot space.

Swap slots are allocated in eviction order, which is the property
Fastswap's read-ahead depends on: it prefetches pages *adjacent in swap
offset*, i.e., pages that happened to be reclaimed together — not pages
adjacent in the virtual address space (Section VI-E contrasts this with
VMA-based read-ahead).

The swapcache has no structure of its own: a page is in it exactly when
its PTE is :attr:`~repro.kernel.page_table.PteState.SWAPCACHE` (resident
but unmapped, Section II-C), and its arrival time is ``Pte.arrival_us``.
The machine counts inserts, hits and drops.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


class SwapSpace:
    """Monotonic slot allocator with a slot -> (pid, vpn) reverse map."""

    def __init__(self) -> None:
        self._next_slot = 0
        self._slot_to_page: Dict[int, Tuple[int, int]] = {}

    def allocate(self, pages: Sequence[Tuple[int, int]]) -> int:
        """Assign consecutive fresh slots to ``pages`` (pid, vpn), in
        order, and return the first: a reclaim batch lands on adjacent
        slots.  No page holds a live slot: a local page freed it when
        mapped or, in the swapcache, before its writeback.  Re-evicting
        a page so gets a fresh slot."""
        slot = first = self._next_slot
        slot_to_page = self._slot_to_page
        for page in pages:
            slot_to_page[slot] = page
            slot += 1
        self._next_slot = slot
        return first

    def free(self, slot: int) -> None:
        self._slot_to_page.pop(slot, None)

    def page_at(self, slot: int) -> Optional[Tuple[int, int]]:
        return self._slot_to_page.get(slot)

    def neighbors(self, slot: int, before: int, after: int) -> List[Tuple[int, int]]:
        """Live pages in slots [slot-before, slot+after], excluding
        ``slot`` itself — the read-ahead window."""
        out: List[Tuple[int, int]] = []
        for candidate in range(slot - before, slot + after + 1):
            if candidate == slot:
                continue
            page = self._slot_to_page.get(candidate)
            if page is not None:
                out.append(page)
        return out

    @property
    def slots_in_use(self) -> int:
        return len(self._slot_to_page)

