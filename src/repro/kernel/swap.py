"""Swap-slot space and swapcache.

Swap slots are allocated in eviction order, which is the property
Fastswap's read-ahead depends on: it prefetches pages *adjacent in swap
offset*, i.e., pages that happened to be reclaimed together — not pages
adjacent in the virtual address space (Section VI-E contrasts this with
VMA-based read-ahead).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple


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


class SwapCache:
    """Pages resident in local DRAM but not mapped into any page table.

    A fault on one of these is a *prefetch-hit*: it still pays the
    synchronous fault cost (2.3 us) but skips the network (Section II-C).
    A page's arrival time lives on its PTE (``Pte.arrival_us``).
    """

    def __init__(self) -> None:
        self._pages: Set[Tuple[int, int]] = set()
        self.inserts = 0
        self.hits = 0
        self.drops = 0

    def insert(self, pid: int, vpn: int) -> None:
        self._pages.add((pid, vpn))
        self.inserts += 1

    def take(self, pid: int, vpn: int) -> bool:
        """Remove a page the fault path maps; True when it was cached."""
        key = (pid, vpn)
        if key not in self._pages:
            return False
        self._pages.remove(key)
        self.hits += 1
        return True

    def drop(self, pid: int, vpn: int) -> bool:
        """Reclaim an unused swapcache page (it was clean by definition)."""
        key = (pid, vpn)
        if key not in self._pages:
            return False
        self._pages.remove(key)
        self.drops += 1
        return True

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self._pages

    def __len__(self) -> int:
        return len(self._pages)
