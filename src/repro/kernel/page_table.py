"""Per-process page tables that keep HoPP's reverse page table current.

The paper keeps the reverse page table consistent by hooking the kernel's
PTE update functions (``set_pte_at`` / ``pte_clear``, Section V).  Here
a :class:`PageTable` with an RPT attached writes every transition that
maps or unmaps a physical frame through the RPT's ``update`` itself.

A page table is also the machine's one record of its process: it names
the process's memory cgroup (which owns the LRU its resident pages sit
on) and holds its VMAs.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro.common.compat import slotted_dataclass
from repro.common.types import PageKind
from repro.kernel.cgroup import MemoryCgroup
from repro.kernel.vma import VmaMap


class PteState(enum.IntEnum):
    """Lifecycle of a virtual page in the remote-swap world.

    UNTOUCHED  never accessed; first touch is a minor fault.
    PRESENT    mapped in local DRAM (present bit set).
    SWAPCACHE  resident in the local swapcache but *not* mapped: the next
               access takes a fault that resolves as a prefetch-hit
               (Section II-C's 2.3 us path).
    INFLIGHT   a prefetch read is outstanding on the fabric (a demand
               read completes within its fault).
    REMOTE     swapped out to the remote memory node.
    """

    UNTOUCHED = 0
    PRESENT = 1
    SWAPCACHE = 2
    INFLIGHT = 3
    REMOTE = 4


@slotted_dataclass()
class Pte:
    """One page-table entry plus the swap metadata the simulator needs.

    ``slots=True``: one Pte exists per touched virtual page, so the
    per-instance dict would dominate the simulator's memory and the
    attribute loads its time.
    """

    state: PteState = PteState.UNTOUCHED
    ppn: int = -1
    swap_slot: int = -1
    kind: PageKind = PageKind.BASE_4K
    shared: bool = False
    #: Prefetch bookkeeping: which system/tier fetched this copy, when it
    #: arrived, and whether its PTE was injected before first use.
    prefetched: bool = False
    prefetch_tier: str = ""
    arrival_us: float = 0.0
    injected: bool = False


class PageTable:
    """Sparse VPN -> PTE mapping for one process, charged to ``cgroup``."""

    def __init__(self, pid: int, cgroup: Optional[MemoryCgroup] = None) -> None:
        self.pid = pid
        self.cgroup = cgroup
        self.vmas = VmaMap(pid)
        self._entries: Dict[int, Pte] = {}
        #: The reverse page table every map and unmap writes through
        #: (Section V's ``set_pte_at`` / ``pte_clear``): anything with
        #: ``update(ppn, entry)``, such as HoPP's RPT cache.  None on a
        #: machine without HoPP.  ``update`` is looked up at each call.
        self.rpt = None

    # -- entry access -----------------------------------------------------------

    def entry(self, vpn: int) -> Pte:
        """Return the PTE for ``vpn``, creating an UNTOUCHED one on demand."""
        pte = self._entries.get(vpn)
        if pte is None:
            pte = Pte()
            self._entries[vpn] = pte
        return pte

    def peek(self, vpn: int) -> Optional[Pte]:
        return self._entries.get(vpn)

    def map_page(self, vpn: int, ppn: int, pte: Pte, injected: bool = False) -> None:
        """Set the present bit: ``vpn``, whose entry is ``pte``, now maps
        to local frame ``ppn``.  The RPT learns the mapping as a plain
        ``(pid, vpn, shared, kind)`` tuple, the layout
        :class:`~repro.common.types.RptEntry` names.
        """
        pte.state = PteState.PRESENT
        pte.ppn = ppn
        pte.injected = injected
        if self.rpt is not None:
            self.rpt.update(ppn, (self.pid, vpn, pte.shared, pte.kind))

    def unmap_page(self, vpn: int, pte: Pte) -> None:
        """Clear the present bit (reclaim path) and the frame's RPT
        entry; ``pte`` is ``vpn``'s entry, which must be PRESENT."""
        ppn = pte.ppn
        pte.ppn = -1
        if self.rpt is not None:
            self.rpt.update(ppn, None)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries
