"""Per-process page tables with HoPP's RPT maintenance hooks.

The paper keeps the reverse page table consistent by hooking the kernel's
PTE update functions (``set_pte_at`` / ``pte_clear``, Section V).  The
:class:`PageTable` here exposes the same hook points: every transition
that maps or unmaps a physical frame notifies registered listeners.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from repro.common.compat import slotted_dataclass
from repro.common.types import PageKind


class PteState(enum.IntEnum):
    """Lifecycle of a virtual page in the remote-swap world.

    UNTOUCHED  never accessed; first touch is a minor fault.
    PRESENT    mapped in local DRAM (present bit set).
    SWAPCACHE  resident in the local swapcache but *not* mapped: the next
               access takes a fault that resolves as a prefetch-hit
               (Section II-C's 2.3 us path).
    INFLIGHT   a demand or prefetch read is outstanding on the fabric.
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
    dirty: bool = False
    kind: PageKind = PageKind.BASE_4K
    shared: bool = False
    #: Prefetch bookkeeping: which system/tier fetched this copy, when it
    #: arrived, and whether its PTE was injected before first use.
    prefetched: bool = False
    prefetch_tier: str = ""
    arrival_us: float = 0.0
    injected: bool = False


#: Hook signature: (pid, vpn, ppn, entry) on set; (pid, vpn, ppn) on clear.
PteSetHook = Callable[[int, int, int, Pte], None]
PteClearHook = Callable[[int, int, int], None]


class PageTable:
    """Sparse VPN -> PTE mapping for one process."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self._entries: Dict[int, Pte] = {}
        self._set_hooks: List[PteSetHook] = []
        self._clear_hooks: List[PteClearHook] = []

    # -- hooks (Section V: set_pte_at / pte_clear callbacks) -------------------

    def add_set_hook(self, hook: PteSetHook) -> None:
        self._set_hooks.append(hook)

    def add_clear_hook(self, hook: PteClearHook) -> None:
        self._clear_hooks.append(hook)

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

    def map_page(self, vpn: int, ppn: int, injected: bool = False) -> Pte:
        """Set the present bit: VPN now maps to local frame ``ppn``.

        Fires the set hooks so the reverse page table stays consistent.
        """
        pte = self.entry(vpn)
        pte.state = PteState.PRESENT
        pte.ppn = ppn
        pte.injected = injected
        for hook in self._set_hooks:
            hook(self.pid, vpn, ppn, pte)
        return pte

    def unmap_page(self, vpn: int) -> Optional[Pte]:
        """Clear the present bit (reclaim path); fires the clear hooks."""
        pte = self._entries.get(vpn)
        if pte is None or pte.state != PteState.PRESENT:
            return None
        ppn = pte.ppn
        pte.ppn = -1
        for hook in self._clear_hooks:
            hook(self.pid, vpn, ppn)
        return pte

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries
