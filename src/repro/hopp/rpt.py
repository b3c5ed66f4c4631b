"""Reverse Page Table (RPT) and its in-MC cache — Section III-C.

The RPT maps PPN -> (PID, VPN, shared flag, huge-page flag); the only full
copy lives in a reserved, uncached DRAM area (Figure 6) and the MC holds a
small 16-way cache in front of it.  All reads and writes go through the
cache, so no coherence with DRAM is needed; dirty entries are written
back lazily on eviction.

Maintenance mirrors Section V: the kernel's PTE update functions
(set_pte_at / pte_clear and the pmd variants for huge pages) keep the
RPT current.  Here each :class:`~repro.kernel.page_table.PageTable`
with an RPT attached writes every map and unmap through
:meth:`RptCache.update`.  Section V also seeds the RPT by walking the
existing page tables at startup; here every table is still empty when
the plane attaches, so the write-through sees every mapping.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set

from repro.common.constants import (
    BLOCK_SIZE,
    HOT_PAGE_RECORD_BYTES,
    RPT_CACHE_KB,
    RPT_CACHE_WAYS,
    RPT_ENTRY_BYTES,
)
from repro.common.types import RptEntry


class ReversePageTable:
    """The DRAM-resident PPN -> RptEntry store."""

    def __init__(self) -> None:
        self._entries: Dict[int, RptEntry] = {}
        self.reads = 0
        self.writes = 0

    def read(self, ppn: int) -> Optional[RptEntry]:
        self.reads += 1
        return self._entries.get(ppn)

    def write(self, ppn: int, entry: Optional[RptEntry]) -> None:
        self.writes += 1
        if entry is None:
            self._entries.pop(ppn, None)
        else:
            self._entries[ppn] = entry

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, ppn: int) -> bool:
        return ppn in self._entries

    @staticmethod
    def size_bytes(local_memory_pages: int) -> int:
        """RPT footprint for a machine with that many physical pages —
        0.17% of physical memory with 8-byte entries (Section III-C)."""
        return local_memory_pages * RPT_ENTRY_BYTES


#: What a set hands back for a PPN it does not cache (a cached PPN
#: may map to None: a frame no process maps).
_ABSENT = object()


class RptCache:
    """16-way write-back cache over the RPT (default 64 KB -> 8K entries).

    ``lookup`` resolves a hot PPN to its PID+VPN combo; misses fill from
    the DRAM RPT.  The page tables write every map and unmap through
    :meth:`update` (write-allocate), and dirty lines reach DRAM only on
    eviction — the lazy write-back of Section V.
    """

    def __init__(
        self,
        backing: ReversePageTable,
        size_kb: int = RPT_CACHE_KB,
        ways: int = RPT_CACHE_WAYS,
    ) -> None:
        entries = (size_kb * 1024) // RPT_ENTRY_BYTES
        if entries < ways:
            raise ValueError("RPT cache smaller than one set")
        self.backing = backing
        self.nsets = entries // ways
        self.ways = ways
        #: One LRU-ordered dict per set (last item = most recently used),
        #: indexed by ``ppn % nsets``: PPN -> its entry, or None for a
        #: frame no process maps.
        self._sets: List["OrderedDict[int, Optional[RptEntry]]"] = [
            OrderedDict() for _ in range(self.nsets)
        ]
        #: PPNs of the cached lines DRAM has not seen yet.
        self._dirty: Set[int] = set()
        self.lookups = 0
        self.lookup_hits = 0
        self.dram_fills = 0
        self.writebacks = 0

    # -- the hot-page path -------------------------------------------------------

    def lookup(self, ppn: int) -> Optional[RptEntry]:
        """Resolve a hot page's PPN.  Returns None for frames the kernel
        never mapped (e.g., kernel/DMA memory) — those hot pages are
        dropped before reaching the training framework.
        """
        self.lookups += 1
        target = self._sets[ppn % self.nsets]
        entry = target.get(ppn, _ABSENT)
        if entry is not _ABSENT:
            target.move_to_end(ppn)
            self.lookup_hits += 1
            return entry
        entry = self.backing.read(ppn)
        self.dram_fills += 1
        if len(target) >= self.ways:
            self._evict_lru(target)
        target[ppn] = entry
        return entry

    # -- the page tables' write-through ------------------------------------------

    def update(self, ppn: int, entry: Optional[RptEntry]) -> None:
        """Write a map (``entry``) or an unmap (None) through the cache.

        Page-table traffic does not count toward the hot-page-query hit
        rate (Table III measures the lookup path only).
        """
        target = self._sets[ppn % self.nsets]
        if ppn in target:
            target.move_to_end(ppn)
        elif len(target) >= self.ways:
            self._evict_lru(target)
        target[ppn] = entry
        self._dirty.add(ppn)

    def _evict_lru(self, target: "OrderedDict[int, Optional[RptEntry]]") -> None:
        """Drop a full set's LRU line, writing it back if dirty."""
        ppn, entry = target.popitem(last=False)
        dirty = self._dirty
        if ppn in dirty:
            dirty.remove(ppn)
            self.backing.write(ppn, entry)
            self.writebacks += 1

    def flush(self) -> None:
        """Write back every dirty line (used by tests and shutdown)."""
        dirty = self._dirty
        for target in self._sets:
            for ppn, entry in target.items():
                if ppn in dirty:
                    self.backing.write(ppn, entry)
                    self.writebacks += 1
        dirty.clear()

    # -- statistics (Table III / Table V) ------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Hit rate of the hot-page lookup path (Table III's metric)."""
        return self.lookup_hits / self.lookups if self.lookups else 0.0

    @property
    def bandwidth_overhead(self) -> float:
        """Extra DRAM bandwidth from RPT misses and writebacks relative to
        the hot-page traffic it serves: 8-byte RPT entries moved per
        hot-page record.  Table V's RPT row divides by the application's
        MC traffic instead; that is :func:`rpt_bandwidth_overhead`."""
        moved = (self.dram_fills + self.writebacks) * RPT_ENTRY_BYTES
        served = self.lookups * HOT_PAGE_RECORD_BYTES
        return moved / served if served else 0.0

    def dram_bytes_moved(self) -> int:
        return (self.dram_fills + self.writebacks) * RPT_ENTRY_BYTES


def rpt_bandwidth_overhead(cache: RptCache, mc_accesses: int) -> float:
    """Table V's RPT row: RPT DRAM traffic / application MC traffic."""
    app_bytes = mc_accesses * BLOCK_SIZE
    return cache.dram_bytes_moved() / app_bytes if app_bytes else 0.0
