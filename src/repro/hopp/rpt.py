"""Reverse Page Table (RPT) and its in-MC cache — Section III-C.

The RPT maps PPN -> (PID, VPN, shared flag, huge-page flag); the only full
copy lives in a reserved, uncached DRAM area (Figure 6) and the MC holds a
small 16-way cache in front of it.  All reads and writes go through the
cache, so no coherence with DRAM is needed; dirty entries are written
back lazily on eviction.

Maintenance mirrors Section V: at startup HoPP walks all existing page
tables to seed the RPT; afterwards kernel PTE hooks (set_pte_at /
pte_clear and the pmd variants for huge pages) keep it current.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional

from repro.common.compat import slotted_dataclass
from repro.common.constants import (
    BLOCK_SIZE,
    HOT_PAGE_RECORD_BYTES,
    RPT_CACHE_KB,
    RPT_CACHE_WAYS,
    RPT_ENTRY_BYTES,
)
from repro.common.types import RptEntry
from repro.kernel.page_table import PageTable, Pte


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


@slotted_dataclass()
class _CacheLine:
    entry: Optional[RptEntry]
    dirty: bool = False


class RptCache:
    """16-way write-back cache over the RPT (default 64 KB -> 8K entries).

    ``lookup`` resolves a hot PPN to its PID+VPN combo; misses fill from
    the DRAM RPT.  PTE hooks update the cache directly (write-allocate),
    and dirty lines reach DRAM only on eviction — the lazy write-back of
    Section V.
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
        self.size_kb = size_kb
        self.nsets = entries // ways
        self.ways = ways
        #: One LRU-ordered dict per set (last item = most recently used),
        #: indexed by ``ppn % nsets``.
        self._sets: List["OrderedDict[int, _CacheLine]"] = [
            OrderedDict() for _ in range(self.nsets)
        ]
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
        line = target.get(ppn)
        if line is not None:
            target.move_to_end(ppn)
            self.lookup_hits += 1
            return line.entry
        entry = self.backing.read(ppn)
        self.dram_fills += 1
        line = self._install(target, ppn)
        line.entry = entry
        line.dirty = False
        return entry

    # -- kernel hook side ----------------------------------------------------------

    def update(self, ppn: int, entry: Optional[RptEntry]) -> None:
        """PTE set/clear hook: write the mapping through the cache.

        Hook traffic does not count toward the hot-page-query hit rate
        (Table III measures the lookup path only).
        """
        target = self._sets[ppn % self.nsets]
        line = target.get(ppn)
        if line is None:
            line = self._install(target, ppn)
        else:
            target.move_to_end(ppn)
        line.entry = entry
        line.dirty = True

    def _install(self, target: "OrderedDict[int, _CacheLine]", ppn: int) -> _CacheLine:
        """Insert a line for an absent ``ppn`` as MRU of its set
        ``target`` and return it for the caller to fill.  A full set
        writes back its LRU victim if dirty, and the victim's line
        object is recycled."""
        if len(target) < self.ways:
            line = target[ppn] = _CacheLine(None)
            return line
        victim_ppn, line = target.popitem(last=False)
        if line.dirty:
            self.backing.write(victim_ppn, line.entry)
            self.writebacks += 1
        target[ppn] = line
        return line

    def flush(self) -> None:
        """Write back every dirty line (used by tests and shutdown)."""
        for target in self._sets:
            for ppn, line in target.items():
                if line.dirty:
                    self.backing.write(ppn, line.entry)
                    self.writebacks += 1
                    line.dirty = False

    # -- statistics (Table III / Table V) ------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Hit rate of the hot-page lookup path (Table III's metric)."""
        return self.lookup_hits / self.lookups if self.lookups else 0.0

    @property
    def bandwidth_overhead(self) -> float:
        """Extra DRAM bandwidth from RPT misses and writebacks relative to
        the hot-page traffic it serves (Table V, RPT row uses the app's MC
        traffic as denominator; see RptMaintainer.bandwidth_overhead)."""
        moved = (self.dram_fills + self.writebacks) * RPT_ENTRY_BYTES
        served = self.lookups * HOT_PAGE_RECORD_BYTES
        return moved / served if served else 0.0

    def dram_bytes_moved(self) -> int:
        return (self.dram_fills + self.writebacks) * RPT_ENTRY_BYTES


class RptMaintainer:
    """Wires kernel PTE hooks into the RPT cache and offers the startup
    full-walk seeding pass (Section V)."""

    def __init__(self, cache: RptCache) -> None:
        self.cache = cache
        self.hook_updates = 0

    def attach(self, page_table: PageTable) -> None:
        page_table.add_set_hook(self.on_pte_set)
        page_table.add_clear_hook(self.on_pte_clear)

    def seed(self, page_tables: Iterable[PageTable]) -> int:
        """Initial full page-table walk; returns entries written."""
        written = 0
        for table in page_tables:
            for vpn, pte in table.present_pages():
                self.cache.update(
                    pte.ppn,
                    RptEntry(table.pid, vpn, pte.shared, pte.kind),
                )
                written += 1
        return written

    def on_pte_set(self, pid: int, vpn: int, ppn: int, pte: Pte) -> None:
        self.hook_updates += 1
        self.cache.update(ppn, RptEntry(pid, vpn, pte.shared, pte.kind))

    def on_pte_clear(self, pid: int, vpn: int, ppn: int) -> None:
        self.hook_updates += 1
        self.cache.update(ppn, None)


def rpt_bandwidth_overhead(cache: RptCache, mc_accesses: int) -> float:
    """Table V's RPT row: RPT DRAM traffic / application MC traffic."""
    app_bytes = mc_accesses * BLOCK_SIZE
    return cache.dram_bytes_moved() / app_bytes if app_bytes else 0.0
