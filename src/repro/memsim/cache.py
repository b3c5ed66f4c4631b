"""Set-associative cache model.

Used to validate that workload generators' miss-level traces match what a
real LLC would emit, and by the detailed simulation mode.  Addresses are
byte addresses; the cache operates on cacheline-aligned blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.assoc import SetAssociativeTable
from repro.common.constants import BLOCK_SHIFT


@dataclass
class CacheLineState:
    """Per-line metadata: only dirtiness matters to a write-back model."""

    dirty: bool = False


@dataclass(frozen=True)
class CacheAccessResult:
    hit: bool
    #: Block address (cacheline-aligned byte address >> BLOCK_SHIFT) of a
    #: dirty line written back by this access, if any.
    writeback_block: Optional[int] = None


class Cache:
    """A single write-back, write-allocate cache level with LRU sets."""

    def __init__(
        self,
        size_kb: int,
        ways: int,
        block_shift: int = BLOCK_SHIFT,
        name: str = "cache",
    ) -> None:
        size_bytes = size_kb * 1024
        block_size = 1 << block_shift
        nlines = size_bytes // block_size
        if nlines % ways:
            raise ValueError(
                f"{name}: {nlines} lines not divisible by {ways} ways"
            )
        nsets = nlines // ways
        if nsets < 1:
            raise ValueError(f"{name}: cache too small for {ways} ways")
        self.name = name
        self.block_shift = block_shift
        self.nsets = nsets
        self.ways = ways
        self._table: SetAssociativeTable[CacheLineState] = SetAssociativeTable(
            nsets, ways
        )

    # -- geometry -------------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self.nsets * self.ways * (1 << self.block_shift)

    def block_of(self, addr: int) -> int:
        return addr >> self.block_shift

    # -- access ---------------------------------------------------------------

    def access(self, addr: int, is_write: bool = False) -> CacheAccessResult:
        """Reference ``addr``; returns hit/miss plus any dirty writeback."""
        block = self.block_of(addr)
        state = self._table.lookup(block)
        if state is not None:
            if is_write:
                state.dirty = True
            return CacheAccessResult(hit=True)
        victim = self._table.insert(block, CacheLineState(dirty=is_write))
        writeback = None
        if victim is not None and victim[1].dirty:
            writeback = victim[0]
        return CacheAccessResult(hit=False, writeback_block=writeback)

    def invalidate_page(self, vpn: int, page_shift: int = 12) -> int:
        """Drop every line belonging to ``vpn``; returns lines dropped.

        Models cacheline invalidation when a page is unmapped/migrated.
        """
        blocks_per_page = 1 << (page_shift - self.block_shift)
        first = vpn << (page_shift - self.block_shift)
        dropped = 0
        for block in range(first, first + blocks_per_page):
            if self._table.remove(block) is not None:
                dropped += 1
        return dropped

    def __contains__(self, addr: int) -> bool:
        return self.block_of(addr) in self._table

    # -- stats ----------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self._table.hits

    @property
    def misses(self) -> int:
        return self._table.misses

    @property
    def hit_rate(self) -> float:
        return self._table.hit_rate


class CacheHierarchy:
    """An inclusive multi-level hierarchy; the last level's misses are the
    memory-controller-visible traffic HoPP's hardware taps (Section II-D).
    """

    def __init__(self, levels: Optional[List[Cache]] = None) -> None:
        if levels is None:
            levels = [
                Cache(size_kb=32, ways=8, name="L1"),
                Cache(size_kb=256, ways=8, name="L2"),
                Cache(size_kb=2048, ways=16, name="LLC"),
            ]
        if not levels:
            raise ValueError("hierarchy needs at least one cache level")
        self.levels = levels

    @property
    def llc(self) -> Cache:
        return self.levels[-1]

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Walk the hierarchy; returns True when the reference misses the
        LLC (i.e., reaches the memory controller)."""
        for level in self.levels:
            result = level.access(addr, is_write)
            if result.hit:
                return False
        return True

    def invalidate_page(self, vpn: int) -> None:
        for level in self.levels:
            level.invalidate_page(vpn)
