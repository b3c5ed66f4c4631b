"""Hot Page Detection (HPD) — Section III-B.

A small table in the memory controller that converts cacheline-granular
LLC READ misses into a stream of hot physical pages.  Organized as a
16-way, 4-set associative cache with LRU replacement (M = 64 tracked
pages); the lowest 2 bits of the PPN pick the set.  Each entry records
the PPN, the READ-access count, and a *send bit* marking that the page
was already extracted (further accesses are dropped until eviction).
The count stops at the threshold N, the moment the page is extracted,
so the send bit is exactly ``count >= N``: a set maps PPN -> count.

WRITEs are ignored (Section III-B): a write miss first appears as a READ,
and RDMA-fetched pages arrive via DMA writes that would pollute the trace.
"""

from __future__ import annotations

from typing import Optional

from repro.common.assoc import SetAssociativeTable
from repro.common.constants import (
    BLOCK_SIZE,
    BLOCKS_PER_PAGE,
    HOT_PAGE_RECORD_BYTES,
    HPD_SETS,
    HPD_THRESHOLD,
    HPD_WAYS,
    PAGE_SHIFT,
)


class HotPageDetector:
    """Feed MC READ misses in; hot PPNs come out.

    ``process`` takes a physical byte address and returns the PPN if this
    access crossed the hot threshold, else None.
    """

    def __init__(
        self,
        threshold: int = HPD_THRESHOLD,
        nsets: int = HPD_SETS,
        nways: int = HPD_WAYS,
    ) -> None:
        if not 1 <= threshold <= BLOCKS_PER_PAGE:
            raise ValueError(
                f"threshold must be in [1, {BLOCKS_PER_PAGE}] (cachelines/page)"
            )
        self.threshold = threshold
        #: Each set maps PPN -> READ count (Figure 5's row; the LRU bit
        #: lives in the table).  ``count >= threshold`` is the send bit.
        self._table: SetAssociativeTable[int] = SetAssociativeTable(nsets, nways)
        self.accesses = 0
        self.writes_ignored = 0
        self.dropped_after_send = 0
        self.hot_pages = 0
        self.repeated_detections = 0
        self._ever_sent: set = set()

    def process(self, paddr: int, is_write: bool = False) -> Optional[int]:
        """One MC access.  Returns the hot PPN when extraction fires.

        This runs once per MC READ — the hottest call in a HoPP run — so
        the table probe is inlined against the set dict (HPD owns its
        table, whose set index is ``ppn % nsets``); the stat and LRU
        updates repeat ``SetAssociativeTable.lookup``/``insert`` exactly.
        """
        if is_write:
            self.writes_ignored += 1
            return None
        self.accesses += 1
        ppn = paddr >> PAGE_SHIFT
        table = self._table
        target = table._sets[ppn % table.nsets]
        count = target.get(ppn)
        if count is None:
            table.misses += 1
            if len(target) >= table.nways:
                target.popitem(last=False)
                table.evictions += 1
            target[ppn] = 1
            if self.threshold == 1:
                return self._extract(ppn)
            return None
        table.hits += 1
        target.move_to_end(ppn)
        threshold = self.threshold
        if count >= threshold:
            self.dropped_after_send += 1
            return None
        count += 1
        target[ppn] = count
        if count >= threshold:
            return self._extract(ppn)
        return None

    def process_run(self, ppn: int, reads: int) -> tuple:
        """Collapse ``reads`` consecutive READ accesses to one page into
        O(1) counter math.  Returns ``(reads_consumed, fired)``.

        The batch kernel segments the trace into same-page runs; within a
        run every access probes the same set and entry, so the per-access
        ``process`` bookkeeping telescopes: one probe, one ``move_to_end``,
        and integer bumps sized by the run.  When the hot threshold is
        crossed mid-run the method consumes only the reads up to and
        including the firing one (``fired`` True) — the caller re-enters
        with the remainder after the extraction pipeline has run, exactly
        as the per-access loop would have.
        """
        if reads <= 0:
            return 0, False
        table = self._table
        target = table._sets[ppn % table.nsets]
        count = target.get(ppn)
        threshold = self.threshold
        used = 0
        if count is None:
            table.misses += 1
            if len(target) >= table.nways:
                target.popitem(last=False)
                table.evictions += 1
            target[ppn] = count = 1
            self.accesses += 1
            used = 1
            if threshold == 1:
                self._extract(ppn)
                return 1, True
            if used == reads:
                return 1, False
        rest = reads - used
        target.move_to_end(ppn)
        need = threshold - count
        if need <= 0:
            # Sent: every further READ is dropped until eviction.
            table.hits += rest
            self.accesses += rest
            self.dropped_after_send += rest
            return reads, False
        if rest < need:
            table.hits += rest
            self.accesses += rest
            target[ppn] = count + rest
            return reads, False
        table.hits += need
        self.accesses += need
        target[ppn] = threshold
        self._extract(ppn)
        return used + need, True

    def _extract(self, ppn: int) -> int:
        self.hot_pages += 1
        if ppn in self._ever_sent:
            # The page was extracted, evicted from the table, and became
            # hot again — the "repeated detection" of Figure 5.
            self.repeated_detections += 1
        else:
            self._ever_sent.add(ppn)
        return ppn

    # -- statistics (Table II / Table V) ---------------------------------------

    @property
    def hot_page_ratio(self) -> float:
        """Hot pages extracted per MC READ access (Table II)."""
        return self.hot_pages / self.accesses if self.accesses else 0.0

    @property
    def bandwidth_overhead(self) -> float:
        """Extra DRAM bandwidth for writing hot-page records, as a
        fraction of the application's MC bandwidth (Table V, HPD row)."""
        app_bytes = self.accesses * BLOCK_SIZE
        hot_bytes = self.hot_pages * HOT_PAGE_RECORD_BYTES
        return hot_bytes / app_bytes if app_bytes else 0.0

    @property
    def tracked_pages(self) -> int:
        return len(self._table)


class MultiChannelHpd:
    """Per-channel hot page detection — Section III-B's multi-channel
    discussion made concrete.

    With channel interleaving, consecutive cachelines of one page land
    on different controllers, so each channel's HPD only sees
    ``1/channels`` of the page's accesses: the threshold must drop
    proportionally ("we need to reduce N").  That makes *repeated*
    extractions of the same page from different channels likely; the
    training framework de-duplicates them (the STT drops same-VPN
    repeats).  Without interleaving, whole pages map to one channel and
    each HPD runs at the full threshold; the shared training framework
    merges the channels' outputs for free.
    """

    def __init__(
        self,
        channels: int = 2,
        threshold: int = HPD_THRESHOLD,
        interleaved: bool = True,
        nsets: int = HPD_SETS,
        nways: int = HPD_WAYS,
    ) -> None:
        if channels < 1:
            raise ValueError("channels must be >= 1")
        self.channels = channels
        self.interleaved = interleaved
        per_channel = (
            max(1, threshold // channels) if interleaved else threshold
        )
        self.per_channel_threshold = per_channel
        self._detectors = [
            HotPageDetector(per_channel, nsets, nways) for _ in range(channels)
        ]

    def channel_of(self, paddr: int) -> int:
        if self.interleaved:
            return (paddr >> 6) % self.channels
        return (paddr >> PAGE_SHIFT) % self.channels

    def process(self, paddr: int, is_write: bool = False) -> Optional[int]:
        return self._detectors[self.channel_of(paddr)].process(paddr, is_write)

    # -- aggregated statistics --------------------------------------------------

    @property
    def accesses(self) -> int:
        return sum(d.accesses for d in self._detectors)

    @property
    def hot_pages(self) -> int:
        return sum(d.hot_pages for d in self._detectors)

    @property
    def hot_page_ratio(self) -> float:
        return self.hot_pages / self.accesses if self.accesses else 0.0

    @property
    def bandwidth_overhead(self) -> float:
        app_bytes = self.accesses * BLOCK_SIZE
        hot_bytes = self.hot_pages * HOT_PAGE_RECORD_BYTES
        return hot_bytes / app_bytes if app_bytes else 0.0

    @property
    def detectors(self):
        return list(self._detectors)
