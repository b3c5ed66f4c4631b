"""Tests for the Reverse Page Table and its MC cache (Section III-C)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import PageKind, RptEntry
from repro.hopp.rpt import (
    ReversePageTable,
    RptCache,
    RptMaintainer,
    rpt_bandwidth_overhead,
)
from repro.kernel.page_table import PageTable


class TestReversePageTable:
    def test_read_write(self):
        rpt = ReversePageTable()
        rpt.write(5, RptEntry(pid=1, vpn=100))
        entry = rpt.read(5)
        assert entry.pid == 1 and entry.vpn == 100

    def test_write_none_deletes(self):
        rpt = ReversePageTable()
        rpt.write(5, RptEntry(1, 100))
        rpt.write(5, None)
        assert rpt.read(5) is None
        assert 5 not in rpt

    def test_size_is_0_17_percent_of_memory(self):
        """Section III-C: 64 GB needs ~112 MB of RPT (8 B per 4 KB)."""
        pages_64gb = (64 << 30) // 4096
        size = ReversePageTable.size_bytes(pages_64gb)
        assert size == pages_64gb * 8
        assert size / (64 << 30) == pytest.approx(0.0017, abs=0.0003)


class TestRptCache:
    def make(self, size_kb=1, ways=4):
        backing = ReversePageTable()
        return backing, RptCache(backing, size_kb=size_kb, ways=ways)

    def test_miss_fills_from_dram(self):
        backing, cache = self.make()
        backing.write(7, RptEntry(1, 70))
        entry = cache.lookup(7)
        assert entry.vpn == 70
        assert cache.dram_fills == 1
        # Second lookup hits the cache.
        cache.lookup(7)
        assert cache.dram_fills == 1
        assert cache.hit_rate == 0.5

    def test_unknown_frame_returns_none_and_caches_negative(self):
        _, cache = self.make()
        assert cache.lookup(99) is None
        assert cache.lookup(99) is None
        assert cache.dram_fills == 1  # negative entry cached too

    def test_update_is_write_allocate(self):
        backing, cache = self.make()
        cache.update(3, RptEntry(1, 30))
        # Not yet in DRAM: write-back is lazy (Section V).
        assert backing.read(3) is None
        assert cache.lookup(3).vpn == 30

    def test_dirty_writeback_on_eviction(self):
        backing, cache = self.make(size_kb=1, ways=1)
        nsets = (1 * 1024) // 8  # 128 sets, 1 way
        cache.update(0, RptEntry(1, 10))
        cache.update(nsets, RptEntry(1, 20))  # same set -> evicts ppn 0
        assert backing.read(0).vpn == 10
        assert cache.writebacks == 1

    def test_flush_writes_all_dirty(self):
        backing, cache = self.make()
        cache.update(1, RptEntry(1, 11))
        cache.update(2, RptEntry(1, 22))
        cache.flush()
        assert backing.read(1).vpn == 11
        assert backing.read(2).vpn == 22
        # A second flush writes nothing new.
        before = backing.writes
        cache.flush()
        assert backing.writes == before

    def test_larger_cache_higher_hit_rate(self):
        """Table III's trend: hit rate grows with cache size."""
        def run(size_kb):
            backing = ReversePageTable()
            for ppn in range(2000):
                backing.write(ppn, RptEntry(1, ppn))
            cache = RptCache(backing, size_kb=size_kb, ways=16)
            import random
            rng = random.Random(7)
            # Zipf-ish reuse: recent pages re-looked-up often.
            for _ in range(8000):
                ppn = int(2000 * rng.random() ** 3)
                cache.lookup(min(ppn, 1999))
            return cache.hit_rate

        assert run(1) < run(16) <= 1.0

    def test_too_small_cache_rejected(self):
        backing = ReversePageTable()
        with pytest.raises(ValueError):
            RptCache(backing, size_kb=0, ways=16)

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 1000)), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_flush_makes_backing_match_updates(self, updates):
        """After a flush, DRAM holds the latest update for every PPN."""
        backing = ReversePageTable()
        cache = RptCache(backing, size_kb=1, ways=2)
        latest = {}
        for ppn, vpn in updates:
            cache.update(ppn, RptEntry(1, vpn))
            latest[ppn] = vpn
        cache.flush()
        for ppn, vpn in latest.items():
            assert backing.read(ppn).vpn == vpn


class TestRptMaintainer:
    def test_hooks_keep_cache_current(self):
        backing = ReversePageTable()
        cache = RptCache(backing, size_kb=1, ways=4)
        maintainer = RptMaintainer(cache)
        table = PageTable(pid=9)
        maintainer.attach(table)
        table.map_page(100, 5)
        assert cache.lookup(5).vpn == 100
        assert cache.lookup(5).pid == 9
        table.unmap_page(100)
        assert cache.lookup(5) is None
        assert maintainer.hook_updates == 2

    def test_huge_and_shared_flags_forwarded(self):
        backing = ReversePageTable()
        cache = RptCache(backing, size_kb=1, ways=4)
        maintainer = RptMaintainer(cache)
        table = PageTable(pid=1)
        maintainer.attach(table)
        pte = table.entry(55)
        pte.kind = PageKind.HUGE_2M
        pte.shared = True
        table.map_page(55, 8)
        entry = cache.lookup(8)
        assert entry.kind == PageKind.HUGE_2M
        assert entry.shared


class TestBandwidth:
    def test_overhead_relative_to_mc_traffic(self):
        backing = ReversePageTable()
        cache = RptCache(backing, size_kb=1, ways=4)
        cache.lookup(1)  # one 8-byte fill
        overhead = rpt_bandwidth_overhead(cache, mc_accesses=1000)
        assert overhead == pytest.approx(8 / (1000 * 64))

    def test_zero_traffic(self):
        backing = ReversePageTable()
        cache = RptCache(backing, size_kb=1, ways=4)
        assert rpt_bandwidth_overhead(cache, 0) == 0.0
