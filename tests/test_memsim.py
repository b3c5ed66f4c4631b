"""Tests for the cache model and memory controller."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.cache import Cache, CacheHierarchy
from repro.memsim.controller import MemoryController


class TestCache:
    def test_cold_miss_then_hit(self):
        cache = Cache(size_kb=4, ways=2)
        assert not cache.access(0x1000).hit
        assert cache.access(0x1000).hit
        # Same cacheline, different byte.
        assert cache.access(0x1030).hit

    def test_different_lines_miss(self):
        cache = Cache(size_kb=4, ways=2)
        cache.access(0x0)
        assert not cache.access(0x40).hit

    def test_writeback_of_dirty_victim(self):
        # 2 sets x 1 way: lines 0 and 2 collide in set 0.
        cache = Cache(size_kb=4, ways=1)
        nsets = cache.nsets
        cache.access(0, is_write=True)
        conflicting = nsets << 6  # same set, different tag
        result = cache.access(conflicting)
        assert not result.hit
        assert result.writeback_block == 0

    def test_clean_victim_no_writeback(self):
        cache = Cache(size_kb=4, ways=1)
        nsets = cache.nsets
        cache.access(0, is_write=False)
        result = cache.access(nsets << 6)
        assert result.writeback_block is None

    def test_invalidate_page(self):
        cache = Cache(size_kb=64, ways=4)
        for block in range(64):
            cache.access((7 << 12) | (block << 6))
        dropped = cache.invalidate_page(7)
        assert dropped == 64
        assert not cache.access(7 << 12).hit

    def test_size_accounting(self):
        cache = Cache(size_kb=32, ways=8)
        assert cache.size_bytes == 32 * 1024

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            Cache(size_kb=1, ways=100)

    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addrs):
        cache = Cache(size_kb=4, ways=2)
        for addr in addrs:
            cache.access(addr)
        assert cache.hits + cache.misses == len(addrs)

    @given(st.integers(0, 1 << 20))
    @settings(max_examples=30, deadline=None)
    def test_immediate_rereference_always_hits(self, addr):
        cache = Cache(size_kb=4, ways=2)
        cache.access(addr)
        assert cache.access(addr).hit


class TestCacheHierarchy:
    def test_default_levels(self):
        hierarchy = CacheHierarchy()
        assert [c.name for c in hierarchy.levels] == ["L1", "L2", "LLC"]
        assert hierarchy.llc.name == "LLC"

    def test_first_access_misses_all_levels(self):
        hierarchy = CacheHierarchy()
        assert hierarchy.access(0x1234)  # reaches the MC
        assert not hierarchy.access(0x1234)  # L1 hit

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy(levels=[])

    def test_working_set_filtering(self):
        """A small working set only misses once per line (LLC filters it
        from the MC — the reason HoPP taps the MC, Section II-D)."""
        hierarchy = CacheHierarchy(levels=[Cache(size_kb=64, ways=4, name="LLC")])
        lines = [i << 6 for i in range(100)]
        misses = sum(hierarchy.access(a) for a in lines)
        assert misses == 100
        misses_second_pass = sum(hierarchy.access(a) for a in lines)
        assert misses_second_pass == 0


class TestMemoryController:
    def test_counts_and_bytes(self):
        mc = MemoryController()
        mc.access(0.0, 0x40, is_write=False)
        mc.access(1.0, 0x80, is_write=True)
        assert mc.reads == 1
        assert mc.writes == 1
        assert mc.accesses == 2
        assert mc.bytes_transferred == 128

    def test_taps_receive_every_access(self):
        mc = MemoryController()
        seen = []
        mc.add_tap(lambda ts, paddr, w: seen.append((ts, paddr, w)))
        mc.access(5.0, 0x1000, False)
        assert seen == [(5.0, 0x1000, False)]
