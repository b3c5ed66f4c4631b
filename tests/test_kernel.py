"""Tests for the kernel substrate: page tables, frames, swap, cgroups,
reclaim, VMAs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.cgroup import CgroupManager, CgroupOverLimitError, MemoryCgroup
from repro.kernel.frames import FrameAllocator, OutOfFramesError
from repro.kernel.page_table import PageTable, PteState
from repro.kernel.reclaim import LruPageList, Reclaimer
from repro.kernel.swap import SwapCache, SwapSpace
from repro.kernel.vma import VmaMap, VmaRegistry


class TestPageTable:
    def test_entry_created_untouched(self):
        table = PageTable(pid=1)
        pte = table.entry(5)
        assert pte.state == PteState.UNTOUCHED
        assert pte.ppn == -1

    def test_map_sets_present_and_fires_hooks(self):
        table = PageTable(pid=1)
        events = []
        table.add_set_hook(lambda pid, vpn, ppn, pte: events.append(("set", pid, vpn, ppn)))
        table.add_clear_hook(lambda pid, vpn, ppn: events.append(("clear", pid, vpn, ppn)))
        table.map_page(5, 77)
        assert table.entry(5).state == PteState.PRESENT
        table.unmap_page(5)
        assert events == [("set", 1, 5, 77), ("clear", 1, 5, 77)]

    def test_unmap_nonpresent_is_noop(self):
        table = PageTable(pid=1)
        assert table.unmap_page(9) is None
        table.entry(9).state = PteState.REMOTE
        assert table.unmap_page(9) is None

    def test_injected_flag(self):
        table = PageTable(pid=1)
        pte = table.map_page(4, 40, injected=True)
        assert pte.injected


class TestFrameAllocator:
    def test_allocate_distinct(self):
        frames = FrameAllocator(total_frames=4)
        ppns = {frames.allocate(1, vpn) for vpn in range(4)}
        assert len(ppns) == 4

    def test_exhaustion(self):
        frames = FrameAllocator(total_frames=1)
        frames.allocate(1, 0)
        with pytest.raises(OutOfFramesError):
            frames.allocate(1, 1)

    def test_free_and_reuse(self):
        frames = FrameAllocator(total_frames=1)
        ppn = frames.allocate(1, 0)
        frames.free(ppn)
        assert frames.allocate(1, 1) == ppn

    def test_double_free_rejected(self):
        frames = FrameAllocator(total_frames=2)
        ppn = frames.allocate(1, 0)
        frames.free(ppn)
        with pytest.raises(ValueError):
            frames.free(ppn)

    def test_owner_tracking(self):
        frames = FrameAllocator(total_frames=2)
        ppn = frames.allocate(7, 42)
        assert frames.owner(ppn) == (7, 42)
        assert ppn in frames
        assert frames.used == 1
        assert frames.available == 1


class TestSwapSpace:
    def test_slots_monotonic_in_eviction_order(self):
        swap = SwapSpace()
        slots = [swap.allocate(1, vpn) for vpn in (10, 11, 12)]
        assert slots == [0, 1, 2]

    def test_reverse_lookup(self):
        swap = SwapSpace()
        slot = swap.allocate(1, 99)
        assert swap.page_at(slot) == (1, 99)
        assert swap.slot_of(1, 99) == slot

    def test_reallocate_frees_old_slot(self):
        swap = SwapSpace()
        first = swap.allocate(1, 5)
        second = swap.allocate(1, 5)
        assert second != first
        assert swap.page_at(first) is None
        assert swap.slot_of(1, 5) == second

    def test_neighbors_window(self):
        swap = SwapSpace()
        for vpn in range(10):
            swap.allocate(1, vpn)
        neighbors = swap.neighbors(5, before=2, after=2)
        assert (1, 5) not in neighbors
        assert (1, 3) in neighbors and (1, 7) in neighbors
        assert len(neighbors) == 4

    def test_neighbors_skips_freed_slots(self):
        swap = SwapSpace()
        for vpn in range(5):
            swap.allocate(1, vpn)
        swap.free(1)
        neighbors = swap.neighbors(2, before=2, after=2)
        assert (1, 1) not in neighbors

    def test_free_unknown_slot_is_noop(self):
        SwapSpace().free(1234)


class TestSwapCache:
    def test_insert_lookup_take(self):
        cache = SwapCache()
        cache.insert(1, 5, arrival_us=10.0)
        assert cache.lookup(1, 5) == 10.0
        assert (1, 5) in cache
        assert cache.take(1, 5) == 10.0
        assert (1, 5) not in cache
        assert cache.hits == 1

    def test_take_missing(self):
        cache = SwapCache()
        assert cache.take(1, 5) is None
        assert cache.hits == 0

    def test_drop(self):
        cache = SwapCache()
        cache.insert(1, 5, 0.0)
        assert cache.drop(1, 5)
        assert not cache.drop(1, 5)
        assert cache.drops == 1


class TestMemoryCgroup:
    def test_charge_and_limit(self):
        group = MemoryCgroup("app", limit_pages=2)
        assert not group.charge()
        assert not group.charge()
        assert group.charge()  # now over limit
        assert group.over_limit
        assert group.max_charged == 3

    def test_strict_charge_raises(self):
        group = MemoryCgroup("app", limit_pages=1)
        group.charge(strict=True)
        with pytest.raises(CgroupOverLimitError):
            group.charge(strict=True)

    def test_uncharge_underflow_rejected(self):
        group = MemoryCgroup("app", limit_pages=1)
        with pytest.raises(ValueError):
            group.uncharge()

    def test_prefetch_not_charged_when_disabled(self):
        group = MemoryCgroup("app", limit_pages=2, charge_prefetch=False)
        group.charge(prefetch=True)
        assert group.charged == 0
        assert group.prefetch_uncharged == 1

    def test_prefetch_charged_when_enabled(self):
        group = MemoryCgroup("app", limit_pages=2, charge_prefetch=True)
        group.charge(prefetch=True)
        assert group.charged == 1
        assert group.prefetch_uncharged == 0

    def test_promote_prefetch(self):
        group = MemoryCgroup("app", limit_pages=2, charge_prefetch=False)
        group.charge(prefetch=True)
        group.promote_prefetch()
        assert group.charged == 1
        assert group.prefetch_uncharged == 0

    def test_headroom(self):
        group = MemoryCgroup("app", limit_pages=5)
        group.charge(3)
        assert group.headroom == 2


class TestCgroupManager:
    def test_create_and_get(self):
        manager = CgroupManager()
        manager.create("a", 10)
        assert manager.get("a").limit_pages == 10
        assert len(manager) == 1

    def test_duplicate_rejected(self):
        manager = CgroupManager()
        manager.create("a", 10)
        with pytest.raises(ValueError):
            manager.create("a", 10)


class TestLruPageList:
    def test_insert_order_is_recency(self):
        lru = LruPageList()
        lru.insert(1, 10)
        lru.insert(1, 11)
        lru.insert(1, 12)
        assert lru.victims(2) == [(1, 10), (1, 11)]

    def test_touch_moves_to_mru(self):
        lru = LruPageList()
        lru.insert(1, 10)
        lru.insert(1, 11)
        assert lru.touch(1, 10)
        assert lru.victims(1) == [(1, 11)]

    def test_touch_missing(self):
        assert not LruPageList().touch(1, 5)

    def test_remove(self):
        lru = LruPageList()
        lru.insert(1, 10)
        assert lru.remove(1, 10)
        assert len(lru) == 0

    def test_reinsert_refreshes(self):
        lru = LruPageList()
        lru.insert(1, 10)
        lru.insert(1, 11)
        lru.insert(1, 10)  # refresh, not duplicate
        assert len(lru) == 2
        assert lru.victims(1) == [(1, 11)]


class TestReclaimer:
    def test_no_plan_under_limit(self):
        reclaimer = Reclaimer()
        lru = LruPageList()
        lru.insert(1, 0)
        assert reclaimer.plan(lru, resident=1, limit=10) == []

    def test_plan_restores_slack(self):
        reclaimer = Reclaimer(watermark_slack=4)
        lru = LruPageList()
        for vpn in range(20):
            lru.insert(1, vpn)
        victims = reclaimer.plan(lru, resident=20, limit=16)
        # Down to limit - slack = 12 resident -> evict 8.
        assert len(victims) == 8
        assert victims[0] == (1, 0)  # coldest first

    def test_plan_bounded_by_lru_size(self):
        reclaimer = Reclaimer(watermark_slack=0)
        lru = LruPageList()
        lru.insert(1, 0)
        victims = reclaimer.plan(lru, resident=100, limit=10)
        assert len(victims) == 1

    def test_account(self):
        reclaimer = Reclaimer()
        cost = reclaimer.account(npages=10, clean=4)
        assert cost > 0
        assert reclaimer.stats.pages_reclaimed == 10
        assert reclaimer.stats.clean_drops == 4
        assert reclaimer.stats.writebacks == 6


class TestVma:
    def test_add_and_find(self):
        vmas = VmaMap(pid=1)
        vmas.add(100, 50, "heap")
        region = vmas.find(120)
        assert region is not None and region.name == "heap"
        assert vmas.find(99) is None
        assert vmas.find(150) is None

    def test_overlap_rejected(self):
        vmas = VmaMap(pid=1)
        vmas.add(100, 50)
        with pytest.raises(ValueError):
            vmas.add(149, 10)
        with pytest.raises(ValueError):
            vmas.add(90, 11)

    def test_adjacent_allowed(self):
        vmas = VmaMap(pid=1)
        vmas.add(100, 50)
        vmas.add(150, 10)
        assert len(vmas) == 2

    def test_empty_vma_rejected(self):
        with pytest.raises(ValueError):
            VmaMap(pid=1).add(0, 0)

    def test_registry_per_pid(self):
        registry = VmaRegistry()
        registry.for_pid(1).add(0, 10, "a")
        registry.for_pid(2).add(0, 10, "b")
        assert registry.find(1, 5).name == "a"
        assert registry.find(2, 5).name == "b"
        assert registry.find(3, 5) is None

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 50)), max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_find_consistent_with_membership(self, regions):
        vmas = VmaMap(pid=1)
        added = []
        for start, npages in regions:
            try:
                vmas.add(start, npages)
                added.append((start, start + npages))
            except ValueError:
                pass
        for probe in range(0, 1100, 37):
            region = vmas.find(probe)
            inside_any = any(lo <= probe < hi for lo, hi in added)
            assert (region is not None) == inside_any
