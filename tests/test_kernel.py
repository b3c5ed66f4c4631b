"""Tests for the kernel substrate: page tables, frames, swap, cgroups,
reclaim, VMAs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import PageKind
from repro.kernel.cgroup import CgroupManager, CgroupOverLimitError, MemoryCgroup
from repro.kernel.frames import FrameAllocator, OutOfFramesError
from repro.kernel.page_table import PageTable, PteState
from repro.kernel.reclaim import LruPageList, Reclaimer
from repro.kernel.swap import SwapSpace
from repro.kernel.vma import VmaMap
from repro.sim.machine import Machine, MachineConfig
from repro.sim.sanitizer import InvariantSanitizer
from tests.conftest import quiet_fabric, touch_pages


class _RecordingRpt:
    """An RPT stand-in that records every write-through."""

    def __init__(self):
        self.updates = []

    def update(self, ppn, entry):
        self.updates.append((ppn, entry))


class TestPageTable:
    def test_entry_created_untouched(self):
        table = PageTable(pid=1)
        pte = table.entry(5)
        assert pte.state == PteState.UNTOUCHED
        assert pte.ppn == -1

    def test_map_and_unmap_write_through_the_rpt(self):
        table = PageTable(pid=1)
        table.map_page(4, 40, table.entry(4))  # no RPT attached: nothing to write
        rpt = _RecordingRpt()
        table.rpt = rpt
        table.map_page(5, 77, table.entry(5))
        assert table.entry(5).state == PteState.PRESENT
        table.unmap_page(5, table.entry(5))
        pte = table.entry(6)
        pte.shared = True
        table.map_page(6, 78, pte, injected=True)
        table.unmap_page(6, pte)
        assert pte.ppn == -1
        assert rpt.updates == [
            (77, (1, 5, False, PageKind.BASE_4K)),
            (77, None),
            (78, (1, 6, True, PageKind.BASE_4K)),
            (78, None),
        ]

    def test_injected_flag(self):
        table = PageTable(pid=1)
        pte = table.entry(4)
        table.map_page(4, 40, pte, injected=True)
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
        frames.free([ppn])
        assert frames.allocate(1, 1) == ppn

    def test_double_free_rejected(self):
        frames = FrameAllocator(total_frames=2)
        ppn = frames.allocate(1, 0)
        frames.free([ppn])
        with pytest.raises(ValueError):
            frames.free([ppn])

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
        slots = [swap.allocate([(1, vpn)]) for vpn in (10, 11, 12)]
        assert slots == [0, 1, 2]

    def test_reverse_lookup(self):
        swap = SwapSpace()
        slot = swap.allocate([(1, 99)])
        assert swap.page_at(slot) == (1, 99)
        swap.free(slot)
        assert swap.page_at(slot) is None

    def test_reallocate_after_free_gets_fresh_slot(self):
        # A page faulted back frees its slot; its next eviction takes a
        # fresh one.
        swap = SwapSpace()
        first = swap.allocate([(1, 5)])
        swap.free(first)
        second = swap.allocate([(1, 5)])
        assert second != first
        assert swap.page_at(first) is None
        assert swap.page_at(second) == (1, 5)
        assert swap.slots_in_use == 1

    def test_neighbors_window(self):
        swap = SwapSpace()
        for vpn in range(10):
            swap.allocate([(1, vpn)])
        neighbors = swap.neighbors(5, before=2, after=2)
        assert (1, 5) not in neighbors
        assert (1, 3) in neighbors and (1, 7) in neighbors
        assert len(neighbors) == 4

    def test_neighbors_skips_freed_slots(self):
        swap = SwapSpace()
        for vpn in range(5):
            swap.allocate([(1, vpn)])
        swap.free(1)
        neighbors = swap.neighbors(2, before=2, after=2)
        assert (1, 1) not in neighbors

    def test_free_unknown_slot_is_noop(self):
        SwapSpace().free(1234)


def _swapcache_machine() -> Machine:
    """A machine whose page 0 was reclaimed, then prefetched back into
    the swapcache."""
    machine = Machine(
        MachineConfig(local_memory_pages=8, fabric=quiet_fabric(), watermark_slack=4)
    )
    machine.register_process(1)
    touch_pages(machine, 1, range(16))
    arrival = machine.prefetch_page(1, 0, machine.now_us, False, "test")
    machine.now_us = arrival + 1.0
    machine.access(1, 200 << 12)  # lands the prefetch
    return machine


class TestSwapCache:
    """Swapcache membership is the PTE state; the machine counts the
    pages that enter, are mapped out of and are reclaimed from it."""

    def test_insert_lookup_take(self):
        machine = _swapcache_machine()
        assert machine.page_state(1, 0) == PteState.SWAPCACHE
        assert machine.swapcache_inserts == 1
        machine.access(1, 0)
        assert machine.page_state(1, 0) == PteState.PRESENT
        assert machine.swapcache_hits == 1

    def test_take_missing(self):
        machine = _swapcache_machine()
        assert machine.page_state(1, 1) == PteState.REMOTE
        machine.access(1, 1 << 12)  # a major fault, not a swapcache hit
        assert machine.page_state(1, 1) == PteState.PRESENT
        assert machine.swapcache_hits == 0

    def test_drop(self):
        machine = _swapcache_machine()
        assert machine.swapcache_drops == 0
        machine._evict([(1, 0)])
        assert machine.page_state(1, 0) == PteState.REMOTE
        assert machine.swapcache_drops == 1
        assert machine.swapcache_hits == 0
        InvariantSanitizer(machine).check()


class TestMemoryCgroup:
    def test_charge_and_limit(self):
        group = MemoryCgroup("app", limit_pages=2)
        assert not group.charge()
        assert not group.charge()
        assert group.charge()  # now over limit
        assert group.over_limit
        assert group.charged == 3

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
        lru.touch(1, 10)
        assert lru.victims(1) == [(1, 11)]

    def test_touch_missing(self):
        # A touched page must be listed (sanitizer check 7); drift fails
        # loudly instead of being skipped.
        with pytest.raises(KeyError):
            LruPageList().touch(1, 5)

    def test_remove(self):
        lru = LruPageList()
        lru.insert(1, 10)
        lru.remove([(1, 10)])
        assert len(lru) == 0


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
        # Each process's page table holds its own VMAs.
        machine = Machine(MachineConfig(local_memory_pages=8))
        for pid in (1, 2, 3):
            machine.register_process(pid)
        machine.add_vma(1, 0, 10, "a")
        machine.add_vma(2, 0, 10, "b")
        assert machine.page_table(1).vmas.find(5).name == "a"
        assert machine.page_table(2).vmas.find(5).name == "b"
        assert machine.page_table(3).vmas.find(5) is None

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
