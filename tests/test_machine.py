"""Tests for the full-system machine: page lifecycle, fault costs,
reclaim, prefetch paths, and conservation invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import NoPrefetch
from repro.baselines.depthn import DepthNPrefetcher
from repro.baselines.fastswap import FastswapPrefetcher
from repro.common.constants import (
    T_DRAM_HIT_US,
    T_MINOR_FAULT_US,
    T_PREFETCH_HIT_US,
)
from repro.kernel.page_table import PteState
from repro.sim.machine import Machine, MachineConfig
from tests.conftest import quiet_fabric, touch_pages


def make_machine(limit=64, prefetcher=None, **kwargs) -> Machine:
    config = MachineConfig(
        local_memory_pages=limit,
        fabric=quiet_fabric(),
        watermark_slack=4,
        **kwargs,
    )
    machine = Machine(config, fault_prefetcher=prefetcher)
    machine.register_process(1)
    machine.add_vma(1, 0, 1 << 20, "heap")
    return machine


class TestFirstTouch:
    def test_minor_fault_maps_page(self):
        machine = make_machine()
        cost = machine.access(1, 0)
        assert cost == pytest.approx(T_MINOR_FAULT_US)
        assert machine.minor_faults == 1
        assert machine.page_state(1, 0) == PteState.PRESENT

    def test_second_access_is_dram_hit(self):
        machine = make_machine()
        machine.access(1, 0)
        cost = machine.access(1, 0)
        assert cost == pytest.approx(T_DRAM_HIT_US)


class TestEvictionAndMajorFault:
    def test_over_limit_evicts_to_remote(self):
        machine = make_machine(limit=8)
        touch_pages(machine, 1, range(16))
        assert machine.page_state(1, 0) == PteState.REMOTE
        assert machine.remote.pages_stored > 0
        assert machine.fabric.writes > 0

    def test_major_fault_cost_includes_rdma(self):
        machine = make_machine(limit=8)
        touch_pages(machine, 1, range(16))
        cost = machine.access(1, 0)  # page 0 is remote now
        # context + walk + swapcache + 4.0 rdma + pte set = 6.3.
        assert cost == pytest.approx(6.3)
        assert machine.remote_demand_reads == 1

    def test_faulted_page_mapped_and_slot_released(self):
        machine = make_machine(limit=8)
        touch_pages(machine, 1, range(16))
        machine.access(1, 0)
        assert machine.page_state(1, 0) == PteState.PRESENT
        pte = machine.page_table(1).peek(0)
        assert pte.swap_slot == -1
        assert machine.swap_space.slots_in_use < 16

    def test_residency_bounded_by_limit(self):
        machine = make_machine(limit=16)
        touch_pages(machine, 1, range(100))
        resident = machine.resident_pages("default")
        assert resident <= 16

    def test_lru_eviction_order_is_coldest_first(self):
        machine = make_machine(limit=8)
        touch_pages(machine, 1, range(8))
        machine.access(1, 0)  # refresh page 0
        touch_pages(machine, 1, range(100, 104))  # force evictions
        # Page 0 was MRU: it should still be present; page 1 was coldest.
        assert machine.page_state(1, 1) == PteState.REMOTE


class TestPrefetchPaths:
    def test_prefetch_lands_in_swapcache(self):
        machine = make_machine(limit=8)
        touch_pages(machine, 1, range(16))  # pages 0..7 now remote
        arrival = machine.prefetch_page(1, 0, machine.now_us, False, "test")
        assert arrival is not None
        assert machine.page_state(1, 0) == PteState.INFLIGHT
        # Move time past arrival with an unrelated access.
        machine.now_us = arrival + 1.0
        machine.access(1, 200 << 12)
        assert machine.page_state(1, 0) == PteState.SWAPCACHE

    def test_swapcache_hit_cost_and_accounting(self):
        machine = make_machine(limit=8)
        touch_pages(machine, 1, range(16))
        arrival = machine.prefetch_page(1, 0, machine.now_us, False, "test")
        machine.now_us = arrival + 1.0
        machine.access(1, 200 << 12)
        cost = machine.access(1, 0)
        assert cost == pytest.approx(T_PREFETCH_HIT_US)
        assert machine.prefetch_hit_swapcache == 1
        assert machine.hits_by_tier == {"test": 1}
        assert machine.page_state(1, 0) == PteState.PRESENT

    def test_injected_prefetch_becomes_dram_hit(self):
        machine = make_machine(limit=8)
        touch_pages(machine, 1, range(16))
        arrival = machine.prefetch_page(1, 0, machine.now_us, True, "test")
        machine.now_us = arrival + 1.0
        machine.access(1, 200 << 12)  # processes the arrival
        assert machine.page_state(1, 0) == PteState.PRESENT
        cost = machine.access(1, 0)
        assert cost == pytest.approx(T_DRAM_HIT_US)
        assert machine.prefetch_hit_dram == 1

    def test_fault_on_inflight_waits_for_arrival(self):
        machine = make_machine(limit=8)
        touch_pages(machine, 1, range(16))
        start = machine.now_us
        machine.prefetch_page(1, 0, start, False, "test")
        cost = machine.access(1, 0)  # immediately touch the inflight page
        assert cost == pytest.approx(4.0 + T_PREFETCH_HIT_US, abs=0.7)
        assert machine.prefetch_hit_inflight == 1

    def test_prefetch_rejected_for_local_page(self):
        machine = make_machine()
        machine.access(1, 0)
        assert machine.prefetch_page(1, 0, 0.0, True, "t") is None

    def test_prefetch_rejected_for_untouched_page(self):
        machine = make_machine()
        assert machine.prefetch_page(1, 12345, 0.0, True, "t") is None

    def test_rejected_untouched_targets_leave_page_table_alone(self):
        # A speculative target the prefetcher rejects must not create a
        # PTE: the page table holds only pages the application touched.
        machine = make_machine(limit=8)
        touch_pages(machine, 1, range(16))
        table = machine.page_table(1)
        before = len(table)
        assert machine.prefetch_page(1, 12345, machine.now_us, True, "t") is None
        assert machine.prefetch_batch(1, 500, 64, machine.now_us, True, "t") is None
        # Pages 4..7 are remote, 8..15 resident, 16..19 never touched.
        assert machine.prefetch_batch(1, 4, 16, machine.now_us, True, "t") is not None
        assert 12345 not in table
        assert not any(vpn in table for vpn in range(16, 20))
        assert not any(vpn in table for vpn in range(500, 564))
        assert len(table) == before

    def test_prefetch_rejected_for_unknown_pid(self):
        machine = make_machine()
        assert machine.prefetch_page(99, 0, 0.0, True, "t") is None

    def test_duplicate_prefetch_rejected_while_inflight(self):
        machine = make_machine(limit=8)
        touch_pages(machine, 1, range(16))
        assert machine.prefetch_page(1, 0, machine.now_us, False, "t") is not None
        assert machine.prefetch_page(1, 0, machine.now_us, False, "t") is None

    def test_wasted_prefetch_counted_on_eviction(self):
        machine = make_machine(limit=8)
        touch_pages(machine, 1, range(16))
        machine.prefetch_page(1, 0, machine.now_us, False, "test")
        # Land it, then thrash the cgroup so it's evicted unused.
        machine.now_us += 100.0
        touch_pages(machine, 1, range(300, 340))
        assert machine.prefetch_wasted == 1
        assert machine.page_state(1, 0) == PteState.REMOTE


class TestFaultTimePrefetcherIntegration:
    def test_fastswap_prefetches_on_major_fault(self):
        machine = make_machine(limit=8, prefetcher=FastswapPrefetcher())
        touch_pages(machine, 1, range(16))
        machine.access(1, 0)  # major fault -> readahead fires
        assert machine.prefetch_issued > 0
        assert "fastswap" in machine.issued_by_tier

    def test_depthn_injects(self):
        machine = make_machine(limit=8, prefetcher=DepthNPrefetcher(4))
        touch_pages(machine, 1, range(16))
        machine.access(1, 2 << 12)  # fault on remote page 2
        machine.now_us += 100.0
        machine.access(1, 200 << 12)  # process arrivals
        # Pages 3..6 were remote and injected.
        assert machine.page_state(1, 3) == PteState.PRESENT

    def test_prefetch_issue_cost_on_critical_path(self):
        plain = make_machine(limit=8, prefetcher=NoPrefetch())
        with_pf = make_machine(limit=8, prefetcher=DepthNPrefetcher(8))
        for machine in (plain, with_pf):
            touch_pages(machine, 1, range(16))
        base = plain.access(1, 0)
        loaded = with_pf.access(1, 0)
        assert loaded > base  # issuing the window costs fault time


class TestConservation:
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=400))
    @settings(max_examples=25, deadline=None)
    def test_access_classification_is_total(self, vpns):
        """Every access is exactly one of: DRAM hit, minor fault,
        prefetch hit, or remote demand read."""
        machine = make_machine(limit=10, prefetcher=FastswapPrefetcher())
        touch_pages(machine, 1, vpns)
        dram_hits = machine.accesses - (
            machine.minor_faults
            + machine.remote_demand_reads
            + machine.prefetch_hit_swapcache
            + machine.prefetch_hit_inflight
        )
        assert dram_hits >= 0
        assert machine.accesses == len(vpns)

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=400))
    @settings(max_examples=25, deadline=None)
    def test_frames_match_residency(self, vpns):
        machine = make_machine(limit=12, prefetcher=FastswapPrefetcher())
        touch_pages(machine, 1, vpns)
        assert machine.frames.used == machine.resident_pages()
        assert machine.prefetch_issued >= machine.prefetch_wasted

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_clock_monotone_and_positive_costs(self, vpns):
        machine = make_machine(limit=12)
        last = 0.0
        for vpn in vpns:
            machine.access(1, vpn << 12)
            assert machine.now_us >= last
            last = machine.now_us


class TestMultiProcess:
    def test_separate_cgroups_isolated(self):
        config = MachineConfig(local_memory_pages=8, fabric=quiet_fabric())
        machine = Machine(config)
        machine.register_process(1, cgroup_name="a", limit_pages=8)
        machine.register_process(2, cgroup_name="b", limit_pages=8)
        touch_pages(machine, 1, range(32))
        # Process 2's pages are untouched by process 1's thrashing.
        touch_pages(machine, 2, range(1000, 1004))
        assert machine.page_state(2, 1000) == PteState.PRESENT
        assert machine.resident_pages("a") <= 8

    def test_duplicate_pid_rejected(self):
        machine = make_machine()
        with pytest.raises(ValueError):
            machine.register_process(1)

    def test_same_vpn_different_pids_distinct(self):
        config = MachineConfig(local_memory_pages=64, fabric=quiet_fabric())
        machine = Machine(config)
        machine.register_process(1, cgroup_name="a")
        machine.register_process(2, cgroup_name="b")
        machine.access(1, 0)
        assert machine.page_state(1, 0) == PteState.PRESENT
        assert machine.page_state(2, 0) == PteState.UNTOUCHED
