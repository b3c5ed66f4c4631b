"""Tests for the baseline fault-time prefetchers (Fastswap, Leap,
Depth-N, VMA read-ahead, no-prefetch)."""

import pytest

from repro.baselines.base import NoPrefetch
from repro.baselines.depthn import DepthNPrefetcher
from repro.baselines.fastswap import FastswapPrefetcher
from repro.baselines.leap import LeapPrefetcher
from repro.baselines.vma_readahead import VmaReadaheadPrefetcher
from repro.kernel.page_table import PageTable
from repro.kernel.swap import SwapSpace


class StubMachine:
    """Just enough machine surface for the fault-time prefetchers."""

    def __init__(self):
        self.swap_space = SwapSpace()
        self._page_tables = {}

    def page_table(self, pid):
        return self._page_tables.setdefault(pid, PageTable(pid))


class TestNoPrefetch:
    def test_returns_nothing(self):
        assert NoPrefetch().on_fault(1, 5, 0, 0.0, StubMachine()) == []
        assert NoPrefetch().inject_pte is False


class TestFastswap:
    def test_prefetches_swap_slot_neighbors(self):
        machine = StubMachine()
        slots = {vpn: machine.swap_space.allocate([(1, vpn)]) for vpn in range(20)}
        prefetcher = FastswapPrefetcher(initial_window=8, max_window=8)
        targets = prefetcher.on_fault(1, 10, slots[10], 0.0, machine)
        # Window 8 around slot 10 (slots == vpns here by allocation order).
        assert (1, 10) not in targets
        assert len(targets) == 8
        assert (1, 9) in targets and (1, 14) in targets

    def test_never_swapped_page_no_prefetch(self):
        prefetcher = FastswapPrefetcher()
        assert prefetcher.on_fault(1, 10, -1, 0.0, StubMachine()) == []

    def test_window_shrinks_on_waste(self):
        prefetcher = FastswapPrefetcher(initial_window=8)
        for _ in range(8):
            prefetcher.on_prefetch_wasted(1, 0)
        prefetcher._adapt()
        assert prefetcher.window == 4

    def test_window_grows_back_on_hits(self):
        prefetcher = FastswapPrefetcher(initial_window=8)
        prefetcher.window = 2
        for _ in range(4):
            prefetcher.on_prefetch_hit(1, 0, 0.0)
        prefetcher._adapt()
        assert prefetcher.window == 4

    def test_window_bounds(self):
        prefetcher = FastswapPrefetcher(initial_window=1, max_window=8)
        for _ in range(50):
            prefetcher.on_prefetch_hit(1, 0, 0.0)
            prefetcher._adapt()
        assert prefetcher.window <= 8

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            FastswapPrefetcher(initial_window=0)
        with pytest.raises(ValueError):
            FastswapPrefetcher(initial_window=9, max_window=8)

    def test_slot_adjacency_not_vpn_adjacency(self):
        """Fastswap clusters on eviction order, not virtual adjacency —
        the flaw VMA read-ahead fixes (Section VI-E)."""
        machine = StubMachine()
        # Pages evicted in interleaved order: 0, 100, 1, 101, 2, 102 ...
        order = [vpn for pair in zip(range(5), range(100, 105)) for vpn in pair]
        slots = {vpn: machine.swap_space.allocate([(1, vpn)]) for vpn in order}
        prefetcher = FastswapPrefetcher(initial_window=2)
        targets = prefetcher.on_fault(1, 1, slots[1], 0.0, machine)
        # Neighbors in slot space are from the *other* stream.
        assert (1, 100) in targets or (1, 101) in targets


class TestLeap:
    def feed_faults(self, prefetcher, vpns, pid=1):
        machine = StubMachine()
        out = []
        for vpn in vpns:
            out = prefetcher.on_fault(pid, vpn, 0, 0.0, machine)
        return out

    def test_single_stream_majority_found(self):
        prefetcher = LeapPrefetcher(window=8)
        targets = self.feed_faults(prefetcher, range(100, 110))
        assert prefetcher.majority_found >= 1
        assert (1, 110) in targets

    def test_stride_2_stream(self):
        prefetcher = LeapPrefetcher(window=8)
        targets = self.feed_faults(prefetcher, range(100, 120, 2))
        vpns = [vpn for _, vpn in targets]
        assert vpns[0] == 120

    def test_interleaved_streams_confuse_majority(self):
        """Figure 1's lesson: two interleaved streams alias in the
        global fault history and break the majority vote."""
        prefetcher = LeapPrefetcher(window=8, fallback_prefetch=0)
        a = list(range(100, 120, 2))      # stride 2
        b = list(range(5000, 5010))       # stride 1
        interleaved = [vpn for pair in zip(a, b) for vpn in pair]
        self.feed_faults(prefetcher, interleaved)
        # The strides seen are alternating large jumps: no majority.
        assert prefetcher.detect_stride() == 0
        assert prefetcher.fallbacks > 0

    def test_detect_stride_needs_full_window(self):
        prefetcher = LeapPrefetcher(window=8)
        self.feed_faults(prefetcher, range(100, 104))
        assert prefetcher.detect_stride() == 0

    def test_depth_adapts_on_feedback(self):
        prefetcher = LeapPrefetcher(window=8, max_prefetch=8)
        start = prefetcher._depth
        for _ in range(start):
            prefetcher.on_prefetch_wasted(1, 0)
        prefetcher._adapt()
        assert prefetcher._depth == max(1, start // 2)

    def test_negative_targets_filtered(self):
        prefetcher = LeapPrefetcher(window=4)
        targets = self.feed_faults(prefetcher, [30, 20, 10, 0])
        assert all(vpn >= 0 for _, vpn in targets)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            LeapPrefetcher(window=1)


class TestDepthN:
    def test_fixed_contiguous_window(self):
        prefetcher = DepthNPrefetcher(depth=4)
        targets = prefetcher.on_fault(1, 100, 0, 0.0, StubMachine())
        assert targets == [(1, 101), (1, 102), (1, 103), (1, 104)]

    def test_injects_ptes(self):
        assert DepthNPrefetcher(depth=16).inject_pte is True

    def test_name_carries_depth(self):
        assert DepthNPrefetcher(depth=32).name == "depth-32"

    def test_no_feedback_no_adaptation(self):
        prefetcher = DepthNPrefetcher(depth=8)
        prefetcher.on_prefetch_wasted(1, 0)  # inherited no-op
        targets = prefetcher.on_fault(1, 0, 0, 0.0, StubMachine())
        assert len(targets) == 8  # unchanged: Depth-N cannot adapt

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            DepthNPrefetcher(depth=0)


class TestVmaReadahead:
    def test_window_clipped_to_vma(self):
        machine = StubMachine()
        machine.page_table(1).vmas.add(100, 10, "heap")  # [100, 110)
        prefetcher = VmaReadaheadPrefetcher(window=8)
        targets = prefetcher.on_fault(1, 108, 0, 0.0, machine)
        vpns = sorted(vpn for _, vpn in targets)
        assert all(100 <= vpn < 110 for vpn in vpns)
        assert 108 not in vpns

    def test_forward_biased_window(self):
        machine = StubMachine()
        machine.page_table(1).vmas.add(0, 1000)
        prefetcher = VmaReadaheadPrefetcher(window=8)
        targets = prefetcher.on_fault(1, 500, 0, 0.0, machine)
        vpns = [vpn for _, vpn in targets]
        ahead = sum(1 for vpn in vpns if vpn > 500)
        behind = sum(1 for vpn in vpns if vpn < 500)
        assert ahead > behind

    def test_no_vma_still_prefetches_nearby(self):
        prefetcher = VmaReadaheadPrefetcher(window=4)
        targets = prefetcher.on_fault(1, 50, 0, 0.0, StubMachine())
        assert targets  # unclipped window

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            VmaReadaheadPrefetcher(window=0)


class TestLeapEagerEviction:
    class DemotingMachine(StubMachine):
        def __init__(self):
            super().__init__()
            self.demoted = []

        def demote_page(self, pid, vpn):
            self.demoted.append((pid, vpn))
            return True

    def test_previous_hit_demoted_on_next_hit(self):
        prefetcher = LeapPrefetcher(eager_eviction=True)
        machine = self.DemotingMachine()
        prefetcher.on_prefetch_hit(1, 10, 0.0, machine)
        assert machine.demoted == []  # nothing to demote yet
        prefetcher.on_prefetch_hit(1, 11, 1.0, machine)
        assert machine.demoted == [(1, 10)]
        assert prefetcher.eager_demotions == 1

    def test_disabled_eager_eviction(self):
        prefetcher = LeapPrefetcher(eager_eviction=False)
        machine = self.DemotingMachine()
        prefetcher.on_prefetch_hit(1, 10, 0.0, machine)
        prefetcher.on_prefetch_hit(1, 11, 1.0, machine)
        assert machine.demoted == []

    def test_no_machine_handle_is_safe(self):
        prefetcher = LeapPrefetcher(eager_eviction=True)
        prefetcher.on_prefetch_hit(1, 10, 0.0)
        prefetcher.on_prefetch_hit(1, 11, 1.0)
        assert prefetcher.eager_demotions == 0

    def test_demoted_page_becomes_early_victim(self):
        """End to end: a demoted page is reclaimed before hotter ones."""
        from repro.kernel.reclaim import LruPageList

        lru = LruPageList()
        for vpn in range(4):
            lru.insert(1, vpn)
        assert lru.demote(1, 3)
        assert lru.victims(1) == [(1, 3)]
        assert not lru.demote(1, 99)
