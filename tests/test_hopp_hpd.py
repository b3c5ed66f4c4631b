"""Tests for the Hot Page Detection table (Section III-B)."""

import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hopp.hpd import HotPageDetector


def block_addr(ppn: int, block: int) -> int:
    return (ppn << 12) | (block << 6)


class TestHotPageDetector:
    def test_extracts_after_threshold_reads(self):
        hpd = HotPageDetector(threshold=8)
        for block in range(7):
            assert hpd.process(block_addr(5, block)) is None
        assert hpd.process(block_addr(5, 7)) == 5
        assert hpd.hot_pages == 1

    def test_send_bit_drops_further_accesses(self):
        hpd = HotPageDetector(threshold=2)
        hpd.process(block_addr(5, 0))
        assert hpd.process(block_addr(5, 1)) == 5
        # Further accesses to the extracted page are dropped.
        assert hpd.process(block_addr(5, 2)) is None
        assert hpd.process(block_addr(5, 3)) is None
        assert hpd.dropped_after_send == 2
        assert hpd.hot_pages == 1

    def test_threshold_one_extracts_immediately(self):
        hpd = HotPageDetector(threshold=1)
        assert hpd.process(block_addr(9, 0)) == 9

    def test_writes_ignored(self):
        hpd = HotPageDetector(threshold=1)
        assert hpd.process(block_addr(3, 0), is_write=True) is None
        assert hpd.writes_ignored == 1
        assert hpd.accesses == 0

    def test_repeated_detection_after_eviction(self):
        # 1 set x 2 ways: touching 3 pages evicts the oldest.
        hpd = HotPageDetector(threshold=1, nsets=1, nways=2)
        hpd.process(block_addr(1, 0))
        hpd.process(block_addr(2, 0))
        hpd.process(block_addr(3, 0))  # evicts page 1
        hpd.process(block_addr(1, 1))  # page 1 hot again
        assert hpd.repeated_detections == 1
        assert hpd.hot_pages == 4

    def test_low_threshold_extracts_more(self):
        """Table II's trend: smaller N -> more hot pages per access."""
        trace = [block_addr(p, b) for p in range(40) for b in range(16)]
        ratios = []
        for threshold in (2, 8, 32):
            hpd = HotPageDetector(threshold=threshold)
            for addr in trace:
                hpd.process(addr)
            ratios.append(hpd.hot_page_ratio)
        assert ratios[0] >= ratios[1] >= ratios[2]

    def test_full_page_visit_ratio_matches_table2(self):
        """64 reads/page with N=8 and no churn -> 1/64 = 1.56% (the
        K-means row of Table II)."""
        hpd = HotPageDetector(threshold=8)
        for page in range(32):
            for block in range(64):
                hpd.process(block_addr(page, block))
        assert hpd.hot_page_ratio == pytest.approx(1 / 64, rel=0.01)

    def test_bandwidth_overhead_small(self):
        hpd = HotPageDetector(threshold=8)
        for page in range(32):
            for block in range(64):
                hpd.process(block_addr(page, block))
        # 8 bytes per hot page vs 64 bytes per access: 1/64 * 8/64.
        assert hpd.bandwidth_overhead == pytest.approx(8 / (64 * 64), rel=0.01)

    def test_set_mapping_uses_low_ppn_bits(self):
        hpd = HotPageDetector(threshold=1, nsets=4, nways=1)
        # Pages 0 and 4 share set 0; page 1 lives in set 1.
        hpd.process(block_addr(0, 0))
        hpd.process(block_addr(4, 0))  # evicts page 0
        hpd.process(block_addr(1, 0))
        assert hpd.tracked_pages == 2

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            HotPageDetector(threshold=0)
        with pytest.raises(ValueError):
            HotPageDetector(threshold=65)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            HotPageDetector(nsets=0)
        with pytest.raises(ValueError):
            HotPageDetector(nways=0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 63)),
            min_size=1,
            max_size=500,
        ),
        st.sampled_from([1, 2, 4, 8, 16]),
    )
    @settings(max_examples=40, deadline=None)
    def test_extraction_rate_bounded_by_threshold(self, accesses, threshold):
        """Every extraction consumes at least ``threshold`` READ accesses
        since the entry's (re)insertion, so hot_pages <= accesses/N."""
        hpd = HotPageDetector(threshold=threshold)
        for ppn, block in accesses:
            hpd.process(block_addr(ppn, block))
        assert hpd.hot_pages <= len(accesses) // threshold
        assert hpd.accesses == len(accesses)


class _ReferenceHpd:
    """Figure 5's flow one READ at a time, with an explicit send bit per
    row: insert with count 1; a sent row drops the access; otherwise
    count up and extract (setting the send bit) at count >= N."""

    def __init__(self, threshold, nsets, nways):
        self.threshold = threshold
        self.nways = nways
        #: ppn -> [count, sent], LRU first.
        self.sets = [OrderedDict() for _ in range(nsets)]
        self.accesses = self.hits = self.misses = self.evictions = 0
        self.dropped_after_send = self.repeated_detections = 0
        self.hot = []

    def read(self, ppn):
        self.accesses += 1
        rows = self.sets[ppn % len(self.sets)]
        row = rows.get(ppn)
        if row is None:
            self.misses += 1
            if len(rows) >= self.nways:
                rows.popitem(last=False)
                self.evictions += 1
            row = rows[ppn] = [0, False]
        else:
            self.hits += 1
            rows.move_to_end(ppn)
            if row[1]:
                self.dropped_after_send += 1
                return
        row[0] += 1
        if row[0] >= self.threshold:
            row[1] = True
            if ppn in self.hot:
                self.repeated_detections += 1
            self.hot.append(ppn)

    def state(self):
        return [[(ppn, row[0]) for ppn, row in rows.items()] for rows in self.sets]


def _random_runs(rng, count):
    """Same-page READ runs over few enough pages to hit, evict and
    re-detect."""
    return [(rng.randrange(40), rng.choice([1, 1, 2, 3, 7, 8, 9, 64]))
            for _ in range(count)]


class TestReadCountsDifferential:
    """HPD's int read counts (send bit == count >= N) against the
    per-access reference table, fed per access and as same-page runs."""

    def _compare(self, hpd, hot, ref):
        assert hot == ref.hot
        assert (hpd.accesses, hpd.hits, hpd.misses, hpd.evictions,
                hpd.dropped_after_send, hpd.hot_pages,
                hpd.repeated_detections) == (
            ref.accesses, ref.hits, ref.misses, ref.evictions,
            ref.dropped_after_send, len(ref.hot), ref.repeated_detections)
        assert [list(rows.items()) for rows in hpd._sets] == ref.state()

    @pytest.mark.parametrize("threshold", [1, 2, 8])
    @pytest.mark.parametrize("geometry", [(4, 16), (2, 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_process_and_process_run(self, threshold, geometry, seed):
        rng = random.Random(seed * 31 + threshold)
        nsets, nways = geometry
        ref = _ReferenceHpd(threshold, nsets, nways)
        per_access = HotPageDetector(threshold, nsets, nways)
        batched = HotPageDetector(threshold, nsets, nways)
        hot_access, hot_runs = [], []
        for ppn, reads in _random_runs(rng, 400):
            for block in range(reads):
                ref.read(ppn)
                hit = per_access.process(block_addr(ppn, block % 64))
                if hit is not None:
                    hot_access.append(hit)
            left = reads
            while left:
                # The batch kernel re-enters after every extraction.
                used, fired = batched.process_run(ppn, left)
                assert 1 <= used <= left
                if fired:
                    hot_runs.append(ppn)
                left -= used
            self._compare(per_access, hot_access, ref)
            self._compare(batched, hot_runs, ref)
