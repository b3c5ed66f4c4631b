"""Unit + property tests for the set-associative table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.assoc import SetAssociativeTable


class TestSetAssociativeTable:
    def test_insert_and_lookup(self):
        table = SetAssociativeTable(nsets=2, nways=2)
        table.insert(4, "a")
        assert table.lookup(4) == "a"
        assert table.lookup(6) is None

    def test_miss_then_hit_statistics(self):
        table = SetAssociativeTable(nsets=2, nways=2)
        assert table.lookup(1) is None
        table.insert(1, "x")
        assert table.lookup(1) == "x"
        assert table.hits == 1
        assert table.misses == 1
        assert table.hit_rate == 0.5

    def test_eviction_is_lru_within_set(self):
        table = SetAssociativeTable(nsets=1, nways=2)
        table.insert(1, "a")
        table.insert(2, "b")
        table.lookup(1)  # refresh 1; victim should be 2
        victim = table.insert(3, "c")
        assert victim == (2, "b")
        assert 1 in table
        assert 3 in table

    def test_insert_existing_key_updates_without_eviction(self):
        table = SetAssociativeTable(nsets=1, nways=2)
        table.insert(1, "a")
        table.insert(2, "b")
        assert table.insert(1, "a2") is None
        assert table.peek(1) == "a2"
        assert len(table) == 2

    def test_sets_are_independent(self):
        table = SetAssociativeTable(nsets=2, nways=1)
        table.insert(0, "even")
        table.insert(1, "odd")
        # Filling set 0 again evicts only from set 0.
        victim = table.insert(2, "even2")
        assert victim == (0, "even")
        assert table.peek(1) == "odd"

    def test_peek_does_not_disturb_lru_or_stats(self):
        table = SetAssociativeTable(nsets=1, nways=2)
        table.insert(1, "a")
        table.insert(2, "b")
        table.peek(1)
        assert table.hits == 0
        victim = table.insert(3, "c")
        assert victim[0] == 1  # peek did not refresh key 1

    def test_remove(self):
        table = SetAssociativeTable(nsets=1, nways=4)
        table.insert(7, "x")
        assert table.remove(7) == "x"
        assert table.remove(7) is None
        assert 7 not in table

    def test_touch_refreshes(self):
        table = SetAssociativeTable(nsets=1, nways=2)
        table.insert(1, "a")
        table.insert(2, "b")
        assert table.touch(1)
        assert not table.touch(99)
        victim = table.insert(3, "c")
        assert victim[0] == 2

    def test_capacity_and_len(self):
        table = SetAssociativeTable(nsets=4, nways=16)
        assert table.capacity == 64
        for key in range(10):
            table.insert(key, key)
        assert len(table) == 10

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeTable(nsets=0, nways=4)
        with pytest.raises(ValueError):
            SetAssociativeTable(nsets=4, nways=0)

    def test_clear_resets_everything(self):
        table = SetAssociativeTable(nsets=2, nways=2)
        table.insert(1, "a")
        table.lookup(1)
        table.clear()
        assert len(table) == 0
        assert table.hits == 0 and table.misses == 0

    @given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_lru_model(self, keys):
        """The table must behave exactly like per-set reference LRU lists."""
        nsets, nways = 4, 3
        table = SetAssociativeTable(nsets=nsets, nways=nways)
        reference = [[] for _ in range(nsets)]  # most recent last
        for key in keys:
            set_idx = key % nsets
            ref_set = reference[set_idx]
            present = table.lookup(key) is not None
            assert present == (key in ref_set)
            if present:
                ref_set.remove(key)
                ref_set.append(key)
            else:
                table.insert(key, key)
                if len(ref_set) >= nways:
                    ref_set.pop(0)
                ref_set.append(key)
        for set_idx, ref_set in enumerate(reference):
            for key in ref_set:
                assert table.peek(key) == key

    @given(st.lists(st.integers(0, 100), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_capacity(self, keys):
        table = SetAssociativeTable(nsets=2, nways=4)
        for key in keys:
            table.insert(key, None)
            assert len(table) <= table.capacity
