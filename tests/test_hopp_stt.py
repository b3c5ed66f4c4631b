"""Tests for the Stream Training Table (Section III-D, Figure 7)."""

import random
from collections import OrderedDict, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hopp import ssp
from repro.hopp.stt import StreamTrainingTable
from repro.hopp.three_tier import ThreeTierTrainer
from tests.conftest import ssp_histogram_stride


class TestStreamMatching:
    def test_sequential_pages_join_one_stream(self):
        stt = StreamTrainingTable(history_len=4)
        assert stt.feed(1, 100) is None
        assert stt.feed(1, 101) is None
        assert stt.feed(1, 102) is None
        obs = stt.feed(1, 103)
        assert obs is not None
        assert obs.vpn_history == (100, 101, 102, 103)
        assert obs.stride_history == (1, 1, 1)
        assert stt.streams_created == 1

    def test_distance_beyond_delta_starts_new_stream(self):
        stt = StreamTrainingTable(stream_delta=64)
        stt.feed(1, 100)
        stt.feed(1, 100 + 65)
        assert stt.streams_created == 2

    def test_distance_within_delta_joins(self):
        stt = StreamTrainingTable(stream_delta=64)
        stt.feed(1, 100)
        stt.feed(1, 164)
        assert stt.streams_created == 1

    def test_pid_separates_streams(self):
        stt = StreamTrainingTable()
        stt.feed(1, 100)
        stt.feed(2, 101)
        assert stt.streams_created == 2

    def test_closest_stream_wins(self):
        stt = StreamTrainingTable(history_len=4, stream_delta=64)
        stt.feed(1, 100)   # stream A
        stt.feed(1, 160)   # within 64 of A -> joins A (distance 60)
        assert stt.streams_created == 1
        stt.feed(1, 300)   # stream B
        # 310 is within delta of B only.
        stt.feed(1, 310)
        streams = stt.streams()
        assert sorted(len(s.vpns) for s in streams) == [2, 2]

    def test_duplicate_vpn_dropped(self):
        """Repeated hot-page extraction (multi-channel) is de-duplicated
        (Section III-B)."""
        stt = StreamTrainingTable(history_len=4)
        stt.feed(1, 100)
        stt.feed(1, 100)
        assert stt.duplicates_dropped == 1
        entry = stt.streams()[0]
        assert list(entry.vpns) == [100]

    def test_descending_stream(self):
        stt = StreamTrainingTable(history_len=4)
        for vpn in (100, 99, 98):
            stt.feed(1, vpn)
        obs = stt.feed(1, 97)
        assert obs.stride_history == (-1, -1, -1)


class TestObservations:
    def test_no_observation_until_history_full(self):
        stt = StreamTrainingTable(history_len=16)
        for i in range(15):
            assert stt.feed(1, 100 + i) is None
        assert stt.feed(1, 115) is not None
        assert stt.observations_out == 1

    def test_every_subsequent_page_observes(self):
        stt = StreamTrainingTable(history_len=4)
        for i in range(4):
            stt.feed(1, 100 + i)
        for i in range(4, 10):
            assert stt.feed(1, 100 + i) is not None
        assert stt.observations_out == 7

    def test_observation_window_slides(self):
        stt = StreamTrainingTable(history_len=4)
        for i in range(5):
            obs = stt.feed(1, 100 + i)
        assert obs.vpn_history == (101, 102, 103, 104)

    def test_timestamp_propagated(self):
        stt = StreamTrainingTable(history_len=4)
        for i in range(3):
            stt.feed(1, 100 + i, now_us=float(i))
        obs = stt.feed(1, 103, now_us=42.0)
        assert obs.timestamp_us == 42.0

    def test_stream_id_stable(self):
        stt = StreamTrainingTable(history_len=4)
        ids = set()
        for i in range(8):
            obs = stt.feed(1, 100 + i)
            if obs:
                ids.add(obs.stream_id)
        assert len(ids) == 1


class TestEviction:
    def test_lru_eviction_at_capacity(self):
        stt = StreamTrainingTable(entries=2, history_len=4, stream_delta=4)
        stt.feed(1, 0)
        stt.feed(1, 100)
        stt.feed(1, 200)  # evicts the stream at 0
        assert stt.streams_evicted == 1
        assert len(stt) == 2
        # Feeding near the evicted base creates a new stream.
        stt.feed(1, 1)
        assert stt.streams_created == 4

    def test_active_stream_survives_eviction_pressure(self):
        stt = StreamTrainingTable(entries=2, history_len=4, stream_delta=4)
        stt.feed(1, 0)
        for noise in range(10):
            stt.feed(1, 1000 + noise * 100)  # churn the other entry
            stt.feed(1, 1 + noise)           # keep stream 0 hot
        streams = stt.streams()
        # The hot stream kept its (full, maxlen=4) history despite the
        # churn evicting every noise entry.
        assert any(len(s.vpns) == 4 and s.vpns[-1] == 10 for s in streams)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            StreamTrainingTable(entries=0)
        with pytest.raises(ValueError):
            StreamTrainingTable(history_len=2)


class TestInvariants:
    @given(
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(0, 2000)),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_observation_consistency(self, pages):
        """Every observation's strides must match its VPN history, the
        newest VPN must equal obs.vpn, and PIDs never mix."""
        stt = StreamTrainingTable(history_len=8)
        for pid, vpn in pages:
            obs = stt.feed(pid, vpn)
            if obs is None:
                continue
            assert obs.pid == pid
            assert obs.vpn == obs.vpn_history[-1] == vpn
            assert len(obs.vpn_history) == 8
            assert len(obs.stride_history) == 7
            derived = tuple(
                b - a for a, b in zip(obs.vpn_history, obs.vpn_history[1:])
            )
            assert derived == obs.stride_history
            assert all(s != 0 for s in obs.stride_history)  # duplicates dropped

    @given(st.lists(st.integers(0, 500), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_table_never_exceeds_capacity(self, vpns):
        stt = StreamTrainingTable(entries=8, history_len=4)
        for vpn in vpns:
            stt.feed(1, vpn)
            assert len(stt) <= 8


class _LinearScanStt:
    """Brute-force reference STT: the stream match scans every entry in
    recency order (LRU first) and keeps the first strictly closer one,
    so equal distances go to the least recently used stream."""

    def __init__(self, entries, history_len, stream_delta):
        self.capacity = entries
        self.history_len = history_len
        self.stream_delta = stream_delta
        self.entries = OrderedDict()  # stream_id -> [pid, vpns, strides]
        self.next_id = 0
        self.duplicates_dropped = 0
        self.streams_evicted = 0

    def feed(self, pid, vpn):
        best, best_distance = None, None
        for stream_id, (owner, vpns, _strides) in self.entries.items():
            distance = abs(vpn - vpns[-1])
            if owner == pid and distance <= self.stream_delta and (
                best is None or distance < best_distance
            ):
                best, best_distance = stream_id, distance
        if best is None:
            if len(self.entries) >= self.capacity:
                self.entries.popitem(last=False)
                self.streams_evicted += 1
            self.entries[self.next_id] = [
                pid,
                deque([vpn], maxlen=self.history_len),
                deque(maxlen=self.history_len - 1),
            ]
            self.next_id += 1
            return None
        self.entries.move_to_end(best)
        _owner, vpns, strides = self.entries[best]
        if vpn == vpns[-1]:
            self.duplicates_dropped += 1
            return None
        strides.append(vpn - vpns[-1])
        vpns.append(vpn)
        if len(vpns) < self.history_len:
            return None
        counts = {}
        for stride in strides:
            if stride:
                counts[stride] = counts.get(stride, 0) + 1
        return (pid, vpn, strides[-1], tuple(vpns), tuple(strides), best, counts)

    def state(self):
        return [
            (stream_id, pid, tuple(vpns))
            for stream_id, (pid, vpns, _strides) in self.entries.items()
        ]


def _observed(obs):
    if obs is None:
        return None
    return (
        obs.pid,
        obs.vpn,
        obs.stride,
        obs.vpn_history,
        obs.stride_history,
        obs.stream_id,
        dict(obs.stride_counts),
    )


def _run_differential(pages, entries, history_len, stream_delta):
    stt = StreamTrainingTable(entries, history_len, stream_delta)
    ref = _LinearScanStt(entries, history_len, stream_delta)
    for step, (pid, vpn) in enumerate(pages):
        got = _observed(stt.feed(pid, vpn))
        assert got == ref.feed(pid, vpn), (step, pid, vpn)
        assert [(e.stream_id, e.pid, tuple(e.vpns)) for e in stt.streams()] == \
            ref.state(), step
    assert stt.duplicates_dropped == ref.duplicates_dropped
    assert stt.streams_evicted == ref.streams_evicted
    assert stt.streams_created == ref.next_id


class TestIndexedMatchDifferential:
    """The sorted per-pid index against the linear-scan reference."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_feeds(self, seed):
        rng = random.Random(seed)
        entries = rng.choice([1, 2, 3, 8, 64])
        history_len = rng.choice([4, 5, 16])
        stream_delta = rng.choice([0, 1, 2, 3, 8, 64])
        span = rng.choice([12, 40, 400])
        pages = []
        for _ in range(1500):
            pid = rng.randrange(1, 4)
            if pages and rng.random() < 0.15:
                pages.append(pages[-1])  # duplicate extraction
            elif pages and rng.random() < 0.4:
                # Walk near a recent page so streams grow and collide.
                _pid, base = pages[-rng.randrange(1, min(len(pages), 6) + 1)]
                pages.append((pid, max(0, base + rng.randint(-stream_delta - 1,
                                                              stream_delta + 1))))
            else:
                pages.append((pid, rng.randrange(span)))
        _run_differential(pages, entries, history_len, stream_delta)

    @pytest.mark.parametrize("lru_side", ["below", "above"])
    def test_equal_distance_tie_goes_to_lru(self, lru_side):
        stt = StreamTrainingTable(entries=8, history_len=4, stream_delta=8)
        first, second = (100, 110) if lru_side == "below" else (110, 100)
        stt.feed(1, first)
        stt.feed(1, second)
        stt.feed(1, 105)  # 5 from each
        lru = [e for e in stt.streams() if e.vpns[0] == first][0]
        assert list(lru.vpns) == [first, 105]
        _run_differential(
            [(1, first), (1, second), (1, 105)], 8, 4, 8
        )

    def test_stream_delta_edges(self):
        pages = [(1, 100), (1, 108), (1, 117), (1, 125), (1, 125), (1, 116),
                 (1, 134), (2, 108), (2, 100), (1, 0), (1, 8), (1, 17)]
        for delta in (0, 1, 8, 9):
            _run_differential(pages, 64, 4, delta)

    def test_negative_delta_never_joins(self):
        # Every feed allocates, so streams may share a last VPN; eviction
        # must still remove the exact victim from the index.
        pages = [(1, 5), (1, 5), (1, 6), (1, 5), (2, 5), (1, 5), (1, 6)]
        _run_differential(pages, 3, 4, -1)

    def test_capacity_eviction_across_pids(self):
        rng = random.Random(3)
        pages = [(rng.randrange(1, 6), rng.randrange(0, 2000, 100))
                 for _ in range(400)]
        _run_differential(pages, 4, 4, 64)


class TestLiveObservation:
    def _stream(self, stt, n, start=100):
        obs = None
        for vpn in range(start, start + n):
            obs = stt.feed(1, vpn)
        return obs

    def test_ssp_decision_copies_no_history(self):
        stt = StreamTrainingTable(history_len=8)
        obs = self._stream(stt, 8)
        decision = ThreeTierTrainer().train(obs)
        assert decision[0] == "ssp"
        assert obs._vpn_history is None and obs._stride_history is None

    def test_view_tracks_stream_until_detached(self):
        stt = StreamTrainingTable(history_len=4)
        live = self._stream(stt, 4)
        kept = self._stream(StreamTrainingTable(history_len=4), 4).detach()
        assert kept.vpn_history == (100, 101, 102, 103)
        stt.feed(1, 104)
        # The live windows moved on; a detached copy did not.
        assert tuple(live.vpns) == (101, 102, 103, 104)
        assert kept.vpn_history == (100, 101, 102, 103)
        assert kept.stride_counts == {1: 3}


def _fields(obs):
    return (obs.pid, obs.vpn, obs.stride, obs.vpn_history, obs.stride_history,
            obs.stream_id, obs.timestamp_us, dict(obs.stride_counts))


class TestObservationView:
    """One observation per stream, refreshed in place by each feed."""

    def test_one_view_per_stream_refreshed_by_each_feed(self):
        stt = StreamTrainingTable(history_len=4, stream_delta=8)
        views = {}
        rng = random.Random(5)
        # Two pids, two streams each, walking in small random steps.
        heads = {(1, 0): 1000, (1, 1): 5000, (2, 0): 1000, (2, 1): 9000}
        ref = _LinearScanStt(64, 4, 8)
        for step in range(600):
            (pid, lane), vpn = rng.choice(sorted(heads.items()))
            vpn += rng.choice([1, 1, 2, -1, 3])
            heads[(pid, lane)] = vpn
            now = float(step)
            obs = stt.feed(pid, vpn, now)
            expected = ref.feed(pid, vpn)
            if obs is None:
                assert expected is None
                continue
            # The stream's one view, now describing this feed.
            assert views.setdefault(obs.stream_id, obs) is obs
            assert (obs.pid, obs.vpn, obs.stride, obs.vpn_history,
                    obs.stride_history, obs.stream_id,
                    dict(obs.stride_counts)) == expected
            assert obs.timestamp_us == now
        assert len(views) == 4
        assert len({id(view) for view in views.values()}) == 4

    def test_the_listed_stream_is_the_observation(self):
        stt = StreamTrainingTable(entries=3, history_len=4, stream_delta=8)
        rng = random.Random(9)
        heads = {1: 1000, 2: 5000, 3: 9000}
        handed_out = 0
        for step in range(800):
            lane = rng.choice(sorted(heads))
            if rng.random() < 0.1:
                heads[lane] += 100  # leave the stream: allocate, evict
            else:
                heads[lane] += rng.choice([1, 1, 2, -1, 0])
            obs = stt.feed(lane % 2, heads[lane], float(step))
            streams = stt.streams()
            if obs is not None:
                handed_out += 1
                listed = [s for s in streams if s.stream_id == obs.stream_id]
                assert len(listed) == 1 and listed[0] is obs
            for stream in streams:
                assert stream.vpn == stream.vpns[-1]
        assert handed_out > 100
        assert stt.streams_evicted > 0

    def test_detach_is_an_equal_independent_snapshot(self):
        stt = StreamTrainingTable(history_len=4)
        for vpn in (100, 101, 102):
            stt.feed(1, vpn, float(vpn))
        view = stt.feed(1, 104, 7.0)
        snapshot = view.detach()
        assert snapshot is not view
        assert _fields(snapshot) == _fields(view)
        assert snapshot.stride_counts is not view.stride_counts
        before = _fields(snapshot)
        assert stt.feed(1, 105, 8.0) is view
        assert stt.feed(1, 107, 9.0) is view
        # The view moved on; the snapshot did not.
        assert (view.vpn, view.stride, view.timestamp_us) == (107, 2, 9.0)
        assert view.vpn_history == (102, 104, 105, 107)
        assert dict(view.stride_counts) == {2: 2, 1: 1}
        assert _fields(snapshot) == before
        assert snapshot.vpn_history == (100, 101, 102, 104)
        assert snapshot.stride_counts == {1: 2, 2: 1}
        # A snapshot of a snapshot is equal too.
        assert _fields(snapshot.detach()) == before

    def test_tuple_histories_follow_the_refresh(self):
        stt = StreamTrainingTable(history_len=4)
        for vpn in (10, 11, 12):
            stt.feed(1, vpn)
        view = stt.feed(1, 13)
        assert view.vpn_history == (10, 11, 12, 13)
        stt.feed(1, 15)
        # Copied again after the refresh, not the stale tuple.
        assert view.vpn_history == (11, 12, 13, 15)
        assert view.stride_history == (1, 1, 2)


def _sliding_counts(strides, window):
    """The STT's incremental histogram after sliding ``strides`` through
    a ``window``-stride window: a stride that leaves and comes back is
    re-inserted at the end, so insertion order is not first occurrence."""
    live = deque(maxlen=window)
    counts = {}
    for stride in strides:
        if len(live) == window and live[0]:
            left = counts[live[0]] - 1
            if left:
                counts[live[0]] = left
            else:
                del counts[live[0]]
        live.append(stride)
        if stride:
            counts[stride] = counts.get(stride, 0) + 1
    return list(live), counts


class TestDominantStrideFromCounts:
    """SSP deciding from the STT's incremental histogram against a
    recount of the window."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_recount_with_ties(self, seed):
        rng = random.Random(seed)
        for _ in range(2000):
            window = rng.randrange(1, 16)
            alphabet = rng.choice([[1, -1], [0, 1, 2], [-3, 0, 1, 2, 64]])
            strides, counts = _sliding_counts(
                [rng.choice(alphabet) for _ in range(rng.randrange(1, 40))],
                window,
            )
            for min_count in (0, 1, 2, len(strides) // 2):
                assert ssp_histogram_stride(
                    strides, counts, min_count
                ) == ssp.dominant_stride(strides, min_count), (strides, counts)
