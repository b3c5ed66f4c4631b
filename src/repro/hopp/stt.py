"""Stream Training Table (STT) — Section III-D, Figure 7.

64 LRU-managed entries, each a potential page stream for one PID.  An
entry keeps the last L VPNs received (``VPN_history``) and the L-1
derived strides.  A new hot page joins a stream when the PID matches and
its VPN is within Delta_stream pages of the stream's most recent VPN
(the pages-clustering technique of Section II-B); otherwise a new entry
is allocated, evicting the LRU one.

Once an entry's history is full, every further hot page appended to it
yields a :class:`StreamObservation` for the tier algorithms.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict, deque
from dataclasses import field
from typing import Deque, Dict, List, Optional, Tuple

from repro.common.compat import slotted_dataclass
from repro.common.constants import STT_ENTRIES, STT_HISTORY_LEN, STT_STREAM_DELTA
from repro.common.types import StreamObservation


@slotted_dataclass()
class SttEntry:
    stream_id: int
    pid: int
    vpns: Deque[int]
    #: Strides between consecutive VPNs; len == len(vpns) - 1.
    strides: Deque[int]
    #: Invariant: Counter of the non-zero strides currently in
    #: ``strides``, maintained incrementally by ``feed`` so SSP's
    #: dominant-stride scan is O(distinct strides) per observation
    #: instead of O(history).
    stride_counts: Dict[int, int] = field(default_factory=dict)
    #: Mirror of ``vpns[-1]`` kept as a plain slot: it is the entry's
    #: key in the table's per-pid index.
    last: int = 0
    #: Recency stamp from the table's clock (larger = more recently
    #: used); breaks equal-distance ties in the stream match.
    stamp: int = 0

    @property
    def last_vpn(self) -> int:
        return self.vpns[-1]


#: Per-pid match index: the pid's streams sorted by last VPN, as two
#: parallel lists (the keys, and the entries in the same order).
_Index = Tuple[List[int], List[SttEntry]]


class StreamTrainingTable:
    def __init__(
        self,
        entries: int = STT_ENTRIES,
        history_len: int = STT_HISTORY_LEN,
        stream_delta: int = STT_STREAM_DELTA,
    ) -> None:
        if entries < 1:
            raise ValueError("entries must be >= 1")
        if history_len < 4:
            raise ValueError("history_len must be >= 4 for LSP/RSP to work")
        self.capacity = entries
        self.history_len = history_len
        self.stream_delta = stream_delta
        #: stream_id -> entry; ordering encodes recency (last = MRU) and
        #: picks the capacity victim.
        self._entries: "OrderedDict[int, SttEntry]" = OrderedDict()
        #: pid -> that pid's streams sorted by last VPN (see ``_match``).
        self._index: Dict[int, _Index] = {}
        self._clock = 0
        self._next_stream_id = 0
        self.hot_pages_in = 0
        self.duplicates_dropped = 0
        self.observations_out = 0
        self.streams_created = 0
        self.streams_evicted = 0

    # -- feeding hot pages ---------------------------------------------------------

    def feed(self, pid: int, vpn: int, now_us: float = 0.0) -> Optional[StreamObservation]:
        """Insert one hot page; returns an observation when the matched
        stream's history is full (training can run), else None.

        The observation is a live view of the stream (see
        :class:`StreamObservation`), valid until its next hot page.
        """
        self.hot_pages_in += 1
        index = self._index.get(pid)
        pos = -1 if index is None else self._match(index, vpn)
        if pos < 0:
            self._allocate(pid, vpn)
            return None
        keys, streams = index
        entry = streams[pos]
        self._clock += 1
        entry.stamp = self._clock
        self._entries.move_to_end(entry.stream_id)
        if vpn == entry.last:
            # Repeated extraction of the same page (multi-channel dedup,
            # Section III-B) — no new information.
            self.duplicates_dropped += 1
            return None
        stride = vpn - entry.last
        strides = entry.strides
        counts = entry.stride_counts
        if len(strides) == strides.maxlen:
            # Appending will drop the oldest stride out of the window.
            old = strides[0]
            if old:
                left = counts[old] - 1
                if left:
                    counts[old] = left
                else:
                    del counts[old]
        entry.vpns.append(vpn)
        strides.append(stride)
        if stride:
            counts[stride] = counts.get(stride, 0) + 1
        # The matched stream is vpn's nearest neighbour on its side of
        # vpn, so moving its key to vpn passes no other key: the index
        # stays sorted with an in-place update.
        keys[pos] = vpn
        entry.last = vpn
        if len(entry.vpns) < self.history_len:
            return None
        self.observations_out += 1
        return StreamObservation(
            pid, vpn, stride, entry.vpns, strides, entry.stream_id, now_us, counts
        )

    # -- internals -------------------------------------------------------------------

    def _match(self, index: _Index, vpn: int) -> int:
        """Position in ``index`` of the closest stream within
        Delta_stream pages of ``vpn``, or -1.

        Within one pid no two streams share a last VPN while
        Delta_stream >= 0 (a page at distance 0 always joins that
        stream), so the closest stream is one of the two keys around
        ``vpn``'s bisection point.  Equal distances on both sides go to
        the least recently used stream, the stream a linear scan in
        recency order (LRU first, strict ``<``) would pick.
        """
        keys, streams = index
        delta = self.stream_delta
        i = bisect_left(keys, vpn)
        if i < len(keys) and keys[i] - vpn <= delta:
            if i:
                below = vpn - keys[i - 1]
                above = keys[i] - vpn
                if below < above or (
                    below == above and streams[i - 1].stamp < streams[i].stamp
                ):
                    return i - 1
            return i
        if i and vpn - keys[i - 1] <= delta:
            return i - 1
        return -1

    def _allocate(self, pid: int, vpn: int) -> SttEntry:
        if len(self._entries) >= self.capacity:
            _, victim = self._entries.popitem(last=False)
            keys, streams = self._index[victim.pid]
            i = bisect_left(keys, victim.last)
            while streams[i] is not victim:
                # Only a negative Delta_stream lets two streams share a
                # last VPN.
                i += 1
            del keys[i]
            del streams[i]
            self.streams_evicted += 1
        self._clock += 1
        entry = SttEntry(
            stream_id=self._next_stream_id,
            pid=pid,
            vpns=deque([vpn], maxlen=self.history_len),
            strides=deque(maxlen=self.history_len - 1),
            stride_counts={},
            last=vpn,
            stamp=self._clock,
        )
        self._next_stream_id += 1
        self.streams_created += 1
        self._entries[entry.stream_id] = entry
        index = self._index.get(pid)
        if index is None:
            index = self._index[pid] = ([], [])
        keys, streams = index
        i = bisect_left(keys, vpn)
        keys.insert(i, vpn)
        streams.insert(i, entry)
        return entry

    # -- introspection ------------------------------------------------------------------

    def streams(self) -> List[SttEntry]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)
