"""Stream Training Table (STT) — Section III-D, Figure 7.

64 LRU-managed entries, each a potential page stream for one PID.  An
entry keeps the last L VPNs received (``VPN_history``) and the L-1
derived strides.  A new hot page joins a stream when the PID matches and
its VPN is within Delta_stream pages of the stream's most recent VPN
(the pages-clustering technique of Section II-B); otherwise a new entry
is allocated, evicting the LRU one.

An entry is its stream's :class:`StreamObservation`.  Once the entry's
history is full, every further hot page appended to it refreshes the
entry in place and hands it out, one live view per stream, to the tier
algorithms.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict, deque
from typing import Dict, List, Optional, Tuple

from repro.common.constants import STT_ENTRIES, STT_HISTORY_LEN, STT_STREAM_DELTA
from repro.common.types import StreamObservation

#: Per-pid match index: the pid's streams sorted by newest VPN, as two
#: parallel lists (the keys, and the streams in the same order).
_Index = Tuple[List[int], List[StreamObservation]]


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
        #: stream_id -> stream; ordering encodes recency (last = MRU) and
        #: picks the capacity victim.
        self._entries: "OrderedDict[int, StreamObservation]" = OrderedDict()
        #: pid -> that pid's streams sorted by newest VPN (see ``_match``).
        self._index: Dict[int, _Index] = {}
        self._clock = 0
        self.hot_pages_in = 0
        self.duplicates_dropped = 0
        self.observations_out = 0
        self.streams_created = 0
        self.streams_evicted = 0

    # -- feeding hot pages ---------------------------------------------------------

    def feed(self, pid: int, vpn: int, now_us: float = 0.0) -> Optional[StreamObservation]:
        """Insert one hot page; returns the matched stream when its
        history is full (training can run), else None.

        The stream is its own live observation (see
        :class:`StreamObservation`), refreshed by this call and valid
        until the stream's next hot page.
        """
        self.hot_pages_in += 1
        index = self._index.get(pid)
        pos = -1 if index is None else self._match(index, vpn)
        if pos < 0:
            self._allocate(pid, vpn)
            return None
        keys, streams = index
        stream = streams[pos]
        self._clock += 1
        stream.stamp = self._clock
        self._entries.move_to_end(stream.stream_id)
        last = stream.vpn
        if vpn == last:
            # Repeated extraction of the same page (multi-channel dedup,
            # Section III-B) — no new information.
            self.duplicates_dropped += 1
            return None
        stride = vpn - last
        vpns = stream.vpns
        strides = stream.strides
        counts = stream.stride_counts
        if len(strides) == strides.maxlen:
            # Appending will drop the oldest stride out of the window.
            old = strides[0]
            if old:
                left = counts[old] - 1
                if left:
                    counts[old] = left
                else:
                    del counts[old]
        vpns.append(vpn)
        strides.append(stride)
        if stride:
            counts[stride] = counts.get(stride, 0) + 1
        # The matched stream is vpn's nearest neighbour on its side of
        # vpn, so moving its key to vpn passes no other key: the index
        # stays sorted with an in-place update.
        keys[pos] = vpn
        stream.vpn = vpn
        if len(vpns) < self.history_len:
            return None
        self.observations_out += 1
        stream.stride = stride
        stream.timestamp_us = now_us
        # The windows moved: drop the tuple copies of the last refresh.
        stream._vpn_history = stream._stride_history = None
        return stream

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

    def _allocate(self, pid: int, vpn: int) -> None:
        if len(self._entries) >= self.capacity:
            _, victim = self._entries.popitem(last=False)
            keys, streams = self._index[victim.pid]
            i = bisect_left(keys, victim.vpn)
            while streams[i] is not victim:
                # Only a negative Delta_stream lets two streams share a
                # newest VPN.
                i += 1
            del keys[i]
            del streams[i]
            self.streams_evicted += 1
        self._clock += 1
        stream_id = self.streams_created
        self.streams_created += 1
        stream = StreamObservation(
            pid,
            vpn,
            0,
            deque([vpn], maxlen=self.history_len),
            deque(maxlen=self.history_len - 1),
            stream_id,
            0.0,
            {},
        )
        stream.stamp = self._clock
        self._entries[stream_id] = stream
        index = self._index.get(pid)
        if index is None:
            index = self._index[pid] = ([], [])
        keys, streams = index
        i = bisect_left(keys, vpn)
        keys.insert(i, vpn)
        streams.insert(i, stream)

    # -- introspection ------------------------------------------------------------------

    def streams(self) -> List[StreamObservation]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)
