"""HMTT emulation: full off-chip memory reference tracing.

The paper's prototype snoops the DIMM bus with HMTT and DMA-writes the
trace into a reserved DRAM area on a second socket (Section V, Figure 8).
Here the tracer is a tap on the simulated memory controller that produces
the same record stream: 8-bit sequence number, 8-bit timestamp, 1-bit
read/write flag, physical address.

The 8-bit fields wrap, exactly like the hardware's; consumers that need
monotonic time use the ``timestamp_us`` kept alongside each record by the
ring buffer (the receiving card in the prototype plays the same role by
pacing DMA writes).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterable, Iterator, List, Optional

from repro.common.types import TraceRecord
from repro.memsim.controller import MemoryController


class TraceRing:
    """The reserved-DRAM ring buffer HMTT DMA-writes records into.

    ``capacity`` bounds the ring like the real reserved area; on overflow
    the oldest records are dropped and counted, modelling trace loss when
    the software consumer falls behind.
    """

    def __init__(self, capacity: int = 1 << 20) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._ring: Deque[TraceRecord] = deque()
        self._times: Deque[float] = deque()
        self.dropped = 0
        self.produced = 0

    def push(self, record: TraceRecord, timestamp_us: float) -> None:
        if len(self._ring) >= self.capacity:
            self._ring.popleft()
            self._times.popleft()
            self.dropped += 1
        self._ring.append(record)
        self._times.append(timestamp_us)
        self.produced += 1

    def drain(self, limit: Optional[int] = None) -> List[TraceRecord]:
        """Consume up to ``limit`` records (all when None), oldest first."""
        out: List[TraceRecord] = []
        while self._ring and (limit is None or len(out) < limit):
            out.append(self._ring.popleft())
            self._times.popleft()
        return out

    def __len__(self) -> int:
        return len(self._ring)


class HmttTracer:
    """Taps a :class:`MemoryController` and emits HMTT-format records.

    ``sink`` (if given) receives every record immediately — this is how
    the software HPD of the prototype consumes the stream; otherwise
    records accumulate in the ring for offline study, which is how the
    paper captured the traces behind Table II / Figures 2-3.
    """

    SEQ_BITS = 8
    TS_BITS = 8

    def __init__(
        self,
        ring: Optional[TraceRing] = None,
        sink: Optional[Callable[[TraceRecord, float], None]] = None,
        reads_only: bool = False,
    ) -> None:
        self.ring = ring if ring is not None else TraceRing()
        self.sink = sink
        self.reads_only = reads_only
        self._seq = 0

    def attach(self, controller: MemoryController) -> None:
        controller.add_tap(self.on_access)

    def on_access(self, timestamp_us: float, paddr: int, is_write: bool) -> None:
        if self.reads_only and is_write:
            return
        record = TraceRecord(
            seq=self._seq & ((1 << self.SEQ_BITS) - 1),
            timestamp=int(timestamp_us) & ((1 << self.TS_BITS) - 1),
            is_write=is_write,
            paddr=paddr,
        )
        self._seq += 1
        self.ring.push(record, timestamp_us)
        if self.sink is not None:
            self.sink(record, timestamp_us)


def replay(records: Iterable[TraceRecord]) -> Iterator[int]:
    """Yield the PPN sequence of an offline trace (analysis helper)."""
    for record in records:
        yield record.ppn
