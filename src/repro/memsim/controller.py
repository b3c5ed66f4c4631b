"""Memory-controller model with HoPP's trace tap.

The MC receives LLC misses as cacheline-granular physical accesses.  HoPP
adds two modules here (Figure 4): hot page detection and the RPT cache;
this class owns the tap point and channel bookkeeping, while the modules
themselves live in :mod:`repro.hopp.hpd` and :mod:`repro.hopp.rpt` so they
can also be exercised standalone.
"""

from __future__ import annotations

from typing import Callable, List

from repro.common.constants import BLOCK_SIZE, PAGE_SHIFT

#: Tap callback signature: (timestamp_us, paddr, is_write) -> None.
TapFn = Callable[[float, int, bool], None]


class MemoryController:
    """Tracks MC-visible traffic and fans it out to registered taps.

    ``channels`` models channel interleaving (Section III-B, "impact of
    multiple memory channels"): with interleaving, consecutive cachelines
    of one page land on different controllers, which is why the HPD
    threshold must drop proportionally.  ``channel_of`` exposes the
    mapping used by tests.
    """

    def __init__(self, channels: int = 1, interleaved: bool = True) -> None:
        if channels < 1:
            raise ValueError("channels must be >= 1")
        self.channels = channels
        self.interleaved = interleaved
        self._taps: List[TapFn] = []
        self.reads = 0
        self.writes = 0
        self.bytes_transferred = 0

    def add_tap(self, tap: TapFn) -> None:
        self._taps.append(tap)

    def channel_of(self, paddr: int) -> int:
        """Channel servicing ``paddr``.

        Interleaved: consecutive cachelines round-robin across channels.
        Non-interleaved: whole pages map to one channel.
        """
        if self.channels == 1:
            return 0
        if self.interleaved:
            return (paddr // BLOCK_SIZE) % self.channels
        return (paddr >> PAGE_SHIFT) % self.channels

    def access(self, timestamp_us: float, paddr: int, is_write: bool = False) -> int:
        """Record one LLC-miss access; returns the servicing channel."""
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.bytes_transferred += BLOCK_SIZE
        for tap in self._taps:
            tap(timestamp_us, paddr, is_write)
        if self.channels == 1:
            return 0
        return self.channel_of(paddr)

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    def reset_stats(self) -> None:
        self.reads = 0
        self.writes = 0
        self.bytes_transferred = 0
