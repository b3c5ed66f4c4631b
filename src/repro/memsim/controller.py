"""Memory-controller model with HoPP's trace tap.

The MC receives LLC misses as cacheline-granular physical accesses.  HoPP
adds two modules here (Figure 4): hot page detection and the RPT cache;
this class owns the tap point, while the modules themselves live in
:mod:`repro.hopp.hpd` and :mod:`repro.hopp.rpt` so they can also be
exercised standalone.  Channel interleaving is modelled by
:class:`repro.hopp.hpd.MultiChannelHpd`.
"""

from __future__ import annotations

from typing import Callable, List

from repro.common.constants import BLOCK_SIZE

#: Tap callback signature: (timestamp_us, paddr, is_write) -> None.
TapFn = Callable[[float, int, bool], None]


class MemoryController:
    """Tracks MC-visible traffic and fans it out to registered taps."""

    def __init__(self) -> None:
        self._taps: List[TapFn] = []
        self.reads = 0
        self.writes = 0
        self.bytes_transferred = 0

    def add_tap(self, tap: TapFn) -> None:
        self._taps.append(tap)

    def access(self, timestamp_us: float, paddr: int, is_write: bool = False) -> None:
        """Record one LLC-miss access."""
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.bytes_transferred += BLOCK_SIZE
        for tap in self._taps:
            tap(timestamp_us, paddr, is_write)

    @property
    def accesses(self) -> int:
        return self.reads + self.writes
