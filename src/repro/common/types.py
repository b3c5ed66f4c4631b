"""Core value types passed between subsystems.

Hot simulation loops use plain integers and tuples internally; these
dataclasses define the public-facing records at module boundaries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

from repro.common.constants import PAGE_SHIFT


class PageKind(enum.IntEnum):
    """Page size class carried in the reverse page table (Figure 6)."""

    BASE_4K = 0
    HUGE_2M = 1
    HUGE_1G = 2


class StreamObservation:
    """What the Stream Training Table hands to the tier algorithms.

    ``vpn_history`` holds the last L VPNs of the stream (oldest first) and
    ``stride_history`` the corresponding L-1 strides, exactly the inputs of
    Algorithms 1 and 2 in the paper.

    An observation from :meth:`StreamTrainingTable.feed` is its stream's
    STT entry itself, a *live view*: the table keeps one object per
    stream.  Every feed that matches the stream sets ``stamp`` from the
    table's recency clock, and every one that extends it moves ``vpn``
    to the stream's newest VPN; a feed that completes the stream's
    history also refreshes ``stride`` and ``timestamp_us`` and hands
    the object out.  ``vpns`` and ``strides`` are the stream's own
    history windows and ``stride_counts`` its incrementally maintained
    non-zero-stride histogram, so the whole view is valid until that
    stream's next hot page.  The tuple histories are copied out of the
    windows on first access after a refresh only, so the SSP path,
    which needs just the histogram and the newest VPN, copies nothing.
    Call :meth:`detach` for a snapshot that outlives the stream's next
    hot page.  ``stride_counts`` None means "not provided": consumers
    recount from the strides.
    """

    __slots__ = (
        "pid",
        "vpn",
        "stride",
        "vpns",
        "strides",
        "stream_id",
        "timestamp_us",
        "stride_counts",
        "stamp",
        "_vpn_history",
        "_stride_history",
    )

    def __init__(
        self,
        pid: int,
        vpn: int,
        stride: int,
        vpn_history: Sequence[int],
        stride_history: Sequence[int],
        stream_id: int,
        timestamp_us: float = 0.0,
        stride_counts: Optional[dict] = None,
    ) -> None:
        self.pid = pid
        self.vpn = vpn
        self.stride = stride
        self.vpns = vpn_history
        self.strides = stride_history
        self.stream_id = stream_id
        self.timestamp_us = timestamp_us
        self.stride_counts = stride_counts
        #: The STT's recency stamp (larger = more recently used); 0 for
        #: an observation outside the table, a detached one included.
        self.stamp = 0
        self._vpn_history: Optional[Tuple[int, ...]] = None
        self._stride_history: Optional[Tuple[int, ...]] = None

    @property
    def vpn_history(self) -> Tuple[int, ...]:
        history = self._vpn_history
        if history is None:
            history = self._vpn_history = tuple(self.vpns)
        return history

    @property
    def stride_history(self) -> Tuple[int, ...]:
        history = self._stride_history
        if history is None:
            history = self._stride_history = tuple(self.strides)
        return history

    def detach(self) -> "StreamObservation":
        """An independent snapshot of this observation: equal fields,
        tuple histories and its own copy of the histogram, unaffected
        by the stream's later hot pages."""
        counts = self.stride_counts
        return StreamObservation(
            self.pid,
            self.vpn,
            self.stride,
            self.vpn_history,
            self.stride_history,
            self.stream_id,
            self.timestamp_us,
            None if counts is None else dict(counts),
        )

    def __repr__(self) -> str:
        return (
            f"StreamObservation(pid={self.pid}, vpn={self.vpn}, "
            f"stride={self.stride}, vpn_history={tuple(self.vpns)}, "
            f"stride_history={tuple(self.strides)}, "
            f"stream_id={self.stream_id}, timestamp_us={self.timestamp_us})"
        )


#: Raw output of one tier algorithm, before the policy engine applies the
#: prefetch offset and intensity knobs: ``(tier, base_vpn,
#: per_offset_stride, fixed_delta)``, a plain tuple so a decision costs
#: no object of its own.  The target VPN for offset ``i`` is
#: ``base_vpn + stride_target + i * pattern_stride`` for LSP, and
#: ``base_vpn + i * stride_target`` for SSP/RSP, matching the send steps
#: of Algorithms 1 and 2: ``per_offset_stride`` is multiplied by the
#: offset, ``fixed_delta`` is added once regardless of offset.
Decision = Tuple[str, int, int, int]


def target_vpn(decision: Decision, offset: int) -> int:
    """``decision``'s target VPN at prefetch offset ``offset``."""
    _, base_vpn, per_offset_stride, fixed_delta = decision
    return base_vpn + fixed_delta + offset * per_offset_stride


@dataclass(frozen=True)
class TraceRecord:
    """HMTT-format trace record (Section V): 8-bit sequence number, 8-bit
    timestamp, 1-bit read/write flag, and the physical address."""

    seq: int
    timestamp: int
    is_write: bool
    paddr: int

    @property
    def ppn(self) -> int:
        return self.paddr >> PAGE_SHIFT


class RptEntry(NamedTuple):
    """Reverse-page-table entry (Figure 6): PPN -> PID + VPN + flags.

    The page tables write entries as plain ``(pid, vpn, shared, kind)``
    tuples, which compare equal to an ``RptEntry`` of the same fields
    and cost half as much to build; this class names the layout.
    """

    pid: int
    vpn: int
    shared: bool = False
    kind: PageKind = PageKind.BASE_4K


@dataclass
class FaultBreakdown:
    """Per-category microsecond totals accumulated by the fault path."""

    dram_hit_us: float = 0.0
    prefetch_hit_us: float = 0.0
    remote_fault_us: float = 0.0
    inflight_wait_us: float = 0.0
    reclaim_us: float = 0.0

    @property
    def total_us(self) -> float:
        return (
            self.dram_hit_us
            + self.prefetch_hit_us
            + self.remote_fault_us
            + self.inflight_wait_us
            + self.reclaim_us
        )


@dataclass
class VmaRegion:
    """A virtual memory area: [start_vpn, end_vpn) with a name for debug."""

    start_vpn: int
    end_vpn: int
    name: str = ""
    pid: int = 0

    def __contains__(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.end_vpn

    @property
    def npages(self) -> int:
        return self.end_vpn - self.start_vpn
