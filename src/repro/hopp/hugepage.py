"""Huge-page batch prefetching — the Section IV extension.

Kernel-based paging swaps 4 KB pages; swapping a 2 MB page takes >1 ms
on the critical path, so remote huge pages are undesirable.  Section IV
sketches HoPP's alternative: *"when HoPP detects the page stream is
long enough, it can choose to swap 512 consecutive future pages with
one prefetch request to the reserved 2 MB space."*

:class:`HugePageBatcher` implements that: it watches SSP decisions per
stream, and once a stream has sustained a unit stride long enough, it
emits one aligned 512-page batch request ahead of the stream instead of
dribbling single-page prefetches.  The batch rides a single RDMA
request (one propagation delay, back-to-back page service), and every
page's PTE is injected on arrival.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol

#: Pages per 2 MB huge-page region.
HUGE_BATCH_PAGES = 512


class BatchBackend(Protocol):
    def prefetch_batch(
        self, pid: int, start_vpn: int, npages: int, now_us: float,
        inject_pte: bool, tier: str,
    ) -> Optional[float]:
        ...


@dataclass
class StreamProgress:
    consecutive_unit: int = 0
    last_vpn: int = -1
    #: Aligned region base the stream last attempted batches from; a
    #: fresh attempt happens once per region the stream head enters.
    attempted_from: Optional[int] = None
    #: Whether the last attempt actually put a batch in flight.
    covered: bool = False


class HugePageBatcher:
    """Decides when a stream graduates to 2 MB batch prefetching.

    ``stream_len`` — consecutive unit-stride SSP decisions a stream must
    sustain before batching starts (the "long enough" test).
    ``batch_pages`` — pages per request, aligned to its own size (the
    reserved huge-page space is 2 MB-aligned).
    """

    TIER = "huge"

    def __init__(
        self,
        backend: BatchBackend,
        stream_len: int = 128,
        batch_pages: int = HUGE_BATCH_PAGES,
    ) -> None:
        if stream_len < 1:
            raise ValueError("stream_len must be >= 1")
        if batch_pages < 1:
            raise ValueError("batch_pages must be >= 1")
        self.backend = backend
        self.stream_len = stream_len
        self.batch_pages = batch_pages
        self._progress: Dict[int, StreamProgress] = {}
        self.batches_issued = 0

    def observe(
        self, stream_id: int, pid: int, vpn: int, stride: int, now_us: float
    ) -> bool:
        """Feed one trained stream step; returns True when this step was
        absorbed by batch prefetching (single-page prefetch skipped)."""
        progress = self._progress.get(stream_id)
        if progress is None:
            progress = StreamProgress()
            self._progress[stream_id] = progress
        if abs(stride) == 1 and (
            progress.last_vpn < 0 or abs(vpn - progress.last_vpn) <= 2
        ):
            progress.consecutive_unit += 1
        else:
            progress.consecutive_unit = 0
        progress.last_vpn = vpn
        if progress.consecutive_unit < self.stream_len:
            return False
        direction = 1 if stride >= 0 else -1
        return self._issue_ahead(progress, pid, vpn, direction, now_us)

    def _issue_ahead(
        self,
        progress: StreamProgress,
        pid: int,
        vpn: int,
        direction: int,
        now_us: float,
    ) -> bool:
        """Request the region the stream head is in and the next aligned
        region ahead, once per region the head enters.  Returns True
        when the space ahead is covered by an in-flight or already-local
        batch — only then may the single-page path be skipped."""
        current_region = (vpn // self.batch_pages) * self.batch_pages
        if progress.attempted_from == current_region:
            return progress.covered
        progress.attempted_from = current_region
        any_issued = False
        # Step 0 covers the remainder of the region the head is in (the
        # stream graduates mid-region); pages already local are filtered
        # out by the backend.
        for step in (0, 1):
            start = current_region + direction * step * self.batch_pages
            if start < 0:
                continue
            arrival = self.backend.prefetch_batch(
                pid, start, self.batch_pages, now_us,
                inject_pte=True, tier=self.TIER,
            )
            if arrival is not None:
                any_issued = True
                self.batches_issued += 1
        progress.covered = any_issued
        return any_issued

    def forget_stream(self, stream_id: int) -> None:
        self._progress.pop(stream_id, None)
