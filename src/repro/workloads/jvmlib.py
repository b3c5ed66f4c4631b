"""JVM/Spark memory-behaviour helpers.

Section VI-B explains why Spark workloads prefetch worse: the JVM
manages memory differently — Spark splits work into stages, each stage
writes to a *different* memory area, so streams are many and short, and
garbage collection adds its own passes.  These helpers reproduce that:

* :func:`make_segments`   — scatter an allocation into non-adjacent
  segments (RDD partitions / TLAB regions);
* :func:`segmented_scan`  — stream the segments in order; every segment
  boundary breaks the stream, so "the repetitive patterns might stop
  before HoPP finishes identifying them";
* :func:`gc_pass`         — a fast stride-1 sweep over the live heap
  (mark phase), touching everything briefly.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Sequence, Tuple

from repro.workloads import traclib
from repro.workloads.base import Visit

#: A heap segment: (start_vpn, npages).
Segment = Tuple[int, int]


def make_segments(
    base_vpn: int,
    total_pages: int,
    segment_pages: int,
    rng: random.Random,
    gap_pages: int = 64,
) -> List[Segment]:
    """Split ``total_pages`` into segments separated by irregular gaps.

    Gaps exceed the STT's Delta_stream (64 pages) so each segment trains
    as its own stream.
    """
    segments: List[Segment] = []
    cursor = base_vpn
    remaining = total_pages
    while remaining > 0:
        size = min(segment_pages, remaining)
        segments.append((cursor, size))
        cursor += size + gap_pages + rng.randrange(gap_pages)
        remaining -= size
    return segments


def segmented_scan(
    pid: int,
    segments: Sequence[Segment],
    blocks_per_page: int = 8,
    parallelism: int = 1,
    rng: random.Random = None,
) -> Iterator[Visit]:
    """Stream the segments (one short stream each).

    ``parallelism`` > 1 interleaves that many concurrent segment scans —
    Spark executors run one task per core, so partitions stream
    concurrently.  Interleaved eviction orders are what break Fastswap's
    swap-offset read-ahead while HoPP's pages clustering is unaffected.
    """
    if parallelism <= 1:
        for start, npages in segments:
            yield from traclib.scan(
                pid, start, npages, blocks_per_page=blocks_per_page
            )
        return
    if rng is None:
        rng = random.Random(0)
    pending = list(segments)
    while pending:
        batch = pending[:parallelism]
        del pending[:parallelism]
        scans = [
            traclib.scan(pid, start, npages, blocks_per_page=blocks_per_page)
            for start, npages in batch
        ]
        yield from traclib.interleave(
            scans, rng, chunk_pages=3, blocks_per_page=blocks_per_page
        )


def gc_pass(
    pid: int,
    segments: Sequence[Segment],
    blocks_per_page: int = 8,
) -> Iterator[Visit]:
    """A mark-phase sweep over the live heap.

    Object headers are dense on JVM heap pages, so a mark pass touches
    most cachelines of every live page — enough for the HPD threshold.
    """
    for start, npages in segments:
        yield from traclib.scan(pid, start, npages, blocks_per_page=blocks_per_page)


def total_pages(segments: Sequence[Segment]) -> int:
    return sum(npages for _, npages in segments)


def span(segments: Sequence[Segment]) -> Tuple[int, int]:
    """(start_vpn, npages) of the VMA covering all segments."""
    start = min(s for s, _ in segments)
    end = max(s + n for s, n in segments)
    return start, end - start
