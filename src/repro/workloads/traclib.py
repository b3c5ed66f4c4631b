"""Trace-generation building blocks.

Every generator yields *page visits*, not accesses.  A visit is the key
``(pid, vpn, first_block, end_block)``: the cacheline READs of blocks
``first_block .. end_block - 1`` of one page, in order.  A whole visit
touches ``blocks_per_page`` consecutive cachelines, which is what makes
the page cross the HPD's hot threshold (N=8 by default).

:func:`accesses` expands visits into the ``(pid, virtual_byte_address)``
stream a trace consumer sees.  Its table builds each distinct visit's
accesses once, on first use, so the per-access work runs in C and a
revisited page reuses its tuples.

The three stream shapes of Section II-B map to:

* :func:`scan`            — simple streams (fixed page stride);
* :func:`ladder`          — ladder streams (tread across substreams with
                            non-uniform spacing, then a rise);
* :func:`ripple`          — stride-1 streams distorted by bounded
                            out-of-order hops (Figure 3).
"""

from __future__ import annotations

import random
from itertools import chain, count, islice, repeat
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.common.constants import BLOCK_SHIFT, BLOCK_SIZE, BLOCKS_PER_PAGE, PAGE_SHIFT

#: One trace item: (pid, virtual byte address).
Access = Tuple[int, int]
#: One page visit: (pid, vpn, first_block, end_block).
Visit = Tuple[int, int, int, int]


class _VisitTable(dict):
    """Visit -> its tuple of accesses, built on the visit's first use."""

    def __missing__(self, visit: Visit) -> Tuple[Access, ...]:
        pid, vpn, first, end = visit
        base = vpn << PAGE_SHIFT
        vaddrs = range(
            base + (first << BLOCK_SHIFT), base + (end << BLOCK_SHIFT), BLOCK_SIZE
        )
        built = self[visit] = tuple(zip(repeat(pid), vaddrs))
        return built


def accesses(visits: Iterable[Visit]) -> Iterator[Access]:
    """The ``(pid, vaddr)`` cacheline READs of ``visits``, lazily.  The
    table behind them belongs to this one call."""
    return chain.from_iterable(map(_VisitTable().__getitem__, visits))


def _blocks(blocks_per_page: int) -> int:
    return min(max(blocks_per_page, 0), BLOCKS_PER_PAGE)


def visit_page(pid: int, vpn: int, blocks_per_page: int = 8) -> Visit:
    """The visit that touches ``blocks_per_page`` consecutive cachelines
    of one page (streaming reads touch lines in order, which also
    spreads them round-robin across interleaved memory channels)."""
    return pid, vpn, 0, _blocks(blocks_per_page)


def scan(
    pid: int,
    start_vpn: int,
    npages: int,
    stride: int = 1,
    blocks_per_page: int = 8,
) -> Iterator[Visit]:
    """A simple stream: ``npages`` page visits with a fixed page stride.

    ``stride`` may be negative (a descending scan, e.g. quicksort's
    right-to-left partition pointer).
    """
    return zip(
        repeat(pid),
        islice(count(start_vpn, stride), max(npages, 0)),
        repeat(0),
        repeat(_blocks(blocks_per_page)),
    )


def ladder(
    pid: int,
    base_vpn: int,
    substream_offsets: Sequence[int],
    steps: int,
    rise: int = 1,
    blocks_per_page: int = 8,
) -> Iterator[Visit]:
    """A ladder stream (Figure 2).

    Each *tread* visits page ``base + offset + j*rise`` for every
    substream offset in order; then ``j`` advances — the *rise*.  With
    non-uniformly spaced offsets no single stride dominates, so SSP
    fails and the repetitive stride pattern is LSP's to find.
    """
    end = _blocks(blocks_per_page)
    for j in range(steps):
        for offset in substream_offsets:
            yield pid, base_vpn + offset + j * rise, 0, end


def ripple(
    pid: int,
    start_vpn: int,
    npages: int,
    rng: random.Random,
    swap_probability: float = 0.35,
    hop_probability: float = 0.06,
    hop_distance: int = 12,
    blocks_per_page: int = 8,
    shuffle_window: int = 2,
) -> Iterator[Visit]:
    """A ripple stream (Figure 3): net stride 1, locally out of order.

    Adjacent page visits swap with ``swap_probability`` — the paper's
    RSP tolerates "2 out-of-order accesses, which happens most of the
    time" (max_stride = 2).  With ``hop_probability`` an access briefly
    hops to a page ``hop_distance`` away (a neighboring stream) before
    returning — the across-stream distortion of Figure 3.

    ``shuffle_window`` > 2 widens the local reordering beyond adjacent
    swaps (used to stress RSP's tolerance limit in tests).
    """
    order: List[int] = list(range(start_vpn, start_vpn + npages))
    if shuffle_window <= 2:
        i = 0
        while i < npages - 1:
            if rng.random() < swap_probability:
                order[i], order[i + 1] = order[i + 1], order[i]
                i += 2
            else:
                i += 1
    else:
        for i in range(0, npages - shuffle_window, shuffle_window):
            window = order[i : i + shuffle_window]
            rng.shuffle(window)
            order[i : i + shuffle_window] = window
    end = _blocks(blocks_per_page)
    for vpn in order:
        if rng.random() < hop_probability:
            yield pid, vpn + hop_distance, 0, end
        yield pid, vpn, 0, end


def random_gather(
    pid: int,
    start_vpn: int,
    npages: int,
    visits: int,
    rng: random.Random,
    blocks_per_page: int = 8,
    zipf_exponent: float = 0.0,
) -> Iterator[Visit]:
    """Irregular page visits over a region (hash joins, sparse gathers).

    ``zipf_exponent`` > 0 skews visits toward low page numbers, modelling
    hot-vertex behaviour in power-law graphs.
    """
    end = _blocks(blocks_per_page)
    for _ in range(visits):
        if zipf_exponent > 0.0:
            # Inverse-CDF sample of a bounded Zipf-like distribution.
            u = rng.random()
            index = int(npages * u ** (1.0 + zipf_exponent))
            index = min(index, npages - 1)
        else:
            index = rng.randrange(npages)
        yield pid, start_vpn + index, 0, end


def hotspot(
    pid: int,
    start_vpn: int,
    npages: int,
    visits: int,
    rng: random.Random,
    blocks_per_page: int = 4,
) -> Iterator[Visit]:
    """Frequent touches to a small always-hot region (centroids, roots)."""
    return random_gather(pid, start_vpn, npages, visits, rng, blocks_per_page)


def interleave(
    sources: Sequence[Iterator[Visit]],
    rng: random.Random,
    chunk_pages: int = 4,
    blocks_per_page: int = 8,
) -> Iterator[Visit]:
    """Randomly interleave several visit streams in chunks of accesses.

    Models concurrent threads/streams: each turn picks a live source and
    lets it emit ~``chunk_pages`` page visits, counted as
    ``chunk_pages * blocks_per_page`` accesses.  A visit that crosses the
    chunk edge is split there, and its remainder leads that source's next
    turn.  This is what defeats fault-history prefetchers (Figure 1)
    while HoPP's pages clustering still separates the streams.
    """
    # [source, the remainder of a visit split at the last chunk edge]
    live: List[list] = [[source, None] for source in sources]
    chunk = max(chunk_pages * blocks_per_page, 1)
    while live:
        turn = live[rng.randrange(len(live))]
        source, visit = turn
        turn[1] = None
        if visit is None:
            visit = next(source, None)
        left = chunk
        while visit is not None:
            pid, vpn, first, end = visit
            if end - first > left:
                turn[1] = pid, vpn, first + left, end
                yield pid, vpn, first, first + left
                break
            yield visit
            left -= end - first
            if not left:
                break
            visit = next(source, None)
        else:
            live.remove(turn)


def sprinkle(
    source: Iterator[Visit],
    pid: int,
    noise_start_vpn: int,
    noise_npages: int,
    rng: random.Random,
    probability: float = 0.02,
    blocks_per_page: int = 2,
) -> Iterator[Visit]:
    """Inject interference pages (Section II-B, limitation 3): isolated
    accesses that belong to no stream.  The coin is flipped after every
    access, when the next one is asked for, so the source's visits come
    out one block at a time: a consumer that stops mid-visit and draws
    from the same RNG (an interleave around a sprinkle) still sees every
    coin in access order."""
    noise_end = _blocks(blocks_per_page)
    for vpid, vpn, first, end in source:
        for block in range(first, end):
            yield vpid, vpn, block, block + 1
            if rng.random() < probability:
                yield pid, noise_start_vpn + rng.randrange(noise_npages), 0, noise_end
