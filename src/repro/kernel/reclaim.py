"""Page reclaim: per-cgroup LRU lists and batch eviction.

Models the post-Linux-v5.8 behaviour the paper assumes (Section II-A):
reclaim runs ahead of the fault path in batches, so its 2-5 us/page cost
is mostly off the critical path.  New/faulted pages enter at the MRU end —
which is exactly why inaccurately prefetched pages with injected PTEs are
"more difficult to evict" (Section II-C): they sit in front of genuinely
useful pages.

The batch :meth:`Reclaimer.plan` picks is also the simulator's unit of
eviction: it crosses each layer once.  ``Machine._evict`` takes the
whole batch off the LRU in one pass (unmapping, swapcache drops, frame
frees, cgroup uncharges), the writebacks get consecutive swap slots
from one ``SwapSpace.allocate`` call, the cluster places and stores
them in one ``assign`` call, and each node's link posts its share with
one ``RdmaFabric.write_page(now_us, npages)`` call.  Every result is
the same as evicting page by page.  A victim is written back before the
next is touched only where a writeback's side effects reach later
victims (``RemoteBackend.batches_writebacks`` is false): with a fault
injector armed (retries, abandonment under ``absorb_fatal_faults``) and
with the CXL tier armed (tier accounting and its migration pump).  A
swapcache page whose remote copy is lost or poisoned, which only a
fault plan brings about, is so written back on its own too.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Iterable, Iterator, List, Tuple

from repro.common.constants import T_RECLAIM_PER_PAGE_US

#: A page identity on the LRU lists.
PageKey = Tuple[int, int]  # (pid, vpn)


class LruPageList:
    """Recency-ordered resident pages for one cgroup.

    The left end is least-recently-used; ``insert`` places pages at the
    MRU (right) end like Linux's lru_cache_add, ``touch`` refreshes.
    The lists hold exactly the PRESENT and SWAPCACHE pages (sanitizer
    check 7), so no method tests membership but ``demote``: ``insert``
    adds an unlisted page, and ``touch``, ``touch_each`` and ``remove``
    name a listed one.
    """

    def __init__(self) -> None:
        self._pages: "OrderedDict[PageKey, None]" = OrderedDict()

    def insert(self, pid: int, vpn: int) -> None:
        self._pages[(pid, vpn)] = None

    def touch(self, pid: int, vpn: int) -> None:
        self._pages.move_to_end((pid, vpn))

    def touch_each(self, pid: int, vpns: Iterable[int]) -> None:
        """``touch(pid, vpn)`` for every vpn in order, as one C-level
        pass; every page must be on the list."""
        deque(map(self._pages.move_to_end, zip(repeat(pid), vpns)), maxlen=0)

    def remove(self, keys: Iterable[PageKey]) -> None:
        """Drop every page in ``keys``; each must be on the list."""
        pages = self._pages
        for key in keys:
            del pages[key]

    def demote(self, pid: int, vpn: int) -> bool:
        """Move a page to the LRU (coldest) end — the 'eager eviction'
        hint Leap applies to already-consumed prefetch pages."""
        key = (pid, vpn)
        if key in self._pages:
            self._pages.move_to_end(key, last=False)
            return True
        return False

    def victims(self, count: int) -> List[PageKey]:
        """Up to ``count`` LRU-end pages, coldest first (non-destructive)."""
        return list(islice(self._pages, count))

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, key: PageKey) -> bool:
        return key in self._pages

    def __iter__(self) -> Iterator[PageKey]:
        return iter(self._pages)


@dataclass
class ReclaimStats:
    batches: int = 0
    clean_drops: int = 0
    writebacks: int = 0
    background_us: float = 0.0

    @property
    def pages_reclaimed(self) -> int:
        return self.clean_drops + self.writebacks


class Reclaimer:
    """Batch reclaim policy.

    ``watermark_slack`` pages of headroom are restored per pass so reclaim
    runs in bursts (like kswapd between low/high watermarks) instead of
    one page at a time.
    """

    def __init__(self, watermark_slack: int = 16) -> None:
        self.watermark_slack = watermark_slack
        self.stats = ReclaimStats()

    def plan(self, lru: LruPageList, resident: int, limit: int) -> List[PageKey]:
        """Choose victims so that ``resident`` drops to
        ``limit - watermark_slack`` (bounded by what's on the list)."""
        if resident <= limit:
            return []
        goal = resident - max(limit - self.watermark_slack, 0)
        goal = max(goal, 0)
        victims = lru.victims(min(goal, len(lru)))
        if victims:
            self.stats.batches += 1
        return victims

    def account(self, npages: int, clean: int) -> float:
        """Record a completed batch; returns its background CPU time."""
        self.stats.clean_drops += clean
        self.stats.writebacks += npages - clean
        cost = npages * T_RECLAIM_PER_PAGE_US
        self.stats.background_us += cost
        return cost
