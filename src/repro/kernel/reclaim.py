"""Page reclaim: per-cgroup LRU lists and batch eviction.

Models the post-Linux-v5.8 behaviour the paper assumes (Section II-A):
reclaim runs ahead of the fault path in batches, so its 2-5 us/page cost
is mostly off the critical path.  New/faulted pages enter at the MRU end —
which is exactly why inaccurately prefetched pages with injected PTEs are
"more difficult to evict" (Section II-C): they sit in front of genuinely
useful pages.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, List, Tuple

from repro.common.constants import T_RECLAIM_PER_PAGE_US

#: A page identity on the LRU lists.
PageKey = Tuple[int, int]  # (pid, vpn)


class LruPageList:
    """Recency-ordered resident pages for one cgroup.

    The left end is least-recently-used; ``insert`` places pages at the
    MRU (right) end like Linux's lru_cache_add, ``touch`` refreshes.
    """

    def __init__(self) -> None:
        self._pages: "OrderedDict[PageKey, None]" = OrderedDict()

    def insert(self, pid: int, vpn: int) -> None:
        key = (pid, vpn)
        if key in self._pages:
            self._pages.move_to_end(key)
        else:
            self._pages[key] = None

    def touch(self, pid: int, vpn: int) -> bool:
        key = (pid, vpn)
        if key in self._pages:
            self._pages.move_to_end(key)
            return True
        return False

    def touch_each(self, pid: int, vpns: Iterable[int]) -> None:
        """``touch(pid, vpn)`` for every vpn in order, as one C-level pass."""
        pages = self._pages
        keys = filter(pages.__contains__, zip(repeat(pid), vpns))
        deque(map(pages.move_to_end, keys), maxlen=0)

    def remove(self, pid: int, vpn: int) -> bool:
        key = (pid, vpn)
        if key in self._pages:
            del self._pages[key]
            return True
        return False

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
        out: List[PageKey] = []
        for key in self._pages:
            if len(out) >= count:
                break
            out.append(key)
        return out

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, key: PageKey) -> bool:
        return key in self._pages

    def __iter__(self) -> Iterator[PageKey]:
        return iter(self._pages)


@dataclass
class ReclaimStats:
    batches: int = 0
    pages_reclaimed: int = 0
    clean_drops: int = 0
    writebacks: int = 0
    background_us: float = 0.0


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
        self.stats.pages_reclaimed += npages
        self.stats.clean_drops += clean
        self.stats.writebacks += npages - clean
        cost = npages * T_RECLAIM_PER_PAGE_US
        self.stats.background_us += cost
        return cost
