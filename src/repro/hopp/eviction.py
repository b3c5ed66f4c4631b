"""Stream-aware eviction advice — the second Section IV extension.

"Besides prefetching, the software can serve other purposes with full
memory traces, e.g., improving kernel page eviction."

LRU is scan-hostile: a long stream floods the recency list and pushes
out medium-reuse pages that are actually coming back.  The full trace
tells HoPP exactly which resident pages are *stream-behind* — already
passed by an identified stream's head — and those are dead until the
next pass.  :class:`StreamAwareEvictionAdvisor` collects them as
preferred reclaim victims; the machine's reclaim drains the advisor
before falling back to plain LRU, making reclaim scan-resistant.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Tuple

PageKey = Tuple[int, int]


class StreamAwareEvictionAdvisor:
    """Tracks stream-behind pages as preferred eviction victims.

    ``protect_pages`` — pages immediately behind the head stay
    protected (out-of-order consumers like ripples revisit them).
    ``capacity`` — bound on remembered victims (oldest dropped first;
    if the hint set overflows, plain LRU covers the rest anyway).
    """

    def __init__(self, protect_pages: int = 64, capacity: int = 1 << 16) -> None:
        if protect_pages < 0:
            raise ValueError("protect_pages must be >= 0")
        self.protect_pages = protect_pages
        self.capacity = capacity
        self._victims: "OrderedDict[PageKey, None]" = OrderedDict()
        self.hints_used = 0

    def on_stream_step(self, pid: int, vpn: int, stride: int) -> None:
        """The trained stream at (pid, vpn) advanced with ``stride``:
        the page ``protect_pages`` behind the head is now dead."""
        direction = 1 if stride >= 0 else -1
        behind = vpn - direction * self.protect_pages
        if behind < 0:
            return
        key = (pid, behind)
        if key in self._victims:
            return
        if len(self._victims) >= self.capacity:
            self._victims.popitem(last=False)
        self._victims[key] = None

    def cancel(self, pid: int, vpn: int) -> None:
        """The page was touched again: it is not dead after all."""
        self._victims.pop((pid, vpn), None)

    def take_victims(
        self,
        count: int,
        is_evictable: Callable[[int, int], bool],
    ) -> List[PageKey]:
        """Up to ``count`` hinted victims that are still resident.

        Stale hints (pages already evicted or re-faulted) are discarded
        as they are encountered.
        """
        out: List[PageKey] = []
        while self._victims and len(out) < count:
            key, _ = self._victims.popitem(last=False)
            if is_evictable(*key):
                out.append(key)
                self.hints_used += 1
        return out

    def __len__(self) -> int:
        return len(self._victims)
