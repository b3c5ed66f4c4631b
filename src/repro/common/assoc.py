"""Set-associative table with LRU replacement.

This is the shared hardware primitive behind the LLC model and the HPD
table (Section III-B).  Each set is an ordered
dict from tag to payload; ordering encodes recency (last item = most
recently used), which keeps every operation O(1).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

V = TypeVar("V")

#: Internal miss sentinel: lets ``lookup`` run a single dict probe
#: instead of a containment check plus two keyed reads.
_MISS = object()


class SetAssociativeTable(Generic[V]):
    """An ``nsets`` x ``nways`` LRU table keyed by an integer.

    The set index is ``key % nsets``, matching the paper's HPD table
    which uses the lowest bits of the PPN as the set index.
    """

    def __init__(self, nsets: int, nways: int) -> None:
        if nsets < 1 or nways < 1:
            raise ValueError("nsets and nways must both be >= 1")
        self.nsets = nsets
        self.nways = nways
        self._sets: List["OrderedDict[int, V]"] = [OrderedDict() for _ in range(nsets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- core operations ----------------------------------------------------

    def lookup(self, key: int) -> Optional[V]:
        """Return the payload for ``key`` or None, updating hit/miss stats.

        A hit also refreshes the entry's recency.
        """
        target = self._sets[key % self.nsets]
        value = target.get(key, _MISS)
        if value is not _MISS:
            self.hits += 1
            target.move_to_end(key)
            return value
        self.misses += 1
        return None

    def peek(self, key: int) -> Optional[V]:
        """Lookup without disturbing recency or statistics."""
        return self._sets[key % self.nsets].get(key)

    def insert(self, key: int, value: V) -> Optional[Tuple[int, V]]:
        """Insert (or overwrite) ``key`` as most-recently-used.

        Returns the evicted ``(key, value)`` pair if the set overflowed,
        else None.
        """
        target = self._sets[key % self.nsets]
        if key in target:
            target[key] = value
            target.move_to_end(key)
            return None
        victim = None
        if len(target) >= self.nways:
            victim = target.popitem(last=False)
            self.evictions += 1
        target[key] = value
        return victim

    def remove(self, key: int) -> Optional[V]:
        return self._sets[key % self.nsets].pop(key, None)

    def touch(self, key: int) -> bool:
        """Refresh recency of ``key``; returns whether it was present."""
        target = self._sets[key % self.nsets]
        if key in target:
            target.move_to_end(key)
            return True
        return False

    # -- introspection -------------------------------------------------------

    def __contains__(self, key: int) -> bool:
        return key in self._sets[key % self.nsets]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def __iter__(self) -> Iterator[Tuple[int, V]]:
        for target in self._sets:
            yield from target.items()

    @property
    def capacity(self) -> int:
        return self.nsets * self.nways

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def clear(self) -> None:
        for target in self._sets:
            target.clear()
        self.reset_stats()
