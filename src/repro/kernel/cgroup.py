"""Cgroup-v2-style memory accounting.

The paper isolates co-running applications with cgroups (Section VI-B) and
notes that HoPP charges prefetched pages to the application's cgroup while
Fastswap and Leap do not (Section I, point 4).  ``charge_prefetch``
reproduces that difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


class CgroupOverLimitError(RuntimeError):
    """Raised by ``charge(strict=True)`` when the limit would be exceeded."""


@dataclass
class MemoryCgroup:
    """Tracks charged pages against a hard limit.

    ``charge_prefetch`` — when False, pages brought in by a prefetcher are
    not charged until the application actually touches them (the
    Fastswap/Leap behaviour the paper calls out).
    """

    name: str
    limit_pages: int
    charge_prefetch: bool = True
    charged: int = 0
    max_charged: int = 0
    prefetch_uncharged: int = 0
    #: Strict charges refused at the limit (each raised a
    #: :class:`CgroupOverLimitError` that the caller absorbed).
    overlimit_rejects: int = 0

    def charge(self, npages: int = 1, prefetch: bool = False, strict: bool = False) -> bool:
        """Account ``npages``; returns True when now over the limit (the
        caller should trigger reclaim).  Uncharged prefetch pages are
        tracked separately so reclaim can still find them."""
        if prefetch and not self.charge_prefetch:
            self.prefetch_uncharged += npages
            return False
        if strict and self.charged + npages > self.limit_pages:
            self.overlimit_rejects += 1
            raise CgroupOverLimitError(
                f"cgroup {self.name}: {self.charged}+{npages} > {self.limit_pages}"
            )
        self.charged += npages
        if self.charged > self.max_charged:
            self.max_charged = self.charged
        return self.charged > self.limit_pages

    def uncharge(self, npages: int = 1, prefetch: bool = False) -> None:
        if prefetch and not self.charge_prefetch:
            self.prefetch_uncharged = max(0, self.prefetch_uncharged - npages)
            return
        if npages > self.charged:
            raise ValueError(
                f"cgroup {self.name}: uncharge {npages} > charged {self.charged}"
            )
        self.charged -= npages

    def promote_prefetch(self, npages: int = 1) -> bool:
        """A prefetched-but-uncharged page was touched: move its
        accounting onto the application."""
        if not self.charge_prefetch:
            self.prefetch_uncharged = max(0, self.prefetch_uncharged - npages)
            return self.charge(npages)
        return False

    @property
    def over_limit(self) -> bool:
        return self.charged > self.limit_pages

    @property
    def headroom(self) -> int:
        return self.limit_pages - self.charged


class CgroupManager:
    """Registry of cgroups, one per co-running application."""

    def __init__(self) -> None:
        self._groups: Dict[str, MemoryCgroup] = {}

    def create(self, name: str, limit_pages: int, charge_prefetch: bool = True) -> MemoryCgroup:
        if name in self._groups:
            raise ValueError(f"cgroup {name} already exists")
        group = MemoryCgroup(name, limit_pages, charge_prefetch)
        self._groups[name] = group
        return group

    def get(self, name: str) -> MemoryCgroup:
        return self._groups[name]

    def __iter__(self):
        return iter(self._groups.values())

    def __len__(self) -> int:
        return len(self._groups)
