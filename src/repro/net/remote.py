"""Remote memory node: the far side of the disaggregated pool.

The paper's memory node is a passive RDMA target (6 x 8 GB DRAM) that
holds pages at swap offsets; here it is the capacity-bounded set of swap
slots it holds.  Which process page a slot carries is known only on the
compute node (:class:`~repro.kernel.swap.SwapSpace`).  Reads of a slot
that was never written raise — a real one-sided RDMA READ of an
unwritten region would return garbage, and in the simulator that is
always a bug.

With a :class:`~repro.net.faults.FaultInjector` armed, reads and writes
inside a remote-restart window raise
:class:`~repro.net.faults.RemoteUnavailableError`, and slot accounting
(`pages_written` / `pages_overwritten` / `pages_released`) is kept so
slot leaks are visible: at any moment

    pages_written == pages_stored + pages_overwritten + pages_released
                     + pages_lost + pages_migrated_out

where ``pages_lost`` counts pages wiped by a permanent node crash
(:meth:`RemoteMemoryNode.crash`) and ``pages_migrated_out`` counts
pages moved to another node by the memory-tier migration engine
(:meth:`RemoteMemoryNode.migrate_out` — exactly 0 unless the node
belongs to a tiered cluster, see :mod:`repro.memtier`).  Those are the
only ways a written page can leave the store without being read back
or released.

A node's memory-tier label belongs to the
:class:`~repro.cluster.cluster.ClusterNode` that holds it.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.integrity.checksum import SlotChecksums
from repro.net.faults import FaultInjector


class RemoteReadError(KeyError):
    """READ of a slot that holds no page."""


class RemoteMemoryNode:
    def __init__(
        self,
        capacity_pages: int,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        if capacity_pages < 1:
            raise ValueError("capacity_pages must be >= 1")
        self.capacity_pages = capacity_pages
        self.injector = injector
        self._slots: Set[int] = set()
        #: Per-slot content checksums (:mod:`repro.integrity`).  Pure
        #: bookkeeping with no injector armed, so the golden path is
        #: untouched; with corruption armed, the injector's coins decide
        #: which stored copies go bad.
        self.checksums = SlotChecksums(injector)
        self.pages_written = 0
        self.pages_read = 0
        self.pages_overwritten = 0
        self.pages_released = 0
        self.pages_lost = 0
        self.pages_migrated_out = 0
        self.crashes = 0

    def write(self, slot: int, now_us: Optional[float] = None) -> None:
        """Store a page at ``slot`` (reclaim writeback)."""
        injector = self.injector
        if injector is not None and now_us is not None:
            injector.check_remote(now_us)
        slots = self._slots
        if slot in slots:
            self.pages_overwritten += 1
        elif len(slots) >= self.capacity_pages:
            raise MemoryError(
                f"remote node full ({self.capacity_pages} pages)"
            )
        slots.add(slot)
        checksums = self.checksums
        # The ledger needs the write only when its injector's coins can
        # make the copy deviant, or to clear the slot's deviant state.
        if checksums.injector is not None or checksums._bad or checksums._strike_us:
            checksums.record_write(slot, now_us, self.pages_written)
        self.pages_written += 1

    def read(self, slot: int, now_us: Optional[float] = None) -> None:
        """Fetch the page at ``slot`` (demand fault or prefetch)."""
        self._check_available(now_us)
        if slot not in self._slots:
            raise RemoteReadError(f"slot {slot} holds no page")
        self.pages_read += 1

    def release(self, slot: int) -> None:
        """Free a slot once its page was faulted back and re-dirtied."""
        try:
            self._slots.remove(slot)
        except KeyError:
            return
        checksums = self.checksums
        if checksums._bad or checksums._strike_us:
            checksums.drop(slot)
        self.pages_released += 1

    def migrate_out(self, slot: int) -> None:
        """The migration engine moved ``slot``'s copy to another node:
        drop it here, conserved via ``pages_migrated_out`` (the target
        node's ``write`` accounts for the new copy)."""
        slots = self._slots
        if slot in slots:
            slots.remove(slot)
            self.checksums.drop(slot)
            self.pages_migrated_out += 1

    def crash(self) -> int:
        """The node died: every stored page is gone.  Returns how many
        pages were wiped; accounting stays conserved via ``pages_lost``."""
        wiped = len(self._slots)
        self._slots.clear()
        self.checksums.clear()
        self.pages_lost += wiped
        self.crashes += 1
        return wiped

    def holds(self, slot: int) -> bool:
        return slot in self._slots

    @property
    def pages_stored(self) -> int:
        return len(self._slots)

    @property
    def conserved(self) -> bool:
        """The slot-conservation invariant: every written page is still
        stored, was overwritten, was released, died in a crash, or was
        migrated to another tier's node."""
        return self.pages_written == (
            self.pages_stored
            + self.pages_overwritten
            + self.pages_released
            + self.pages_lost
            + self.pages_migrated_out
        )

    def stats_snapshot(self) -> Dict[str, int]:
        """Public counter snapshot, for metrics aggregation and debugging
        (no caller should poke the private slot set)."""
        return {
            "capacity_pages": self.capacity_pages,
            "pages_stored": self.pages_stored,
            "pages_written": self.pages_written,
            "pages_read": self.pages_read,
            "pages_overwritten": self.pages_overwritten,
            "pages_released": self.pages_released,
            "pages_lost": self.pages_lost,
        }

    def metrics_snapshot(self) -> Dict[str, int]:
        """Export-facing counter snapshot with the unified key naming
        shared by :meth:`RdmaFabric.metrics_snapshot`: monotone counters
        end in ``_total``, gauges do not.  :meth:`stats_snapshot` keeps
        its original keys because goldens and CI scripts pin them."""
        return {
            "pages_written_total": self.pages_written,
            "pages_read_total": self.pages_read,
            "pages_overwritten_total": self.pages_overwritten,
            "pages_released_total": self.pages_released,
            "pages_lost_total": self.pages_lost,
            "pages_migrated_out_total": self.pages_migrated_out,
            "crashes_total": self.crashes,
            "pages_stored": self.pages_stored,
            "capacity_pages": self.capacity_pages,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RemoteMemoryNode(stored={self.pages_stored}/"
            f"{self.capacity_pages}, written={self.pages_written}, "
            f"read={self.pages_read}, conserved={self.conserved})"
        )

    def _check_available(self, now_us: Optional[float]) -> None:
        """Restart windows: the node answers nothing for their duration."""
        if self.injector is not None and now_us is not None:
            self.injector.check_remote(now_us)
