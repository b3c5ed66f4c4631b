"""Per-slot content-generation checksums.

A real disaggregated-memory node would store a checksum next to every
page and verify it on READ; the simulator never materializes page
*contents*, so the ledger tracks the only thing that matters — whether
the stored copy still matches what was written.  A copy goes bad in
exactly two ways (:mod:`repro.net.faults`):

* a ``bit_flip_write`` coin landed at write time (bad immediately);
* a ``media_error_rate`` coin scheduled a latent strike — the copy is
  clean until its deterministic strike time, then silently rots.  The
  window between strike and the next demand read is what the patrol
  scrubber (:mod:`repro.integrity.scrub`) exists to shrink.

Wire flips on READ payloads (``bit_flip_read``) are transient and never
touch the ledger: the stored copy is fine and a re-read comes back
clean.

The ledger is pure bookkeeping — no RNG of its own, no new counters on
any pinned snapshot — so keeping it on every node unconditionally
leaves corruption-free runs byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.net.faults import FaultInjector


class PageCorruptError(RuntimeError):
    """Every copy of a page failed checksum verification.

    The CXL-style analogue of :class:`~repro.cluster.cluster.PageLostError`:
    the data still *exists* but is known-bad, so the backend resolves the
    fault by poisoning the slot and mapping a zero-filled frame, counted
    separately from loss (``poisoned_reads``, not ``pages_zero_filled``
    alone)."""

    def __init__(
        self, pid: int, vpn: int, slot: int, waited_us: float = 0.0
    ) -> None:
        super().__init__(
            f"page (pid={pid}, vpn={vpn}) corrupt: slot {slot} has no "
            f"clean replica"
        )
        self.pid = pid
        self.vpn = vpn
        self.slot = slot
        #: Latency already paid by the faulting access while it tried
        #: (and failed) to find a clean copy.
        self.waited_us = waited_us


class SlotChecksums:
    """Stored-copy integrity ledger for one :class:`RemoteMemoryNode`.

    Tracks only the *deviant* slots (corrupt now, or scheduled to rot);
    everything else is clean by construction, so the common case costs
    two dict misses per verify."""

    def __init__(self, injector: Optional["FaultInjector"] = None) -> None:
        self.injector = injector
        #: slot -> time the stored copy went bad (write time for write
        #: flips, strike time for media errors) — detection-latency input.
        self._bad: Dict[int, float] = {}
        #: slot -> pending latent strike time (clean until then).
        self._strike_us: Dict[int, float] = {}

    def record_write(
        self, slot: int, now_us: Optional[float], write_index: int
    ) -> None:
        """A fresh copy landed at ``slot``: previous state is gone, and
        the injector's coins decide whether this one is (or will go)
        bad.  ``write_index`` is the node's monotone write counter, so
        the media-strike draw is a pure function of (seed, slot, write)."""
        t = now_us if now_us is not None else 0.0
        self._bad.pop(slot, None)
        self._strike_us.pop(slot, None)
        injector = self.injector
        if injector is None:
            return
        if injector.corrupt_write(t):
            self._bad[slot] = t
            return
        strike = injector.media_strike_us(slot, write_index, t)
        if strike is not None:
            self._strike_us[slot] = strike

    def is_clean(self, slot: int, now_us: float) -> bool:
        """Does the stored copy still match its checksum at ``now_us``?
        Latches any due media strike into the corrupt set first."""
        strike = self._strike_us.get(slot)
        if strike is not None and now_us >= strike:
            del self._strike_us[slot]
            self._bad[slot] = strike
        return slot not in self._bad

    def corrupt_since(self, slot: int) -> Optional[float]:
        """When the stored copy went bad (None if it is clean)."""
        return self._bad.get(slot)

    def drop(self, slot: int) -> None:
        """The copy left the store (release / migrate-out)."""
        self._bad.pop(slot, None)
        self._strike_us.pop(slot, None)

    def clear(self) -> None:
        """The node crashed: every stored copy (and its rot schedule)
        died with it."""
        self._bad.clear()
        self._strike_us.clear()

    def tracked_slots(self) -> Tuple[int, ...]:
        """Every slot with deviant ledger state — the sanitizer checks
        these never outlive their stored copy."""
        return tuple(set(self._bad) | set(self._strike_us))
