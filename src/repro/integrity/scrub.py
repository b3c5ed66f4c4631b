"""Corruption detect→repair→poison control and the patrol scrubber.

:class:`IntegrityController` is the one place corruption outcomes are
decided and counted, shared by the three verify points (demand fetch,
migration read, patrol scrub):

* **detected** — a copy failed checksum verification;
* **repaired** — a clean replica served the page (demand failover) or
  was copied over the bad one (scrub/migration), paid for as a modeled
  READ + WRITE on the live links;
* **poisoned** — no clean copy exists: the slot is marked poisoned on
  the cluster (CXL poison semantics — the data exists but is known-bad),
  demand reads of it zero-fill, promotion to the pool tier is barred,
  and a pool-resident poisoned page is force-demoted;
* **unresolved** — a repair transfer timed out while a clean copy still
  exists somewhere; the corruption stays latent for a later pass.

Ledger arithmetic is closed — every detection ends in exactly one
outcome::

    corruption_detected == corruption_repaired + corruption_unresolved
                           + poisoned_copies

which the cross-layer sanitizer asserts after every sweep.

:class:`PatrolScrubber` walks the slot directory at a configured rate
(``ScrubConfig.rate_pages_per_s``), paying a modeled READ per audited
copy on UP nodes, so latent media errors are found *before* demand
traffic trips over them.  It rides :class:`~repro.cluster.repair.
RepairEngine`'s rate limiter: repair tasks always win the slot, scrub
runs in the idle gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.net.faults import TransferTimeout
from repro.telemetry.events import (
    EV_CORRUPT_REPAIR,
    EV_CORRUPTION,
    EV_POISON,
    EV_SCRUB,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.cluster.cluster import RemoteMemoryCluster


@dataclass(frozen=True)
class ScrubConfig:
    """Patrol-scrubber shaping.

    ``rate_pages_per_s``  audited copies per simulated second; the
                          pump spaces audit reads ``1e6 / rate`` us
                          apart.  Higher rates shrink detection latency
                          and cost proportional READ bandwidth — the
                          trade-off ``bench_scrub_tradeoff.py`` sweeps.
    """

    rate_pages_per_s: float = 5000.0

    def __post_init__(self) -> None:
        if self.rate_pages_per_s <= 0:
            raise ValueError(
                f"rate_pages_per_s must be > 0, got {self.rate_pages_per_s}"
            )


class IntegrityController:
    """Decides and counts every corruption outcome for one machine."""

    def __init__(self, cluster: "RemoteMemoryCluster") -> None:
        self.cluster = cluster
        #: Migration engine (for poison force-demotes); None when
        #: tiering is off.  Wired by the backend.
        self.memtier = None
        #: Telemetry event bus; None keeps every path probe-free.
        self.bus = None
        # Counters surfaced into RunResult.integrity.
        self.corruption_detected = 0
        self.corruption_repaired = 0
        self.corruption_unresolved = 0
        #: Corrupt copies condemned by poisoning events (the per-copy
        #: side of ``pages_poisoned``, which counts slots).
        self.poisoned_copies = 0
        self.pages_poisoned = 0
        #: Demand reads of poisoned slots resolved by zero-fill.
        self.poisoned_reads = 0
        #: Pool promotions refused because the slot is poisoned.
        self.promotions_barred = 0
        self.scrub_reads = 0
        #: Stored corruptions the patrol scrubber caught (before demand).
        self.scrub_detected = 0
        #: Modeled transfers spent rewriting bad copies from clean ones.
        self.repair_reads = 0
        self.repair_writes = 0
        # Detection latency (latent media errors only: detect - strike).
        self._latency_sum_us = 0.0
        self._latency_max_us = 0.0
        self._latency_count = 0

    # -- ledger arithmetic --------------------------------------------------------------

    @property
    def balanced(self) -> bool:
        """Every detection ended in exactly one outcome (the sanitizer
        asserts this after each sweep)."""
        return self.corruption_detected == (
            self.corruption_repaired
            + self.corruption_unresolved
            + self.poisoned_copies
        )

    def note_detected(
        self,
        now_us: float,
        slot: int,
        node_id: int,
        since: Optional[float] = None,
        source: str = "demand",
    ) -> None:
        """One corrupt copy found (checksum mismatch on a verify read)."""
        self.corruption_detected += 1
        if since is not None:
            latency = max(now_us - since, 0.0)
            self._latency_sum_us += latency
            self._latency_max_us = max(self._latency_max_us, latency)
            self._latency_count += 1
        if self.bus is not None:
            self.bus.emit(
                EV_CORRUPTION, now_us, slot=slot, node=node_id, source=source
            )

    def note_repaired(
        self, count: int, now_us: float, slot: int, node_id: int
    ) -> None:
        """``count`` detected copies resolved from a clean source."""
        self.corruption_repaired += count
        if self.bus is not None:
            self.bus.emit(
                EV_CORRUPT_REPAIR, now_us, slot=slot, node=node_id, n=count
            )

    def note_unresolved(self, count: int) -> None:
        """``count`` detections left latent (retry budget or repair
        transfer exhausted while a clean copy may still exist)."""
        self.corruption_unresolved += count

    def poison(self, slot: int, now_us: float, condemned: int) -> None:
        """No clean copy of ``slot`` exists: mark it poisoned (the CXL
        poison bit — data present, known-bad), condemning ``condemned``
        detected copies.  A pool-resident poisoned page is force-demoted
        out of the pool tier."""
        self.cluster.mark_poisoned(slot)
        self.pages_poisoned += 1
        self.poisoned_copies += condemned
        if self.bus is not None:
            self.bus.emit(EV_POISON, now_us, slot=slot, n=condemned)
        if self.memtier is not None:
            self.memtier.note_poisoned(slot)

    # -- the stored-corruption repair path ----------------------------------------------

    def resolve_stored_corruption(
        self, slot: int, bad_node_id: int, now_us: float
    ) -> str:
        """A stored copy of ``slot`` on ``bad_node_id`` failed its
        checksum (already counted detected): rewrite it from a clean
        live replica, or poison the slot when none exists.  Returns
        ``"repaired"``, ``"poisoned"``, or ``"unresolved"``."""
        cluster = self.cluster
        health = cluster.health
        clean_id = None
        corrupt_others = []
        for node_id in cluster.holders_of(slot):
            if node_id == bad_node_id:
                continue
            if health is not None and not health.is_readable(node_id):
                continue
            node = cluster.nodes[node_id]
            if not node.remote.holds(slot):
                continue
            if node.remote.checksums.is_clean(slot, now_us):
                clean_id = node_id
                break
            corrupt_others.append(node_id)
        if clean_id is None:
            # Every examined live copy is corrupt too — those ledger
            # verdicts are detections in their own right.
            for other in corrupt_others:
                node = cluster.nodes[other]
                self.note_detected(
                    now_us, slot, other,
                    since=node.remote.checksums.corrupt_since(slot),
                    source="resolve",
                )
            self.poison(slot, now_us, condemned=1 + len(corrupt_others))
            return "poisoned"
        source = cluster.nodes[clean_id]
        bad = cluster.nodes[bad_node_id]
        try:
            read_done = source.fabric.read_page(now_us)
            source.remote.read(slot, now_us=now_us)
            self.repair_reads += 1
            bad.fabric.write_page(read_done)
            # The rewrite restores the checksum via the node's own
            # write path (and re-draws its corruption coins — a repair
            # write can itself land bad, to be caught next pass).
            bad.remote.write(slot, now_us=read_done)
            self.repair_writes += 1
        except TransferTimeout:
            self.note_unresolved(1)
            return "unresolved"
        self.note_repaired(1, now_us, slot, bad_node_id)
        return "repaired"

    # -- export -------------------------------------------------------------------------

    def injected_totals(self) -> dict:
        """Injector-side corruption counts summed over the cluster."""
        bit_flips = 0
        media_errors = 0
        for node in self.cluster.nodes:
            if node.injector is not None:
                bit_flips += node.injector.bit_flips_injected
                media_errors += node.injector.media_errors_injected
        return {
            "bit_flips_injected": bit_flips,
            "media_errors_injected": media_errors,
        }

    def section(self) -> dict:
        """The ``RunResult.integrity`` section (always every key, so
        the round trip is trivial and dashboards see stable shapes)."""
        count = self._latency_count
        out = {
            "corruption_detected": self.corruption_detected,
            "corruption_repaired": self.corruption_repaired,
            "corruption_unresolved": self.corruption_unresolved,
            "poisoned_copies": self.poisoned_copies,
            "pages_poisoned": self.pages_poisoned,
            "poisoned_reads": self.poisoned_reads,
            "promotions_barred": self.promotions_barred,
            "scrub_reads": self.scrub_reads,
            "scrub_detected": self.scrub_detected,
            "repair_reads": self.repair_reads,
            "repair_writes": self.repair_writes,
            "detect_latency_us": {
                "count": count,
                "mean": self._latency_sum_us / count if count else 0.0,
                "max": self._latency_max_us,
            },
        }
        out.update(self.injected_totals())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IntegrityController(detected={self.corruption_detected}, "
            f"repaired={self.corruption_repaired}, "
            f"poisoned={self.pages_poisoned})"
        )


class PatrolScrubber:
    """Background checksum audit over the slot directory.

    One ``step`` verifies one stored copy: a modeled READ on the
    holder's link plus a ledger check.  The walk is a deterministic
    round-robin cursor over the sorted (slot, holder) pairs, skipping
    poisoned slots and unreadable nodes, so scrub order is a pure
    function of directory state.  A lost slot has no directory entry
    (:meth:`~repro.cluster.cluster.RemoteMemoryCluster.mark_lost` drops
    its holders), so the walk never meets one."""

    def __init__(
        self,
        cluster: "RemoteMemoryCluster",
        controller: IntegrityController,
        config: ScrubConfig,
    ) -> None:
        self.cluster = cluster
        self.controller = controller
        self.config = config
        self.interval_us = 1_000_000.0 / config.rate_pages_per_s
        self._next_scrub_us = 0.0
        self._cursor = 0

    def due(self, now_us: float) -> bool:
        return now_us >= self._next_scrub_us

    def due_us(self) -> float:
        """The earliest time at which the next audit may run."""
        return self._next_scrub_us

    def step(self, now_us: float) -> None:
        """Audit the next stored copy, if any copy is auditable."""
        self._next_scrub_us = now_us + self.interval_us
        cluster = self.cluster
        unreadable = cluster.unreadable
        pairs = []
        for slot in sorted(cluster.slots_in_directory()):
            if slot in unreadable:
                continue
            for node_id in cluster.holders_of(slot):
                pairs.append((slot, node_id))
        if not pairs:
            return
        health = cluster.health
        total = len(pairs)
        for probe in range(total):
            index = (self._cursor + probe) % total
            slot, node_id = pairs[index]
            if health is not None and not health.is_readable(node_id):
                continue
            node = cluster.nodes[node_id]
            if not node.remote.holds(slot):
                continue
            self._cursor = index + 1
            self._verify(slot, node, now_us)
            return
        self._cursor = 0

    def _verify(self, slot, node, now_us: float) -> None:
        """Pay the audit READ, then check wire and stored integrity."""
        controller = self.controller
        try:
            node.fabric.read_page(now_us)
            node.remote.read(slot, now_us=now_us)
        except TransferTimeout:
            return  # hostile window; the patrol just moves on
        controller.scrub_reads += 1
        if controller.bus is not None:
            controller.bus.emit(EV_SCRUB, now_us, slot=slot, node=node.node_id)
        injector = node.injector
        wire_flip = injector is not None and injector.corrupt_read(now_us)
        checksums = node.remote.checksums
        if not checksums.is_clean(slot, now_us):
            controller.scrub_detected += 1
            controller.note_detected(
                now_us, slot, node.node_id,
                since=checksums.corrupt_since(slot), source="scrub",
            )
            controller.resolve_stored_corruption(slot, node.node_id, now_us)
        elif wire_flip:
            # Transient flip on the audit payload: the stored copy is
            # fine, a (free, metadata-level) re-check clears it.
            controller.note_detected(now_us, slot, node.node_id, source="scrub")
            controller.note_repaired(1, now_us, slot, node.node_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PatrolScrubber(rate={self.config.rate_pages_per_s}/s, "
            f"cursor={self._cursor})"
        )
