"""Hotness-driven inter-tier page migration.

The :class:`MigrationEngine` owns the dynamic side of the memory-tier
model: which remote pages are *hot* (by page identity ``(pid, vpn)`` —
swap slots are released on every fault-back, so slot-keyed hotness
would forget a page the moment it mattered), and the background
promote/demote traffic that moves pages between the pooled CXL tier
and the RDMA far tier.

Hotness signals, both cheap and deterministic:

* **touch counts** — every far-tier demand read of a page bumps its
  touch count; at ``promote_touches`` the page is hot.  A page that
  keeps faulting in from the far tier is paying the full RDMA latency
  repeatedly — exactly the page the pool exists for.
* **HPD hints** — with ``hot_promote`` on, the HoPP data plane forwards
  every resolved hot-page detection (the paper's HPD -> RPT pipeline)
  into :meth:`note_hot`.  This is the co-design point: the same
  hardware hotness signal that drives prefetch drives tiering.  HPD
  sees only accesses that reach DRAM, so a hinted page is resident.

Neither signal moves a page: hotness acts at the page's next writeback.

Migration mechanics copy the repair engine's discipline exactly: one
rate-limited page copy per pump (called only from remote-event paths —
the resident-hit fast path never sees the engine), each copy a modeled
bulk READ on the source link plus a bulk WRITE on the target link, with
bounded re-queue on :class:`~repro.net.faults.TransferTimeout`.  A
completed migration moves the store copy
(:meth:`~repro.net.remote.RemoteMemoryNode.migrate_out` + target
``write``) and the directory entry
(:meth:`~repro.cluster.cluster.RemoteMemoryCluster.migrate_holder`)
atomically between pumps, so the sanitizer's directory<->stores and
conservation checks hold at every access boundary.

Promotion flows:

* hot pages writing back land poolward directly (the ``tiered``
  placement policy consults :meth:`is_hot` — no transfer needed);
* a hot page whose writeback lands in the far tier (the pool had no
  room) queues a promote task (:meth:`note_writeback`);
* pool -> local needs no engine at all: it is the ordinary demand
  fault, just at CXL latency.

Demotion: when a pool node fills past ``pool_high_watermark``, its
coldest resident slots (oldest writeback first, hot pages spared) are
demoted to the far tier until the node is back under
``pool_low_watermark``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.common.constants import PAGE_SIZE
from repro.memtier.tiers import TIER_FAR, TIER_POOL, MemtierConfig
from repro.net.faults import TransferTimeout
from repro.telemetry.events import (
    EV_MEMTIER_DEMOTE,
    EV_MEMTIER_FAR_READ,
    EV_MEMTIER_POOL_READ,
    EV_MEMTIER_PROMOTE,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.cluster.cluster import ClusterNode, RemoteMemoryCluster
    from repro.kernel.swap import SwapSpace

#: (kind, slot, node_id): kind is "promote" (node_id unused, -1) or
#: "demote" (node_id is the pool source to relieve).
_Task = Tuple[str, int, int]


class MigrationEngine:
    def __init__(
        self,
        cluster: "RemoteMemoryCluster",
        swap_space: "SwapSpace",
        config: MemtierConfig = MemtierConfig(),
    ) -> None:
        self.cluster = cluster
        self.swap_space = swap_space
        self.config = config
        #: Telemetry event bus; None keeps every note/pump probe-free.
        #: Set by the backend when telemetry is armed.
        self.bus = None
        #: Integrity controller (:mod:`repro.integrity`); None keeps
        #: migration reads verify-free.  Set by the backend when
        #: corruption injection or the patrol scrubber is armed.
        self.integrity = None
        #: (pid, vpn) -> far-tier demand-read touches so far.  Bounded;
        #: insertion-ordered so the oldest entry ages out first.
        self._touches: Dict[Tuple[int, int], int] = {}
        #: Hot pages, as an insertion-ordered bounded set (dict keys).
        self._hot: Dict[Tuple[int, int], None] = {}
        #: Pool residency ledger: slot -> (pool node id, writeback seq).
        #: Insertion order is coldness order (oldest writeback first);
        #: entries are validated lazily at demotion time, so a slot
        #: released meanwhile is simply skipped and dropped.
        self._pool_seq: Dict[int, Tuple[int, int]] = {}
        self._seq = 0
        self._queue: Deque[_Task] = deque()
        self._queued: set = set()
        self._retries_of: dict = {}
        self._next_issue_us = 0.0
        # Counters surfaced into RunResult.memtier (all memtier_* in
        # exported form — never confusable with the prefetch tiers).
        self.pool_demand_reads = 0
        self.far_demand_reads = 0
        self.pool_prefetch_reads = 0
        self.far_prefetch_reads = 0
        self.pool_writebacks = 0
        self.far_writebacks = 0
        self.promotions = 0
        self.demotions = 0
        self.migration_reads = 0
        self.migration_writes = 0
        self.migration_retries = 0
        self.migrations_skipped = 0
        self.hot_hints = 0

    # -- hotness signals ---------------------------------------------------------------

    def is_hot(self, pid: int, vpn: int) -> bool:
        """Whether a page is currently considered hot (placement input)."""
        return (pid, vpn) in self._hot

    def note_hot(self, pid: int, vpn: int) -> None:
        """HPD hot-page hint from the HoPP data plane.  The page is
        resident, so the hint only marks it hot, for placement and
        :meth:`note_writeback` to act on at its next writeback."""
        if not self.config.hot_promote:
            return
        self.hot_hints += 1
        self._mark_hot((pid, vpn))

    def note_demand_read(
        self, node: "ClusterNode", pid: int, vpn: int, now_us: float
    ) -> None:
        """A demand fault was served by ``node``; count it per tier and
        advance the page's touch-driven hotness."""
        if node.tier == TIER_POOL:
            self.pool_demand_reads += 1
            if self.bus is not None:
                self.bus.emit(
                    EV_MEMTIER_POOL_READ, now_us,
                    node=node.node_id, pid=pid, vpn=vpn,
                )
            return
        self.far_demand_reads += 1
        if self.bus is not None:
            self.bus.emit(
                EV_MEMTIER_FAR_READ, now_us,
                node=node.node_id, pid=pid, vpn=vpn,
            )
        key = (pid, vpn)
        touches = self._touches.pop(key, 0) + 1
        if touches >= self.config.promote_touches:
            self._mark_hot(key)
        else:
            self._touches[key] = touches
            if len(self._touches) > self.config.hot_set_limit:
                self._touches.pop(next(iter(self._touches)))

    def note_prefetch_read(self, node: "ClusterNode", npages: int) -> None:
        """``npages`` prefetch READs were issued on ``node``'s link."""
        if node.tier == TIER_POOL:
            self.pool_prefetch_reads += npages
        else:
            self.far_prefetch_reads += npages

    def note_writeback(
        self, node: "ClusterNode", slot: int, pid: int, vpn: int, now_us: float
    ) -> None:
        """A reclaim writeback placed ``slot``'s primary on ``node``.
        Pool landings join the residency ledger and may build pressure;
        a hot page forced to the far tier queues its promotion."""
        if node.tier == TIER_POOL:
            self.pool_writebacks += 1
            self._seq += 1
            self._pool_seq[slot] = (node.node_id, self._seq)
            self._check_pressure(node)
            return
        self.far_writebacks += 1
        if (pid, vpn) in self._hot:
            self._enqueue(("promote", slot, -1))

    def note_poisoned(self, slot: int) -> None:
        """The integrity controller poisoned ``slot``: a pool-resident
        copy is force-demoted to the far tier — known-bad data must not
        occupy the scarce CXL pool."""
        entry = self._pool_seq.get(slot)
        if entry is not None:
            self._enqueue(("demote", slot, entry[0]))

    # -- the background pump -----------------------------------------------------------

    @property
    def idle(self) -> bool:
        return not self._queue

    @property
    def pending_tasks(self) -> int:
        return len(self._queue)

    @property
    def migration_bytes(self) -> int:
        return (self.migration_reads + self.migration_writes) * PAGE_SIZE

    def pump(self, now_us: float) -> None:
        """Advance migration by at most one page copy, respecting the
        rate limit.  Called only from the machine's remote-event paths
        (demand fault, writeback), so migration traffic contends with
        demand traffic on the shared links and the resident-hit fast
        path never pays for it."""
        if not self._queue or now_us < self._next_issue_us:
            return
        self._next_issue_us = now_us + self.config.migrate_interval_us
        task = self._queue.popleft()
        self._queued.discard(task)
        kind, slot, source_id = task
        if kind == "promote":
            self._promote(task, slot, now_us)
        else:
            self._demote(task, slot, source_id, now_us)

    def flush(self, now_us: float) -> None:
        """Run the migration queue dry, ignoring the rate limit
        (end-of-run convergence; transfers are still paid on the links).
        The guard bounds re-queues *and* the demotions a completed
        promotion can itself trigger."""
        guard = (
            (len(self._queue) + len(self._pool_seq) + 1)
            * (self.config.max_migration_retries + 2)
        )
        while self._queue and guard > 0:
            guard -= 1
            self._next_issue_us = now_us
            self.pump(now_us)
            now_us += self.config.migrate_interval_us

    # -- task execution ----------------------------------------------------------------

    def _promote(self, task: _Task, slot: int, now_us: float) -> None:
        """Move a hot far-tier page poolward."""
        cluster = self.cluster
        holders = cluster.holders_of(slot)
        if not holders or cluster.is_lost(slot):
            return  # released or lost meanwhile
        if cluster.is_poisoned(slot):
            # CXL poison semantics: a known-bad page never earns a pool
            # residency, however hot its identity looks.
            if self.integrity is not None:
                self.integrity.promotions_barred += 1
            return
        source_id = holders[0]
        source = cluster.nodes[source_id]
        if source.tier != TIER_FAR:
            return  # already poolward (re-placed meanwhile)
        page = self.swap_space.page_at(slot)
        if page is None or page not in self._hot:
            return  # slot recycled, or the page cooled off
        target_id = self._pick_target(holders, TIER_POOL)
        if target_id is None:
            # No pool headroom right now; pressure demotions may be in
            # the queue behind us, so retry (bounded) instead of drop.
            self._requeue(task)
            return
        if not self._copy(task, slot, source, target_id, now_us):
            return
        source.remote.migrate_out(slot)
        cluster.migrate_holder(slot, source_id, target_id)
        self._seq += 1
        self._pool_seq[slot] = (target_id, self._seq)
        self.promotions += 1
        if self.bus is not None:
            self.bus.emit(
                EV_MEMTIER_PROMOTE, now_us,
                slot=slot, node=target_id, pid=page[0], vpn=page[1],
            )
        self._check_pressure(cluster.nodes[target_id])

    def _demote(
        self, task: _Task, slot: int, source_id: int, now_us: float
    ) -> None:
        """Move a cold pool page to the far tier (pressure relief)."""
        cluster = self.cluster
        holders = cluster.holders_of(slot)
        if not holders or holders[0] != source_id or cluster.is_lost(slot):
            self._pool_seq.pop(slot, None)
            return  # released, lost, or re-homed meanwhile
        source = cluster.nodes[source_id]
        page = self.swap_space.page_at(slot)
        if page is None or not source.remote.holds(slot):
            self._pool_seq.pop(slot, None)
            return
        target_id = self._pick_target(holders, TIER_FAR)
        if target_id is None:
            self.migrations_skipped += 1
            return
        if not self._copy(task, slot, source, target_id, now_us):
            return
        source.remote.migrate_out(slot)
        cluster.migrate_holder(slot, source_id, target_id)
        self._pool_seq.pop(slot, None)
        self.demotions += 1
        if self.bus is not None:
            self.bus.emit(
                EV_MEMTIER_DEMOTE, now_us,
                slot=slot, node=target_id, pid=page[0], vpn=page[1],
            )

    def _copy(
        self,
        task: _Task,
        slot: int,
        source: "ClusterNode",
        target_id: int,
        now_us: float,
    ) -> bool:
        """One modeled migration copy: bulk READ on the source link,
        bulk WRITE on the target link at the read's completion.  On a
        timeout the task re-queues (bounded), like repair traffic."""
        health = self.cluster.health
        if health is not None and not health.is_readable(source.node_id):
            self._requeue(task)
            return False
        target = self.cluster.nodes[target_id]
        try:
            read_done = source.fabric.read_page(now_us)
            source.remote.read(slot, now_us=now_us)
            self.migration_reads += 1
            integrity = self.integrity
            if (
                integrity is not None
                and not self.cluster.is_poisoned(slot)
                and not source.remote.checksums.is_clean(slot, now_us)
            ):
                # Migration must not spread a corrupt copy: detect it,
                # repair the source in place from a clean replica, and
                # re-queue the move.  (A force-demote of an already
                # poisoned slot skips the verify — the corruption is
                # condemned, the move is the point.)
                integrity.note_detected(
                    now_us, slot, source.node_id,
                    since=source.remote.checksums.corrupt_since(slot),
                    source="migration",
                )
                outcome = integrity.resolve_stored_corruption(
                    slot, source.node_id, now_us
                )
                if outcome == "poisoned":
                    self.migrations_skipped += 1
                else:
                    self._requeue(task)
                return False
            target.fabric.write_page(read_done)
            target.remote.write(slot, now_us=read_done)
            self.migration_writes += 1
            self._retries_of.pop(task, None)
            return True
        except TransferTimeout:
            self._requeue(task)
            return False

    # -- helpers -----------------------------------------------------------------------

    def _mark_hot(self, key: Tuple[int, int]) -> None:
        self._hot.pop(key, None)
        self._hot[key] = None
        if len(self._hot) > self.config.hot_set_limit:
            self._hot.pop(next(iter(self._hot)))

    def _check_pressure(self, node: "ClusterNode") -> None:
        """Queue demotions for ``node``'s coldest slots when it fills
        past the high watermark, down to the low watermark (counting
        demotions already queued, so pressure checks are idempotent)."""
        cap = node.remote.capacity_pages
        high = max(int(self.config.pool_high_watermark * cap), 1)
        if node.remote.pages_stored <= high:
            return
        low = max(int(self.config.pool_low_watermark * cap), 1)
        pending = sum(
            1 for kind, _, nid in self._queue
            if kind == "demote" and nid == node.node_id
        )
        goal = node.remote.pages_stored - low
        if goal <= pending:
            return
        ledger = sorted(self._pool_seq.items(), key=lambda item: item[1][1])
        # Two passes, both coldest-first: spare hot pages while cold
        # ones remain, but pressure beats hotness — a pool wedged full
        # of hot pages must still drain or promotions deadlock.
        for spare_hot in (True, False):
            for slot, (node_id, _) in ledger:
                if node_id != node.node_id:
                    continue
                if spare_hot:
                    page = self.swap_space.page_at(slot)
                    if page is not None and page in self._hot:
                        continue
                if self._enqueue(("demote", slot, node.node_id)):
                    pending += 1
                    if pending >= goal:
                        return

    def _pick_target(self, holders, tier: str) -> Optional[int]:
        """Least-loaded ``tier`` node that accepts a new copy of the
        slot (:meth:`RemoteMemoryCluster.accepts`), lowest id on a tie.
        A promotion needs hard room, not the watermark: a promotion into
        a pressured pool is still a win (the fault it saves pays RDMA
        latency today), and the post-promote pressure check queues the
        compensating demotion of a colder page."""
        cluster = self.cluster
        candidates = [
            node_id for node_id in self._tier_ids(tier)
            if cluster.accepts(node_id, holders)
        ]
        return min(candidates, key=cluster.node_load, default=None)

    def _tier_ids(self, tier: str) -> List[int]:
        return [
            node.node_id for node in self.cluster.nodes if node.tier == tier
        ]

    def _enqueue(self, task: _Task) -> bool:
        if task in self._queued:
            return False
        self._queued.add(task)
        self._queue.append(task)
        return True

    def _requeue(self, task: _Task) -> None:
        retries = self._retries_of.get(task, 0)
        if retries < self.config.max_migration_retries:
            self._retries_of[task] = retries + 1
            self.migration_retries += 1
            self._enqueue(task)
        else:
            self._retries_of.pop(task, None)
            self.migrations_skipped += 1

    # -- export ------------------------------------------------------------------------

    def section(self) -> Dict[str, object]:
        """The ``RunResult.memtier`` block: topology echo, per-tier
        traffic counters, migration traffic, and end-of-run occupancy."""
        pool_ids = self._tier_ids(TIER_POOL)
        far_ids = self._tier_ids(TIER_FAR)
        nodes = self.cluster.nodes
        return {
            "pool_nodes": len(pool_ids),
            "far_nodes": len(far_ids),
            "pool_capacity_pages": sum(
                nodes[n].remote.capacity_pages for n in pool_ids
            ),
            "pool_pages_stored": sum(
                nodes[n].remote.pages_stored for n in pool_ids
            ),
            "far_pages_stored": sum(
                nodes[n].remote.pages_stored for n in far_ids
            ),
            "pool_demand_reads": self.pool_demand_reads,
            "far_demand_reads": self.far_demand_reads,
            "pool_prefetch_reads": self.pool_prefetch_reads,
            "far_prefetch_reads": self.far_prefetch_reads,
            "pool_writebacks": self.pool_writebacks,
            "far_writebacks": self.far_writebacks,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "migration_reads": self.migration_reads,
            "migration_writes": self.migration_writes,
            "migration_bytes": self.migration_bytes,
            "migration_retries": self.migration_retries,
            "migrations_skipped": self.migrations_skipped,
            "hot_hints": self.hot_hints,
            "hot_pages_tracked": len(self._hot),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MigrationEngine(promotions={self.promotions}, "
            f"demotions={self.demotions}, pending={self.pending_tasks}, "
            f"hot={len(self._hot)})"
        )
