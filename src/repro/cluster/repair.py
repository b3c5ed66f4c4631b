"""Background re-replication and graceful drain for the cluster.

When the health monitor declares a node DOWN, every directory entry
that listed it is degraded: slots with a surviving replica are
*under-replicated*, slots whose only copy lived on the dead node are
*lost*.  The :class:`RepairEngine` owns both outcomes:

* **detection** (:meth:`on_node_down`) is immediate and directory-only:
  dead holders are dropped, lost slots are recorded on the cluster for
  zero-fill, and one repair task per under-replicated slot is queued.
  No data moves yet — detection is a metadata operation.
* **re-replication** (:meth:`pump`) is background and *paid for*: each
  repaired page is a bulk READ on a surviving holder's fabric plus a
  bulk WRITE on the new holder's fabric, so repair traffic queues
  behind (and delays) demand traffic exactly like any other transfer.
  The pump is rate-limited (``repair_interval_us`` between page copies)
  so a large dead node does not saturate every link at once.
* **drain** (:meth:`on_drain`) evacuates a live node copy-then-release,
  for graceful decommission; **rejoin top-up** (:meth:`on_node_rejoin`)
  re-replicates onto a returning (empty) node any slot still below its
  replication target.

Every decision is a function of (directory state, plan, seed): repair
is exactly as deterministic as the failure that triggered it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING, Deque, Optional, Tuple

from repro.cluster.health import NodeState
from repro.common.constants import PAGE_SIZE
from repro.net.faults import TransferTimeout
from repro.telemetry.events import EV_REPAIR

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.cluster.cluster import RemoteMemoryCluster
    from repro.cluster.health import HealthMonitor


@dataclass(frozen=True)
class RepairConfig:
    """Repair-traffic shaping.

    ``repair_interval_us``  minimum spacing between repair page copies
                            (the rate limit: 10 us/page = ~3.3 Gbps of
                            repair traffic at 4 KB pages).
    ``max_task_retries``    re-queue budget per task when its transfers
                            keep timing out under an active fault plan.
    """

    repair_interval_us: float = 10.0
    max_task_retries: int = 16

    def __post_init__(self) -> None:
        if self.repair_interval_us < 0:
            raise ValueError("repair_interval_us must be >= 0")
        if self.max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")


#: (kind, slot, node_id): kind is "replicate" (node_id unused, -1) or
#: "evacuate" (node_id is the draining source to empty).
_Task = Tuple[str, int, int]


class RepairEngine:
    def __init__(
        self,
        cluster: "RemoteMemoryCluster",
        monitor: "HealthMonitor",
        config: RepairConfig = RepairConfig(),
    ) -> None:
        self.cluster = cluster
        self.monitor = monitor
        self.config = config
        self._queue: Deque[_Task] = deque()
        self._queued: set = set()
        #: Telemetry event bus; None keeps the pump probe-free.  Set by
        #: the backend when telemetry is armed.
        self.bus = None
        #: Optional :class:`~repro.integrity.scrub.PatrolScrubber`
        #: riding this engine's rate limiter: repair tasks always win
        #: the issue slot, scrub audits run in the idle gaps.  Set by
        #: the backend when ``--scrub-rate`` arms it.
        self.scrubber = None
        self._retries_of: dict = {}
        self._next_issue_us = 0.0
        # Counters surfaced into RunResult.
        self.pages_repaired = 0
        self.pages_lost = 0
        self.pages_drained = 0
        self.repair_reads = 0
        self.repair_writes = 0
        self.repair_retries = 0

    @property
    def idle(self) -> bool:
        return not self._queue

    @property
    def pending_tasks(self) -> int:
        return len(self._queue)

    @property
    def repair_bytes(self) -> int:
        return (self.repair_reads + self.repair_writes) * PAGE_SIZE

    # -- recovery events (from the health monitor) -------------------------------------

    def on_node_down(self, node_id: int, now_us: float) -> None:
        """Permanent crash detected: fix the directory now, queue the
        data movement for the pump."""
        cluster = self.cluster
        store = cluster.nodes[node_id].remote
        for slot in cluster.slots_in_directory():
            holders = cluster.holders_of(slot)
            if node_id not in holders:
                continue
            if len(holders) > 1:
                cluster.drop_holder(slot, node_id)
                self._enqueue(("replicate", slot, -1))
            elif store.holds(slot):
                # The dead node held the only copy: the page is gone.
                cluster.mark_lost(slot)
                self.pages_lost += 1
            else:
                # A directory entry whose write never landed (the node
                # died mid-writeback): the page is still local, so just
                # drop the entry and let the writeback re-route.
                cluster.drop_holder(slot, node_id)
        # The store itself is gone with the machine; wiping it keeps
        # per-node accounting conserved via its pages_lost counter.
        cluster.nodes[node_id].remote.crash()

    def on_node_rejoin(self, node_id: int, now_us: float) -> None:
        """A replacement node racked in (empty): top up any slot still
        below its replication target."""
        target = self.cluster.config.replication
        for slot in self.cluster.slots_in_directory():
            if len(self.cluster.holders_of(slot)) < target:
                self._enqueue(("replicate", slot, -1))

    def on_drain(self, node_id: int) -> None:
        """Evacuate every slot held by a DRAINING node."""
        for slot in self.cluster.slots_in_directory():
            if node_id in self.cluster.holders_of(slot):
                self._enqueue(("evacuate", slot, node_id))

    # -- the background pump -----------------------------------------------------------

    def pump(self, now_us: float) -> None:
        """Advance repair by at most one page copy, respecting the rate
        limit.  Called at the start of an access, so repair progresses
        with simulated time and its transfers contend with demand
        traffic on the shared links.  With the queue empty, the
        idle slot goes to the patrol scrubber (when armed and due) —
        scrub audits share the limiter instead of adding load on top."""
        if now_us < self._next_issue_us:
            return
        if not self._queue:
            scrubber = self.scrubber
            if scrubber is not None and scrubber.due(now_us):
                self._next_issue_us = now_us + self.config.repair_interval_us
                scrubber.step(now_us)
            return
        self._next_issue_us = now_us + self.config.repair_interval_us
        task = self._queue.popleft()
        self._queued.discard(task)
        kind, slot, source_id = task
        if kind == "replicate":
            self._replicate(task, slot, now_us)
        else:
            self._evacuate(task, slot, source_id, now_us)
        self._check_drains(now_us)

    def due_us(self) -> float:
        """The earliest time at which :meth:`pump` acts: the next issue
        slot while tasks are queued; with the queue empty, the later of
        that slot and the scrubber's next audit (inf with no scrubber)."""
        if self._queue:
            return self._next_issue_us
        if self.scrubber is None:
            return inf
        return max(self._next_issue_us, self.scrubber.due_us())

    def flush(self, now_us: float) -> None:
        """Run the queue dry, ignoring the rate limit (end-of-run
        convergence; transfers are still issued and paid on the links)."""
        guard = (
            (len(self._queue) + 1)
            * (self.config.max_task_retries + 2)
            * (self.cluster.config.replication + 1)
        )
        while self._queue and guard > 0:
            guard -= 1
            self._next_issue_us = now_us
            self.pump(now_us)
            now_us += self.config.repair_interval_us
        self._check_drains(now_us)

    # -- task execution ----------------------------------------------------------------

    def _replicate(self, task: _Task, slot: int, now_us: float) -> None:
        """Copy ``slot`` from a surviving holder onto a new live node."""
        cluster = self.cluster
        holders = cluster.holders_of(slot)
        if not holders or len(holders) >= self._replication_goal():
            return  # released or already repaired meanwhile
        source = self._pick_source(slot, holders, now_us)
        target_id = self._pick_target(holders)
        if source is None or target_id is None:
            return
        if not self._copy(task, slot, source, target_id, now_us):
            return
        cluster.add_holder(slot, target_id)
        self.pages_repaired += 1
        if len(cluster.holders_of(slot)) < self._replication_goal():
            self._enqueue(("replicate", slot, -1))

    def _evacuate(
        self, task: _Task, slot: int, source_id: int, now_us: float
    ) -> None:
        """Move ``slot`` off a DRAINING node (copy first, then release)."""
        cluster = self.cluster
        holders = cluster.holders_of(slot)
        if source_id not in holders:
            return  # released or already moved meanwhile
        if len(holders) > 1:
            # Another copy exists; just drop this one and let the
            # replicate path restore the count if needed.
            cluster.drop_holder(slot, source_id)
            cluster.nodes[source_id].remote.release(slot)
            self.pages_drained += 1
            if len(cluster.holders_of(slot)) < self._replication_goal():
                self._enqueue(("replicate", slot, -1))
            return
        target_id = self._pick_target(holders)
        if target_id is None:
            return
        source = cluster.nodes[source_id]
        if not self._copy(task, slot, source, target_id, now_us):
            return
        cluster.add_holder(slot, target_id)
        cluster.drop_holder(slot, source_id)
        source.remote.release(slot)
        self.pages_drained += 1

    def _copy(self, task, slot, source, target_id, now_us) -> bool:
        """One modeled page copy: bulk READ on the source link, bulk
        WRITE on the target link issued at the read's completion.  On a
        timeout the task re-queues (bounded), so repair under an active
        fault plan converges once the hostile window passes."""
        target = self.cluster.nodes[target_id]
        try:
            read_done = source.fabric.read_page(now_us)
            source.remote.read(slot, now_us=now_us)
            self.repair_reads += 1
            target.fabric.write_page(read_done)
            target.remote.write(slot, now_us=read_done)
            self.repair_writes += 1
            self._retries_of.pop(task, None)
            if self.bus is not None:
                self.bus.emit(
                    EV_REPAIR, now_us,
                    task=task[0], slot=slot, node=target_id,
                )
            return True
        except TransferTimeout:
            retries = self._retries_of.get(task, 0)
            if retries < self.config.max_task_retries:
                self._retries_of[task] = retries + 1
                self.repair_retries += 1
                self._enqueue(task)
            else:
                self._retries_of.pop(task, None)
            return False

    # -- helpers -----------------------------------------------------------------------

    def _replication_goal(self) -> int:
        """Replicas a slot should have: the configured target, capped by
        how many nodes can currently accept copies."""
        return min(
            self.cluster.config.replication, self.monitor.placeable_count()
        )

    def _pick_source(self, slot, holders, now_us):
        """First readable holder whose stored copy passes its checksum;
        a corrupt-ledger holder is the fallback only when no clean one
        exists (re-replicating a bad copy propagates the corruption for
        the integrity controller to untangle later)."""
        fallback = None
        for node_id in holders:
            node = self.cluster.nodes[node_id]
            if not self.monitor.is_readable(node_id):
                continue
            if node.remote.checksums.is_clean(slot, now_us):
                return node
            if fallback is None:
                fallback = node
        return fallback

    def _pick_target(self, holders) -> Optional[int]:
        """First ring node after the primary that accepts a new copy
        (:meth:`RemoteMemoryCluster.accepts`)."""
        cluster = self.cluster
        start = holders[0] if holders else 0
        for hop in range(1, cluster.node_count + 1):
            candidate = (start + hop) % cluster.node_count
            if cluster.accepts(candidate, holders):
                return candidate
        return None

    def _enqueue(self, task: _Task) -> None:
        if task not in self._queued:
            self._queued.add(task)
            self._queue.append(task)

    def _check_drains(self, now_us: float) -> None:
        """Finish any drain whose node is empty with no pending tasks."""
        draining = [
            node_id
            for node_id, state in self.monitor.states_snapshot().items()
            if state == NodeState.DRAINING.value
        ]
        if not draining:
            return
        pending = {
            node_id for kind, _, node_id in self._queue if kind == "evacuate"
        }
        for node_id in draining:
            if node_id in pending:
                continue
            if self.cluster.nodes[node_id].remote.pages_stored == 0:
                self.monitor.finish_drain(node_id, now_us)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RepairEngine(repaired={self.pages_repaired}, "
            f"lost={self.pages_lost}, pending={self.pending_tasks})"
        )
