"""The remote side of one machine, behind one seam.

In the paper the memory node is a passive RDMA target behind one link,
and every mechanism HoPP adds runs on the compute node (Section III).
:class:`RemoteBackend` keeps that split.  It owns the
:class:`~repro.cluster.cluster.RemoteMemoryCluster` plus whatever the
run's :class:`~repro.sim.machine.RunEnv` arms on it — per-node fault
injectors, health monitoring and repair, integrity checking and patrol
scrub, CXL-tier migration — and it is the only place that decides which
of them exist.  With nothing armed every data-path call below is the
paper's plain single-link path (failover semantics: see
:mod:`repro.cluster.cluster`); whether a slot may be fetched at all is
one lookup in the cluster's ``unreadable`` map.  The nodes see swap
slots only: which process page a slot carries lives in the machine's
:class:`~repro.kernel.swap.SwapSpace`.

Its time side is :meth:`RemoteBackend.step`, run at the start of every
access, and :meth:`RemoteBackend.due_us`, the earliest access start at
which ``step`` acts: the batch kernel retires the accesses before it
without calling ``step``.
"""

from __future__ import annotations

from dataclasses import replace
from math import inf
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.cluster.cluster import (
    ClusterNode,
    PageLostError,
    RemoteMemoryCluster,
)
from repro.cluster.health import EVENT_DOWN, EVENT_REJOIN, HealthEvent, HealthMonitor
from repro.cluster.repair import RepairEngine
from repro.integrity import IntegrityController, PageCorruptError, PatrolScrubber
from repro.memtier import MigrationEngine, derive_node_tiers
from repro.net.faults import (
    FaultPlan,
    RemoteFetchFatalError,
    RemoteUnavailableError,
    TransferTimeout,
)
from repro.telemetry.events import EV_RETRY

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.kernel.page_table import Pte
    from repro.kernel.swap import SwapSpace
    from repro.sim.machine import MachineConfig
    from repro.sim.metrics import RunResult

#: Exponential backoff between retries of a synchronous transfer:
#: ``RETRY_BACKOFF_US * RETRY_BACKOFF_MULTIPLIER ** (attempt - 1)``.
RETRY_BACKOFF_US = 25.0
RETRY_BACKOFF_MULTIPLIER = 2.0


class RemoteBackend:
    """The remote memory pool of one machine and its armed components."""

    def __init__(
        self,
        config: "MachineConfig",
        swap_space: "SwapSpace",
        on_demand_timeout: Callable[[float], None],
        bus=None,
    ) -> None:
        env = config.env
        plan = env.fault_plan
        if plan is None and env.scrub is not None:
            # The scrubber rides the repair engine's pump (RunEnv.scrub).
            plan = FaultPlan.none()
        cluster_config = env.cluster
        if env.memtier is not None and cluster_config.node_tiers is None:
            # Pooled CXL nodes go in front of the far ones (RunEnv.memtier).
            pool = env.memtier.pool_nodes
            placement = cluster_config.placement
            cluster_config = replace(
                cluster_config,
                nodes=cluster_config.nodes + pool,
                node_tiers=derive_node_tiers(cluster_config.nodes, pool),
                placement="tiered" if placement == "interleave" else placement,
            )
        self.cluster = RemoteMemoryCluster(
            cluster_config, config.remote_capacity_pages, config.fabric,
            fault_plan=plan, memtier=env.memtier,
        )
        self.swap_space = swap_space
        #: Retry budget of a demand read or a writeback to one holder.
        self.retry_limit = config.demand_retry_limit
        #: The compute node's hook for a timed-out demand READ (the HoPP
        #: breaker counts it); called before the retry is decided.
        self.on_demand_timeout = on_demand_timeout
        #: Node 0's injector doubles as the "is fault injection armed"
        #: flag: every node arms iff the plan is non-empty.
        self.faults = self.cluster.nodes[0].injector
        #: Recovery is armed iff a fault plan was given at all.
        self.health: Optional[HealthMonitor] = None
        self.repair: Optional[RepairEngine] = None
        if plan is not None:
            self.health = HealthMonitor(self.cluster)
            self.cluster.health = self.health
            self.repair = RepairEngine(self.cluster, self.health)
        self.memtier: Optional[MigrationEngine] = None
        if env.memtier is not None:
            self.memtier = MigrationEngine(self.cluster, swap_space, env.memtier)
            self.cluster.memtier_hot = self.memtier.is_hot
        self.integrity: Optional[IntegrityController] = None
        self.scrubber: Optional[PatrolScrubber] = None
        if (plan is not None and plan.has_corruption) or env.scrub is not None:
            self.integrity = IntegrityController(self.cluster)
            self.integrity.memtier = self.memtier
            if self.memtier is not None:
                self.memtier.integrity = self.integrity
            if env.scrub is not None:
                self.scrubber = PatrolScrubber(self.cluster, self.integrity, env.scrub)
                self.repair.scrubber = self.scrubber
        #: Telemetry event bus (the machine's), or None.
        self.bus = bus
        if bus is not None:
            for node in self.cluster.nodes:
                node.fabric.bus = bus
            for component in (self.health, self.repair, self.memtier, self.integrity):
                if component is not None:
                    component.bus = bus
        #: A recovery event fired since the last :meth:`step`: the next
        #: access is due at once (the sanitizer sweeps after one).
        self._recovered = False
        # Failure counters surfaced to RunResult (all exactly 0 without
        # a fault plan).
        self.timeouts = 0
        self.retries = 0
        self.retry_latency_us = 0.0
        #: Demand reads resolved with a zero-filled frame because every
        #: copy of the page died or is poisoned.
        self.pages_zero_filled = 0

    # -- the data path: what the machine asks for ------------------------------------

    def demand_read(
        self, pid: int, vpn: int, slot: int, now_us: float, priority: bool
    ) -> Tuple[float, bool]:
        """Fetch ``slot`` for a demand fault at ``now_us``: returns the
        wait charged to the fault and whether it resolves with a
        zero-filled frame.  Raises :class:`RemoteFetchFatalError` once
        the retry budget is spent."""
        cluster = self.cluster
        if slot in cluster.unreadable:
            # Every replica died with its node, or every copy is known-bad
            # (CXL poison): nothing to serve.  The disaggregated-memory
            # analogue of an uncorrectable machine check.
            if cluster.is_poisoned(slot):
                self.integrity.poisoned_reads += 1
            self.pages_zero_filled += 1
            return 0.0, True
        if self.faults is None:
            node = cluster.primary_node(slot)
            wait = node.fabric.read_page(now_us, priority=priority) - now_us
            if self.memtier is not None:
                self.memtier.note_demand_read(node, pid, vpn, now_us)
            return wait, False
        try:
            return self._read_resilient(pid, vpn, slot, now_us, priority), False
        except (PageLostError, PageCorruptError) as gone:
            # This very fault found the page lost, or found no clean copy
            # and poisoned the slot: the latency is paid, then zero-fill.
            if isinstance(gone, PageCorruptError):
                self.integrity.poisoned_reads += 1
            self.pages_zero_filled += 1
            return gone.waited_us, True

    def demand_done(self, now_us: float) -> None:
        """A demand fault finished, its fault-time prefetches issued:
        the migration engine gets its turn."""
        if self.memtier is not None:
            self.memtier.pump(now_us)

    def _read_resilient(
        self, pid: int, vpn: int, slot: int, now_us: float, priority: bool
    ) -> float:
        """Demand READ with bounded exponential-backoff retries (each
        re-issues at the advanced time, escaping link-down and restart
        windows); returns the wait charged to the fault.  With integrity
        armed every completed read is verified: a wire flip re-reads the
        same node, a stored-corrupt copy fails over to the next replica,
        and with every replica corrupt the slot is poisoned."""
        waited = 0.0
        attempts = 0
        flips = 0
        cluster = self.cluster
        candidates = cluster.read_candidates(slot)
        target = 0
        integrity = self.integrity
        bad: set = set()
        while True:
            node = candidates[target % len(candidates)]
            if bad and node.node_id in bad and len(bad) < len(candidates):
                # Known-corrupt holder; an unexamined replica remains.
                target += 1
                continue
            t = now_us + waited
            try:
                completion = node.fabric.read_page(t, priority=priority)
                node.remote.read(slot, now_us=t)
                stall = node.injector.remote_delay_us(t)
                if integrity is not None:
                    checksums = node.remote.checksums
                    if not checksums.is_clean(slot, t):
                        # Stored copy is bad: the transfer is paid, the
                        # mismatch detected, and the fault fails over.
                        integrity.note_detected(
                            t, slot, node.node_id,
                            since=checksums.corrupt_since(slot),
                            source="demand",
                        )
                        bad.add(node.node_id)
                        waited += (completion - t) + stall
                        if len(bad) >= len(candidates):
                            # Every replica is corrupt: CXL poison.
                            integrity.poison(slot, t, condemned=len(bad))
                            raise PageCorruptError(
                                pid, vpn, slot, waited_us=waited
                            )
                        target += 1
                        continue
                    if node.injector.corrupt_read(t):
                        # Transient flip on the wire: the stored copy is
                        # fine, so the re-read (same node) repairs it.
                        integrity.note_detected(
                            t, slot, node.node_id, source="demand"
                        )
                        integrity.note_repaired(1, t, slot, node.node_id)
                        if flips <= self.retry_limit:
                            flips += 1
                            waited += (completion - t) + stall
                            continue
                self.health.observe_success(node.node_id, t)
                if self.memtier is not None:
                    self.memtier.note_demand_read(node, pid, vpn, t)
                if bad:
                    # A clean copy served the page; the corrupt replicas
                    # die with the slot's release, so they count repaired.
                    integrity.note_repaired(len(bad), t, slot, node.node_id)
                    bad.clear()
                return waited + (completion - t) + stall
            except TransferTimeout as fault:
                self.timeouts += 1
                attempts += 1
                self.on_demand_timeout(t)
                self._apply_health_events(
                    self.health.observe_timeout(node.node_id, t), now_us
                )
                if cluster.is_lost(slot):
                    # The timeout just exposed a permanent crash and
                    # this slot had no surviving replica.
                    if bad:
                        integrity.note_unresolved(len(bad))
                    raise PageLostError(
                        pid, vpn, slot, waited_us=waited + fault.wasted_us
                    ) from fault
                if attempts > self.retry_limit:
                    if bad:
                        integrity.note_unresolved(len(bad))
                    raise RemoteFetchFatalError(
                        pid, vpn, attempts,
                        waited_us=waited + fault.wasted_us,
                    ) from fault
                self.retries += 1
                if self.bus is not None:
                    self.bus.emit(EV_RETRY, t, op="demand", node=node.node_id)
                if (
                    isinstance(fault, RemoteUnavailableError)
                    and len(candidates) > 1
                ):
                    # The node is restarting and a replica holds the
                    # page one link over: fail over immediately.  The
                    # detection timeout is paid, the backoff is not —
                    # the retry goes straight out on a live QP.
                    target += 1
                    cluster.demand_failovers += 1
                    waited += fault.wasted_us
                    self.retry_latency_us += fault.wasted_us
                    continue
                backoff = RETRY_BACKOFF_US * RETRY_BACKOFF_MULTIPLIER ** (attempts - 1)
                waited += fault.wasted_us + backoff
                self.retry_latency_us += fault.wasted_us + backoff

    def prefetch_read(self, slot: int, now_us: float) -> Optional[float]:
        """Post one prefetch READ of ``slot`` at ``now_us``; returns its
        completion time, or None when the read lost its completion.
        Prefetches are speculative: never retried, never failed over."""
        node = self.cluster.primary_node(slot)
        try:
            completion = node.fabric.read_page(now_us)
            if self.faults is not None:
                node.remote.read(slot, now_us=now_us)
                completion += node.injector.remote_delay_us(now_us)
        except TransferTimeout:
            self.timeouts += 1
            return None
        if self.memtier is not None:
            self.memtier.note_prefetch_read(node, 1)
        return completion

    def prefetch_batch_read(
        self, node: ClusterNode, npages: int, now_us: float
    ) -> Optional[List[float]]:
        """Post one scatter-gather READ of ``npages`` pages held by
        ``node``; returns their arrival times, or None when the request
        lost its completion."""
        try:
            arrivals = node.fabric.read_batch(now_us, npages)
            if self.faults is not None:
                node.injector.check_remote(now_us)
        except TransferTimeout:
            self.timeouts += 1
            return None
        if self.memtier is not None:
            # The READ moves only pages the machine takes: a strict
            # cgroup trims the request to its headroom beforehand.
            self.memtier.note_prefetch_read(node, npages)
        return arrivals

    @property
    def batches_writebacks(self) -> bool:
        """Whether a reclaim batch's writebacks may go out in one
        :meth:`writeback` call.  With a fault injector armed (retries,
        abandonment) or the CXL tier (tier accounting and its migration
        pump) each victim is written back before the next is touched,
        one page per call."""
        return self.faults is None and self.memtier is None

    def writeback(
        self, first_slot: int, pages: Sequence[Tuple[int, int]], now_us: float
    ) -> None:
        """Write evicted pages back at ``now_us``: page ``pages[i]``
        (pid, vpn) goes to slot ``first_slot + i`` on every holder
        placement picks.  The cluster places and stores the pages in
        order, then each node's WRITEs go out in one link call.  Unless
        :attr:`batches_writebacks`, ``pages`` holds one page: with a
        fault injector armed each copy is written with retries, and the
        CXL tier accounts the writeback.  Writebacks are off the
        critical path: retries only advance a transfer's issue time.
        Raises :class:`RemoteFetchFatalError` when a holder's budget
        runs out."""
        cluster = self.cluster
        if self.faults is None:
            targets = cluster.assign(first_slot, pages)
            for node in dict.fromkeys(targets):
                node.fabric.write_page(now_us, targets.count(node))
            cluster.replica_writes += len(targets) - len(pages)
        else:
            ((pid, vpn),) = pages
            targets = cluster.assign(first_slot, pages, store=False)
            for index, target in enumerate(targets):
                self._write_one(first_slot, pid, vpn, target, now_us)
                if index:
                    cluster.replica_writes += 1
        memtier = self.memtier
        if memtier is not None:
            # Tier accounting and pool pressure, then a pump turn.
            ((pid, vpn),) = pages
            memtier.note_writeback(
                cluster.primary_node(first_slot), first_slot, pid, vpn, now_us
            )
            memtier.pump(now_us)

    def _write_one(
        self, slot: int, pid: int, vpn: int, node: ClusterNode, now_us: float
    ) -> None:
        """One holder's write with bounded retries.  On a multi-node
        cluster a write that finds its node restarting re-routes to the
        next live node (the directory is updated); plain fabric drops
        retry the same node with backoff."""
        waited = 0.0
        attempts = 0
        while True:
            t = now_us + waited
            try:
                node.fabric.write_page(t)
                node.remote.write(slot, now_us=t)
                self.health.observe_success(node.node_id, t)
                return
            except TransferTimeout as fault:
                self.timeouts += 1
                attempts += 1
                self._apply_health_events(
                    self.health.observe_timeout(node.node_id, t), now_us
                )
                if attempts > self.retry_limit:
                    raise RemoteFetchFatalError(
                        pid, vpn, attempts,
                        waited_us=waited + fault.wasted_us,
                    ) from fault
                self.retries += 1
                if self.bus is not None:
                    self.bus.emit(EV_RETRY, t, op="writeback", node=node.node_id)
                if (
                    isinstance(fault, RemoteUnavailableError)
                    and self.cluster.node_count > 1
                ):
                    rerouted = self.cluster.reroute(slot, node.node_id)
                    if rerouted.node_id != node.node_id:
                        # Detection cost is paid; the re-issued write
                        # goes straight out on the new node's link.
                        node = rerouted
                        waited += fault.wasted_us
                        continue
                backoff = RETRY_BACKOFF_US * RETRY_BACKOFF_MULTIPLIER ** (attempts - 1)
                waited += fault.wasted_us + backoff

    def release(self, pte: Pte) -> None:
        """The page is local again: drop every copy of its slot across
        the cluster and free the slot, so slot accounting conserves."""
        slot = pte.swap_slot
        if slot >= 0:
            self.cluster.release(slot)
            self.swap_space.free(slot)
            pte.swap_slot = -1

    # -- the time side -----------------------------------------------------------

    def step(self, now_us: float) -> bool:
        """Recovery's turn at the start of an access: the heartbeat,
        its events, then one repair (or scrub) pump.  Returns whether a
        recovery event fired since the last step."""
        health = self.health
        if health is None:
            return False
        self._apply_health_events(health.tick(now_us), now_us)
        self.repair.pump(now_us)
        recovered = self._recovered
        self._recovered = False
        return recovered

    def due_us(self) -> float:
        """The earliest access start time at which :meth:`step` acts:
        the earlier of the next heartbeat and the repair engine's next
        turn (:meth:`RepairEngine.due_us`); ``-inf`` right after a
        recovery event, and ``inf`` for good when recovery is not armed."""
        health = self.health
        if health is None:
            return inf
        if self._recovered:
            return -inf
        return min(health.due_us(), self.repair.due_us())

    def _apply_health_events(self, events: List[HealthEvent], now_us: float) -> None:
        """Route monitor events into the repair engine.  Events can
        fire mid-fault, when the machine's structures are legitimately
        in transition, so the sanitizer's sweep waits for the next
        access (:meth:`step` reports it)."""
        for event, node_id in events:
            if event == EVENT_DOWN:
                self.repair.on_node_down(node_id, now_us)
            elif event == EVENT_REJOIN:
                self.repair.on_node_rejoin(node_id, now_us)
        if events:
            self._recovered = True

    # -- recovery control ------------------------------------------------------------

    def drain_node(self, node_id: int, now_us: float) -> None:
        """Gracefully decommission ``node_id``: stop placing new copies
        on it and background-evacuate the pages it holds.  Requires
        recovery to be armed (any fault plan, even an empty one)."""
        if self.health is None:
            raise RuntimeError(
                "recovery is not armed: construct the machine with a fault "
                "plan (an empty FaultPlan() suffices) to enable drain"
            )
        self.health.start_drain(node_id, now_us)
        self.repair.on_drain(node_id)

    def flush_memtier(self, now_us: float) -> None:
        """Drain every queued tier migration at ``now_us``."""
        if self.memtier is not None:
            self.memtier.flush(now_us)

    def flush_recovery(self, now_us: float) -> None:
        """Drive recovery to quiescence at ``now_us``: force a heartbeat
        probe, apply its events, run the repair queue dry, and repeat
        until nothing moves (a drain completion unlocks a rejoin, a
        rejoin queues top-ups, ...).  No-op when recovery is not armed."""
        health = self.health
        if health is None:
            return
        for _ in range(4):
            events = health.tick(now_us, force=True)
            self._apply_health_events(events, now_us)
            # Flush before judging quiescence: an already-empty DRAINING
            # node has no evacuate tasks, so the queue alone looks idle
            # while the drain still needs its completion check.
            before = health.states_snapshot()
            self.repair.flush(now_us)
            if (
                not events
                and self.repair.idle
                and health.states_snapshot() == before
            ):
                break
        # The machine's final sweep follows; nothing is left pending.
        self._recovered = False

    # -- results ---------------------------------------------------------------------

    def collect(self, result: "RunResult") -> None:
        """Copy the remote side's counters into ``result``."""
        cluster = self.cluster
        result.fabric_reads = cluster.fabric_reads
        result.fabric_writes = cluster.fabric_writes
        result.timeouts = self.timeouts
        result.retries = self.retries
        result.retry_latency_us = self.retry_latency_us
        result.remote_nodes = cluster.node_count
        result.placement = cluster.placement.name
        result.replication = cluster.config.replication
        result.demand_failovers = cluster.demand_failovers
        result.writeback_reroutes = cluster.writeback_reroutes
        result.replica_writes = cluster.replica_writes
        result.node_stats = [node.stats_snapshot() for node in cluster.nodes]
        result.pages_zero_filled = self.pages_zero_filled
        result.directory_misses = cluster.directory_misses
        if self.health is not None:
            result.node_crashes = self.health.node_crashes
            result.node_rejoins = self.health.node_rejoins
            for name in ("pages_repaired", "pages_lost", "pages_drained",
                         "repair_reads", "repair_writes", "repair_bytes",
                         "repair_retries"):
                setattr(result, name, getattr(self.repair, name))
        if self.memtier is not None:
            result.memtier = self.memtier.section()
        if self.integrity is not None:
            result.integrity = self.integrity.section()
