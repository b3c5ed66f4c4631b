"""The rack-scale remote-memory cluster.

The paper's prototype uses one passive memory node behind one
Infiniband link; :class:`RemoteMemoryCluster` generalizes that to N
:class:`~repro.net.remote.RemoteMemoryNode`s, each behind its own
:class:`~repro.net.rdma.RdmaFabric` with independent congestion state
and an optional per-node :class:`~repro.net.faults.FaultInjector`
(seeded ``plan.seed + node_id``, so links fail independently but
reproducibly).

The cluster owns the **slot directory**: swap slots are still allocated
globally (monotonic, by :class:`~repro.kernel.swap.SwapSpace`, which is
what Fastswap's slot-neighbor read-ahead depends on) and the directory
encodes each slot's location as (node, slot) — the primary holder plus
``replication - 1`` ring-successor replicas.  Placement of the primary
is pluggable (:mod:`repro.cluster.placement`); every other new copy
(replicas, re-routes, repair, tier migration) lands only on a node that
:meth:`RemoteMemoryCluster.accepts` it.

Failover semantics (exercised by remote-restart fault windows):

* **demand reads** retry on the next replica when ``replication > 1``
  (``demand_failovers``); with a single copy they fall back to the
  single-node backoff-retry behaviour;
* **writebacks** re-route to the next node that accepts a copy
  (``writeback_reroutes``), updating the directory;
* **prefetches** are never failed over — they drop through the
  existing unwind path, because a speculative read is not worth a
  second link's bandwidth while a node is restarting.

Invariant: a 1-node cluster with ``interleave`` placement issues the
exact same sequence of fabric and node operations as the pre-cluster
single-node path, so its metrics are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.placement import PlacementPolicy, build_placement
from repro.net.faults import FaultInjector, FaultPlan
from repro.net.rdma import FabricConfig, RdmaFabric
from repro.net.remote import RemoteMemoryNode


#: Why a slot cannot be read (:attr:`RemoteMemoryCluster.unreadable`):
#: every copy died with its node, or every copy failed verification.
LOST = "lost"
POISONED = "poisoned"


class SlotDirectoryError(KeyError):
    """Lookup of a slot the directory has no entry for.

    Before the self-healing layer this silently fell back to node 0,
    which masked directory corruption; now it is a typed error — a read
    of an unplaced slot is always a caller bug or lost state."""


class PageLostError(RuntimeError):
    """Every copy of a page died with its node(s).

    The backend resolves the fault with a zero-filled frame, counted in
    ``pages_zero_filled`` — the disaggregated-memory analogue of an
    uncorrectable machine check on the lost DRAM."""

    def __init__(
        self, pid: int, vpn: int, slot: int, waited_us: float = 0.0
    ) -> None:
        super().__init__(
            f"page (pid={pid}, vpn={vpn}) lost: slot {slot} had no "
            f"surviving replica"
        )
        self.pid = pid
        self.vpn = vpn
        self.slot = slot
        #: Detection latency already paid by the faulting access when
        #: the loss was discovered mid-retry.
        self.waited_us = waited_us


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the remote-memory pool.

    ``nodes``                   memory nodes, each behind its own link.
    ``placement``               primary-copy placement policy name.
    ``replication``             copies per page (1 = no replicas).
    ``capacity_pages_per_node`` override; default splits the machine's
                                total remote capacity evenly.
    ``node_tiers``              optional per-node *memory-tier* labels
                                ("pool" = pooled CXL tier, "far" = RDMA
                                far tier; see :mod:`repro.memtier` —
                                not the HoPP SSP/LSP/RSP prefetch
                                tiers).  None (the default) is the
                                untiered legacy cluster.
    """

    nodes: int = 1
    placement: str = "interleave"
    replication: int = 1
    capacity_pages_per_node: Optional[int] = None
    node_tiers: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if not 1 <= self.replication <= self.nodes:
            raise ValueError(
                f"replication must be in [1, nodes={self.nodes}], "
                f"got {self.replication}"
            )
        if (
            self.capacity_pages_per_node is not None
            and self.capacity_pages_per_node < 1
        ):
            raise ValueError("capacity_pages_per_node must be >= 1")
        if self.node_tiers is not None:
            tiers = tuple(self.node_tiers)
            object.__setattr__(self, "node_tiers", tiers)
            if len(tiers) != self.nodes:
                raise ValueError(
                    f"node_tiers must label every node: got {len(tiers)} "
                    f"labels for {self.nodes} nodes"
                )
            bad = sorted({t for t in tiers if t not in ("pool", "far")})
            if bad:
                raise ValueError(
                    f"node_tiers entries must be 'pool' or 'far', got {bad}"
                )
            if "far" not in tiers:
                raise ValueError(
                    "node_tiers needs at least one 'far' node — demotion "
                    "under pool pressure has nowhere to go without one"
                )
        # Fail on typos at construction, not mid-run.
        build_placement(self.placement)


def _plan_for_node(plan: FaultPlan, node_id: int, nnodes: int) -> FaultPlan:
    """Derive node ``node_id``'s share of a cluster-wide fault plan.

    Probabilistic drops and degraded epochs are fabric-wide conditions:
    every node keeps them, with an independent RNG (``seed + node_id``).
    Windowed single-machine faults — link flaps, remote stalls, remote
    restarts — strike one node at a time: window *i* lands on node
    ``i % nnodes``, so a restart takes down one node while its replicas
    stay reachable (which is what failover exists for).  With one node
    this is the identity partition, keeping single-node runs byte-equal
    to the pre-cluster path.
    """

    def share(windows):
        return tuple(
            w for i, w in enumerate(windows) if i % nnodes == node_id
        )

    return replace(
        plan,
        seed=plan.seed + node_id,
        link_down=share(plan.link_down),
        remote_stall=share(plan.remote_stall),
        remote_restart=share(plan.remote_restart),
        # Crash/rejoin times are index-paired, and ``share`` filters both
        # by the same index, so each node keeps its pairs intact.
        node_crash=share(plan.node_crash),
        node_rejoin=share(plan.node_rejoin),
    )


class ClusterNode:
    """One memory node and the link leading to it."""

    def __init__(
        self,
        node_id: int,
        fabric: RdmaFabric,
        remote: RemoteMemoryNode,
        injector: Optional[FaultInjector] = None,
        tier: Optional[str] = None,
    ) -> None:
        self.node_id = node_id
        self.fabric = fabric
        self.remote = remote
        self.injector = injector
        #: Memory-tier label ("pool"/"far"); None on untiered clusters.
        self.tier = tier

    def stats_snapshot(self) -> Dict[str, object]:
        remote = self.remote.stats_snapshot()
        snap = {
            "node": self.node_id,
            "fabric": self.fabric.stats_snapshot(),
            "remote": remote,
        }
        if self.tier is not None:
            # Tier keys appear only on tiered clusters so the untiered
            # snapshot (pinned by goldens_v1.json) is unchanged.
            remote["tier"] = self.tier
            remote["pages_migrated_out"] = self.remote.pages_migrated_out
            snap["tier"] = self.tier
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ClusterNode(id={self.node_id}, fabric={self.fabric!r}, "
            f"remote={self.remote!r})"
        )


class RemoteMemoryCluster:
    """N remote nodes, a slot directory, and failover bookkeeping."""

    def __init__(
        self,
        config: ClusterConfig,
        total_capacity_pages: int,
        fabric_config: Optional[FabricConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        memtier=None,
    ) -> None:
        self.config = config
        base = fabric_config or FabricConfig()
        tiers = config.node_tiers
        if tiers is not None and memtier is None:
            # Tier labels without explicit parameters: derive the pool
            # link/capacity from the defaults.
            from repro.memtier.tiers import MemtierConfig

            memtier = MemtierConfig()
        #: The memory-tier parameters (None on untiered clusters); the
        #: ``tiered`` placement reads the pool watermark from here.
        self.memtier_config = memtier if tiers is not None else None
        if tiers is None:
            per_node = config.capacity_pages_per_node or max(
                int(math.ceil(total_capacity_pages / config.nodes)), 1
            )
            capacity_of = [per_node] * config.nodes
            fabric_of = [base] * config.nodes
            tier_of = [None] * config.nodes
        else:
            # The far tier splits the machine's remote capacity (it is
            # the backing store); pool nodes take their own capacity and
            # sit behind a CXL-class link derived by the ratio method.
            far_count = sum(1 for t in tiers if t == "far")
            far_share = config.capacity_pages_per_node or max(
                int(math.ceil(total_capacity_pages / far_count)), 1
            )
            pool_share = (
                config.capacity_pages_per_node
                or memtier.pool_capacity_pages
                or far_share
            )
            cxl = memtier.cxl_fabric_config(base)
            capacity_of = [
                pool_share if t == "pool" else far_share for t in tiers
            ]
            fabric_of = [cxl if t == "pool" else base for t in tiers]
            tier_of = list(tiers)
        armed = fault_plan is not None and not fault_plan.is_empty
        self.nodes: List[ClusterNode] = []
        for node_id in range(config.nodes):
            injector = (
                FaultInjector(_plan_for_node(fault_plan, node_id, config.nodes))
                if armed
                else None
            )
            link = fabric_of[node_id]
            fabric = RdmaFabric(
                replace(link, seed=link.seed + node_id), injector=injector
            )
            remote = RemoteMemoryNode(capacity_of[node_id], injector=injector)
            self.nodes.append(
                ClusterNode(node_id, fabric, remote, injector, tier=tier_of[node_id])
            )
        #: Hotness oracle ``(pid, vpn) -> bool`` installed by the
        #: machine's migration engine; the ``tiered`` placement consults
        #: it.  None (untiered, or tiering disabled) means nothing hot.
        self.memtier_hot = None
        self.placement: PlacementPolicy = build_placement(config.placement)
        #: slot -> node ids holding a copy, primary first.
        self._holders: Dict[int, List[int]] = {}
        #: slot -> why no read of it may hit the fabric; reads of these
        #: zero-fill.  ``LOST``: every copy died with its node.
        #: ``POISONED``: every copy failed checksum verification (CXL
        #: poison semantics — the data still *exists*, so holders stay
        #: in the directory, but promotion to the pool tier is barred).
        self.unreadable: Dict[int, str] = {}
        #: Optional :class:`~repro.cluster.health.HealthMonitor`;
        #: attached by the backend when recovery is armed.  When present,
        #: placement and re-routing skip non-placeable (DOWN/DRAINING)
        #: nodes; when absent, behaviour is byte-identical to pre-health.
        self.health = None
        # Failover counters, surfaced into RunResult.
        self.demand_failovers = 0
        self.writeback_reroutes = 0
        self.replica_writes = 0
        self.directory_misses = 0

    # -- topology ---------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def node_tiers(self) -> Optional[Tuple[str, ...]]:
        """Per-node memory-tier labels (None on untiered clusters)."""
        return self.config.node_tiers

    def node_load(self, node_id: int) -> int:
        """Pages currently stored on ``node_id`` (placement input)."""
        return self.nodes[node_id].remote.pages_stored

    def has_room(self, node_id: int) -> bool:
        node = self.nodes[node_id].remote
        return node.pages_stored < node.capacity_pages

    # -- the slot directory -----------------------------------------------------------

    def accepts(self, node_id: int, holders) -> bool:
        """Whether a new copy of a slot held by ``holders`` may land on
        ``node_id``: the node is placeable (not DOWN/DRAINING when a
        health monitor is attached), does not hold the slot already, and
        has room.  Writeback placement, re-routes, repair and tier
        migration all pick targets by this one rule."""
        return (
            node_id not in holders
            and (self.health is None or self.health.is_placeable(node_id))
            and self.has_room(node_id)
        )

    def assign(
        self,
        first_slot: int,
        pages: Sequence[Tuple[int, int]],
        store: bool = True,
    ) -> List[ClusterNode]:
        """Place a writeback batch: page ``pages[i]`` (pid, vpn) takes
        slot ``first_slot + i``, its primary by policy, then the first
        ring successors that :meth:`accepts` a copy.  With ``store``
        each copy is written to its holder's memory before the next page
        is placed, since placement may read the nodes' load and room; an
        armed writeback stores each copy itself, with retries.  Returns
        the holder of every copy, in write order."""
        nodes = self.nodes
        directory = self._holders
        place = self.placement.place
        count = len(nodes)
        replication = self.config.replication
        # With one copy and no health monitor, the ring walk's first
        # step takes the primary whenever it has room, so the walk is
        # skipped when every node has room for the whole batch.
        batch = len(pages)
        simple = (
            replication == 1
            and self.health is None
            and all(
                node.remote.pages_stored + batch <= node.remote.capacity_pages
                for node in nodes
            )
        )
        targets: List[ClusterNode] = []
        for slot, (pid, vpn) in enumerate(pages, first_slot):
            primary = place(pid, vpn, slot, self)
            if simple:
                holders = [primary]
            else:
                holders = []
                for hop in range(count):
                    candidate = (primary + hop) % count
                    if self.accepts(candidate, holders):
                        holders.append(candidate)
                        if len(holders) == replication:
                            break
                if not holders:
                    # Nowhere to place: fall back to the policy's choice
                    # and let the node's own checks raise (unavailable
                    # routes the caller into backoff-retry; full fails
                    # as on one node).
                    holders = [primary]
            directory[slot] = holders
            for node_id in holders:
                node = nodes[node_id]
                if store:
                    node.remote.write(slot)
                targets.append(node)
        return targets

    def read_candidates(self, slot: int) -> List[ClusterNode]:
        """Holders of ``slot`` in failover order (primary first).

        Raises :class:`SlotDirectoryError` for a slot the directory does
        not know — silently handing back node 0 (the old behaviour)
        masked directory corruption."""
        holders = self._holders.get(slot)
        if not holders:
            self.directory_misses += 1
            raise SlotDirectoryError(
                f"slot {slot} has no directory entry"
            )
        return [self.nodes[node_id] for node_id in holders]

    def primary_node(self, slot: int) -> ClusterNode:
        holders = self._holders.get(slot)
        if not holders:
            self.directory_misses += 1
            raise SlotDirectoryError(
                f"slot {slot} has no directory entry"
            )
        return self.nodes[holders[0]]

    def reroute(self, slot: int, failed_node_id: int) -> ClusterNode:
        """A writeback to ``failed_node_id`` found the node unavailable:
        pick the next ring node that :meth:`accepts` a copy, update the
        directory, and return it.  With nowhere else to go the original
        node is returned and the caller falls back to backoff-retry."""
        holders = self._holders.setdefault(slot, [failed_node_id])
        for hop in range(1, self.node_count):
            candidate = (failed_node_id + hop) % self.node_count
            if self.accepts(candidate, holders):
                if failed_node_id in holders:
                    self._holders[slot] = [
                        candidate if node_id == failed_node_id else node_id
                        for node_id in holders
                    ]
                else:
                    # The failed holder was already dropped (its crash
                    # was detected mid-writeback): the new node joins
                    # the survivors instead of replacing anything.
                    holders.append(candidate)
                self.writeback_reroutes += 1
                return self.nodes[candidate]
        return self.nodes[failed_node_id]

    def release(self, slot: int) -> None:
        """Drop every copy of ``slot`` (the page is local again)."""
        for node_id in self._holders.pop(slot, ()):  # pragma: no branch
            self.nodes[node_id].remote.release(slot)
        if self.unreadable:
            self.unreadable.pop(slot, None)

    def holders_of(self, slot: int) -> Tuple[int, ...]:
        return tuple(self._holders.get(slot, ()))

    def slots_in_directory(self) -> Tuple[int, ...]:
        return tuple(self._holders)

    # -- recovery bookkeeping (driven by the repair engine) -----------------------------

    def drop_holder(self, slot: int, node_id: int) -> None:
        """Remove ``node_id`` from a slot's holder list (its copy died);
        the directory entry disappears when the last holder goes."""
        holders = self._holders.get(slot)
        if holders is None or node_id not in holders:
            return
        holders.remove(node_id)
        if not holders:
            del self._holders[slot]

    def add_holder(self, slot: int, node_id: int) -> None:
        """Record a repaired copy of ``slot`` on ``node_id``."""
        holders = self._holders.get(slot)
        if holders is None:
            self._holders[slot] = [node_id]
        elif node_id not in holders:
            holders.append(node_id)

    def migrate_holder(self, slot: int, from_id: int, to_id: int) -> bool:
        """The migration engine moved ``slot``'s copy from ``from_id``
        to ``to_id``: swap the holder in place (a migrated primary stays
        primary).  Returns False — and changes nothing — when the entry
        moved under the engine or the target already holds a replica."""
        holders = self._holders.get(slot)
        if holders is None or from_id not in holders or to_id in holders:
            return False
        self._holders[slot] = [
            to_id if node_id == from_id else node_id for node_id in holders
        ]
        return True

    def mark_lost(self, slot: int) -> None:
        """Every copy of ``slot`` died; remember it for zero-fill."""
        self._holders.pop(slot, None)
        self.unreadable[slot] = LOST

    def is_lost(self, slot: int) -> bool:
        return self.unreadable.get(slot) == LOST

    def mark_poisoned(self, slot: int) -> None:
        """Every copy of ``slot`` failed verification.  Unlike
        :meth:`mark_lost` the holders stay: the known-bad data still
        occupies its slots until the page is released or salvaged."""
        self.unreadable[slot] = POISONED

    def is_poisoned(self, slot: int) -> bool:
        return self.unreadable.get(slot) == POISONED

    # -- aggregate metrics --------------------------------------------------------------

    @property
    def fabric_reads(self) -> int:
        return sum(node.fabric.reads for node in self.nodes)

    @property
    def fabric_writes(self) -> int:
        return sum(node.fabric.writes for node in self.nodes)

    @property
    def bytes_moved(self) -> int:
        return sum(node.fabric.bytes_moved for node in self.nodes)

    @property
    def pages_stored(self) -> int:
        return sum(node.remote.pages_stored for node in self.nodes)

    def conserved(self) -> bool:
        """True when every node's slot accounting balances."""
        return all(node.remote.conserved for node in self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RemoteMemoryCluster(nodes={self.node_count}, "
            f"placement={self.placement.name!r}, "
            f"replication={self.config.replication}, "
            f"stored={self.pages_stored})"
        )
