"""The compute-node machine model: ties the cache/MC substrate, the
kernel VMS, the RDMA fabric, a fault-time prefetcher (the baselines) and
optionally the HoPP data plane into one trace-driven simulator.

The input is the LLC-miss reference stream (cacheline-granular virtual
addresses per PID).  Virtual time advances only by critical-path costs;
reclaim and prefetch transfers proceed asynchronously, interacting with
the application through the shared fabric queue and the LRU lists.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.baselines.base import FaultTimePrefetcher
from repro.cluster.cluster import (
    ClusterConfig,
    ClusterNode,
    PageLostError,
    RemoteMemoryCluster,
)
from repro.cluster.health import (
    EVENT_DOWN,
    EVENT_REJOIN,
    HealthEvent,
    HealthMonitor,
)
from repro.cluster.repair import RepairEngine
from repro.common.constants import (
    PAGE_SHIFT,
    T_CONTEXT_SWITCH_US,
    T_DRAM_HIT_US,
    T_MINOR_FAULT_US,
    T_PREFETCH_HIT_US,
    T_PREFETCH_ISSUE_US,
    T_PTE_SET_US,
    T_PTE_WALK_US,
    T_RECLAIM_CRITICAL_RESIDUE_US,
    T_SWAPCACHE_OP_US,
)
from repro.common.types import FaultBreakdown
from repro.hopp.hpd import HotPageDetector
from repro.hopp.system import HoppDataPlane
from repro.integrity import (
    IntegrityController,
    PageCorruptError,
    PatrolScrubber,
    ScrubConfig,
)
from repro.kernel.cgroup import CgroupManager, CgroupOverLimitError, MemoryCgroup
from repro.kernel.frames import FrameAllocator
from repro.kernel.page_table import PageTable, Pte, PteState
from repro.kernel.reclaim import LruPageList, Reclaimer
from repro.kernel.swap import SwapCache, SwapSpace
from repro.kernel.vma import VmaRegistry
from repro.memsim.controller import MemoryController
from repro.memtier import MemtierConfig, MigrationEngine, derive_node_tiers
from repro.net.faults import (
    FaultInjector,
    FaultPlan,
    RemoteFetchFatalError,
    RemoteUnavailableError,
    TransferTimeout,
)
from repro.net.rdma import FabricConfig, RdmaFabric
from repro.net.remote import RemoteMemoryNode
from repro.sim import batchkernel
from repro.sim.sanitizer import InvariantSanitizer
from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry.events import (
    EV_CACHE_INVALIDATE,
    EV_DEMAND_FAULT,
    EV_PREFETCH_DROP,
    EV_PREFETCH_HIT,
    EV_PREFETCH_ISSUE,
    EV_PREFETCH_LAND,
    EV_PREFETCH_UNUSED,
    EV_RETRY,
)

PAGE_OFFSET_MASK = (1 << PAGE_SHIFT) - 1

#: Exponential backoff between retries of a synchronous transfer:
#: ``RETRY_BACKOFF_US * RETRY_BACKOFF_MULTIPLIER ** (attempt - 1)``.
RETRY_BACKOFF_US = 25.0
RETRY_BACKOFF_MULTIPLIER = 2.0
#: Accesses between invariant-sanitizer sweeps (``RunEnv.check_invariants``).
SANITIZER_INTERVAL_ACCESSES = 2000


@dataclass(frozen=True)
class RunEnv:
    """The optional conditions a run is measured under.

    The runner applies one env to every system under test and never to
    the CT_local yardstick: degraded or distributed hardware is the
    condition being measured, not the baseline.  Every default leaves
    the run byte-identical to the paper's single-node, fault-free
    configuration.
    """

    #: Fault-injection schedule; None leaves the remote-memory path
    #: byte-identical to the unhooked simulator.  An *empty* plan arms
    #: the health-monitor, repair and drain machinery without injecting
    #: any fault.
    fault_plan: Optional[FaultPlan] = None
    #: Remote-pool topology.  The default (one node, interleave, no
    #: replication) is byte-identical to the pre-cluster single-node
    #: path; ``MachineConfig.remote_capacity_pages`` is split evenly
    #: across nodes.
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    #: Run the cross-layer invariant sanitizer at epoch boundaries and
    #: after every recovery event.  Opt-in: each sweep walks every PTE.
    check_invariants: bool = False
    #: Telemetry recording; None (the default) is the null-object — no
    #: event bus exists, every probe site is one ``is not None`` check
    #: on the cold path, and run output stays byte-identical.
    telemetry: Optional[TelemetryConfig] = None
    #: Memory-tier pool (pooled CXL nodes + hotness-driven migration,
    #: :mod:`repro.memtier`).  None (the default) builds no engine and
    #: keeps every run byte-identical to the untiered simulator.  When
    #: set and ``cluster.node_tiers`` is unset, ``pool_nodes`` pooled
    #: nodes are added in front of the configured (far) nodes and an
    #: ``interleave`` placement upgrades to ``tiered``.
    memtier: Optional[MemtierConfig] = None
    #: Patrol scrubber (:mod:`repro.integrity`): background checksum
    #: audits riding the repair engine's rate limiter.  None (the
    #: default) builds no scrubber and keeps every run byte-identical.
    #: Arming it without a fault plan upgrades to an *empty* plan so the
    #: recovery machinery (whose pump carries the scrubber) exists.
    scrub: Optional[ScrubConfig] = None


@dataclass
class MachineConfig:
    """Compute-node parameters.

    ``local_memory_pages`` is the default cgroup limit (the paper's
    "local memory is set to X% of the workload footprint").
    """

    local_memory_pages: int
    remote_capacity_pages: int = 1 << 22
    fabric: FabricConfig = field(default_factory=FabricConfig)
    watermark_slack: int = 16
    #: Charge prefetched pages to the application's cgroup.  HoPP does;
    #: Fastswap and Leap do not (Section I).
    charge_prefetch: bool = True
    #: Application compute time per LLC-miss access (us), taken from the
    #: workload; it sets how much memory latency overlaps with work.
    compute_us_per_access: float = 0.0
    #: Retry budget for synchronous transfers (demand reads, reclaim
    #: writebacks).  Prefetch reads are never retried — they are dropped.
    demand_retry_limit: int = 8
    #: The run's optional conditions (faults, topology, sanitizer,
    #: telemetry, CXL tier, scrubber).
    env: RunEnv = field(default_factory=RunEnv)
    #: Refuse prefetch charges that would cross the cgroup limit
    #: (``charge(strict=True)``) instead of charging over the limit and
    #: reclaiming later.  The scenario engine's multi-tenant isolation
    #: mode: one tenant's prefetch burst cannot burst its budget.
    strict_cgroup_prefetch: bool = False
    #: Absorb :class:`RemoteFetchFatalError` instead of propagating it:
    #: a demand fault whose retry budget is exhausted resolves with a
    #: zero-filled frame, and a reclaim writeback that cannot complete
    #: abandons the eviction and keeps the page resident.  This is the
    #: scenario engine's never-crash guarantee — availability over
    #: consistency, every absorption counted.
    absorb_fatal_faults: bool = False


class Machine:
    """One compute node plus its remote memory pool."""

    def __init__(
        self,
        config: MachineConfig,
        fault_prefetcher: Optional[FaultTimePrefetcher] = None,
        hopp: Optional[HoppDataPlane] = None,
    ) -> None:
        self.config = config
        self.fault_prefetcher = fault_prefetcher
        self.hopp = hopp
        self.now_us = 0.0

        env = config.env
        plan = env.fault_plan
        if plan is None and env.scrub is not None:
            # The scrubber rides the repair engine's pump, so arming it
            # arms the recovery machinery too — with an *empty* plan,
            # which injects nothing and leaves node injectors unarmed.
            plan = FaultPlan.none()
        cluster_config = env.cluster
        if env.memtier is not None and cluster_config.node_tiers is None:
            # Tiering armed on an untiered topology: put the pooled CXL
            # nodes in front of the configured (far) nodes, and let a
            # default interleave placement upgrade to the tier-aware
            # policy (an explicitly chosen placement is respected).
            cluster_config = replace(
                cluster_config,
                nodes=cluster_config.nodes + env.memtier.pool_nodes,
                node_tiers=derive_node_tiers(
                    cluster_config.nodes, env.memtier.pool_nodes
                ),
                placement=(
                    "tiered"
                    if cluster_config.placement == "interleave"
                    else cluster_config.placement
                ),
            )
        self.cluster = RemoteMemoryCluster(
            cluster_config,
            config.remote_capacity_pages,
            config.fabric,
            fault_plan=plan,
            memtier=env.memtier,
        )
        #: Node 0's injector doubles as the "is fault injection armed"
        #: flag: every node arms iff the plan is non-empty, and on the
        #: default 1-node cluster this is exactly the old single
        #: injector (same plan, same seed).
        self.faults: Optional[FaultInjector] = self.cluster.nodes[0].injector
        self.frames = FrameAllocator(total_frames=1 << 24)
        self.swap_space = SwapSpace()
        self.swapcache = SwapCache()
        #: Recovery is armed iff a fault plan was given at all — an
        #: *empty* plan arms the monitor/repair/drain machinery without
        #: injecting faults; ``fault_plan=None`` leaves ``health`` unset
        #: and every pre-recovery code path byte-identical.
        self.health: Optional[HealthMonitor] = None
        self.repair: Optional[RepairEngine] = None
        if plan is not None:
            self.health = HealthMonitor(self.cluster)
            self.cluster.health = self.health
            self.repair = RepairEngine(self.cluster, self.health, self.swap_space)
        #: Memory-tier migration engine; armed only with a memtier
        #: config, and pumped only from remote-event paths so the
        #: resident-hit fast path never sees it.
        self.memtier: Optional[MigrationEngine] = None
        if env.memtier is not None:
            self.memtier = MigrationEngine(
                self.cluster, self.swap_space, env.memtier
            )
            self.cluster.memtier_hot = self.memtier.is_hot
        #: End-to-end integrity (repro.integrity): armed when the plan
        #: can corrupt pages or a patrol scrubber is configured.  None
        #: otherwise — every verify site is one ``is not None`` check
        #: and corruption-free runs stay byte-identical.
        self.integrity: Optional[IntegrityController] = None
        self.scrubber: Optional[PatrolScrubber] = None
        if (plan is not None and plan.has_corruption) or env.scrub is not None:
            self.integrity = IntegrityController(self.cluster, self.swap_space)
            self.integrity.memtier = self.memtier
            if self.memtier is not None:
                self.memtier.integrity = self.integrity
            if env.scrub is not None:
                self.scrubber = PatrolScrubber(
                    self.cluster, self.integrity, env.scrub
                )
                self.repair.scrubber = self.scrubber
        #: Telemetry, armed only on request.  Probes are observers: they
        #: never touch RNG state or simulator bookkeeping, so an
        #: instrumented run produces the same RunResult counters as an
        #: uninstrumented one (pinned by tests/test_telemetry.py).
        self.telemetry: Optional[Telemetry] = None
        if env.telemetry is not None:
            self.telemetry = Telemetry(env.telemetry)
            bus = self.telemetry.bus
            for node in self.cluster.nodes:
                node.fabric.probe = bus.probe(node=node.node_id)
            if self.health is not None:
                self.health.bus = bus
            if self.repair is not None:
                self.repair.bus = bus
            if self.memtier is not None:
                self.memtier.bus = bus
            if self.integrity is not None:
                self.integrity.bus = bus
        self.sanitizer: Optional[InvariantSanitizer] = (
            InvariantSanitizer(self) if env.check_invariants else None
        )
        self._sanitize_after_recovery = False
        self.cgroups = CgroupManager()
        self.reclaimer = Reclaimer(watermark_slack=config.watermark_slack)
        self.vmas = VmaRegistry()
        self.controller = MemoryController()

        self._page_tables: Dict[int, PageTable] = {}
        self._cgroup_of: Dict[int, MemoryCgroup] = {}
        self._lru_of: Dict[str, LruPageList] = {}
        #: Physical pages resident per cgroup, *including* uncharged
        #: prefetch pages and in-flight fetches: the cgroup's limit
        #: bounds the DRAM the app's pages can occupy regardless of the
        #: accounting policy (frames are physical either way).
        self._resident: Dict[str, int] = {}
        #: Invariant: sum(self._resident.values()) — maintained at every
        #: mutation site so _note_peak is O(1) on the prefetch/fault paths.
        self._resident_total = 0
        #: Pending prefetch arrivals: (arrival_us, seq, pid, vpn).
        self._arrivals: List[Tuple[float, int, int, int]] = []
        self._arrival_seq = 0
        #: Scenario admission gate: a callable ``(pid, tier, now_us) ->
        #: bool`` consulted before any prefetch issues; None (default)
        #: admits everything with a single ``is not None`` check.
        self.prefetch_admission = None
        #: PIDs whose demand reads ride the bulk QP instead of the
        #: priority lane — the degradation ladder's deepest rung: a
        #: degraded best-effort tenant queues behind prefetch traffic.
        self.deprioritized_pids: set = set()

        # Counters surfaced to RunResult.
        self.accesses = 0
        self.minor_faults = 0
        self.remote_demand_reads = 0
        self.prefetch_issued = 0
        self.prefetch_wasted = 0
        self.prefetch_hit_swapcache = 0
        self.prefetch_hit_inflight = 0
        self.prefetch_hit_dram = 0
        self.issued_by_tier: Dict[str, int] = {}
        self.hits_by_tier: Dict[str, int] = {}
        self.breakdown = FaultBreakdown()
        self.peak_resident_pages = 0
        self.compute_us = 0.0
        # Fault-injection counters (all exactly 0 without a fault plan).
        self.timeouts = 0
        self.retries = 0
        self.retry_latency_us = 0.0
        self.dropped_prefetches = 0
        self.dropped_by_tier: Dict[str, int] = {}
        # Recovery counters (all exactly 0 without node crashes/drains).
        #: Demand faults on a page whose every replica died: resolved by
        #: mapping a zero-filled frame (the data is gone).
        self.pages_zero_filled = 0
        #: Swapcache pages whose remote copy was lost but whose local
        #: copy survived: re-written back instead of clean-dropped.
        self.pages_salvaged = 0
        # Overload-shedding counters (all exactly 0 unless a scenario
        # engine installs its hooks or enables the strict/absorb modes).
        #: Prefetches refused by the admission gate (load shedding).
        self.prefetch_throttled = 0
        #: Prefetches refused because the strict cgroup charge would
        #: cross the tenant's budget.
        self.prefetch_overlimit_rejects = 0
        #: Demand faults resolved with a zero-filled frame after the
        #: retry budget died (``absorb_fatal_faults``).
        self.fatal_faults_absorbed = 0
        #: Evictions abandoned because the writeback could not complete;
        #: the page stayed resident (``absorb_fatal_faults``).
        self.writebacks_abandoned = 0

        if hopp is not None:
            self.controller.add_tap(hopp.on_mc_access)

    @property
    def fabric(self) -> RdmaFabric:
        """Node 0's link — *the* link on a single-node cluster."""
        return self.cluster.nodes[0].fabric

    @property
    def remote(self) -> RemoteMemoryNode:
        """Node 0's memory — *the* node on a single-node cluster."""
        return self.cluster.nodes[0].remote

    # -- process setup -------------------------------------------------------------

    def register_process(
        self,
        pid: int,
        cgroup_name: Optional[str] = None,
        limit_pages: Optional[int] = None,
    ) -> PageTable:
        """Create the process's page table and attach it to a cgroup
        (shared 'default' group unless named)."""
        if pid in self._page_tables:
            raise ValueError(f"pid {pid} already registered")
        name = cgroup_name or "default"
        if name not in self._lru_of:
            self.cgroups.create(
                name,
                limit_pages if limit_pages is not None else self.config.local_memory_pages,
                charge_prefetch=self.config.charge_prefetch,
            )
            self._lru_of[name] = LruPageList()
            self._resident[name] = 0
        table = PageTable(pid)
        self._page_tables[pid] = table
        self._cgroup_of[pid] = self.cgroups.get(name)
        if self.hopp is not None:
            self.hopp.maintainer.attach(table)
        return table

    def add_vma(self, pid: int, start_vpn: int, npages: int, name: str = "") -> None:
        self.vmas.for_pid(pid).add(start_vpn, npages, name)

    def page_table(self, pid: int) -> PageTable:
        return self._page_tables[pid]

    def resident_pages(self, cgroup: Optional[str] = None) -> int:
        """Physical pages resident for ``cgroup`` (including uncharged
        prefetch pages and in-flight fetches), or across every cgroup
        when called without an argument."""
        if cgroup is None:
            return self._resident_total
        return self._resident[cgroup]

    # -- main entry: one LLC-miss reference -------------------------------------------

    def access(self, pid: int, vaddr: int, is_write: bool = False) -> float:
        """Drive one cacheline reference through the VM stack; returns
        the critical-path cost charged to the application."""
        self.accesses += 1
        if self._arrivals and self._arrivals[0][0] <= self.now_us:
            self._process_arrivals(self.now_us)
        if self.health is not None:
            self._apply_health_events(self.health.tick(self.now_us))
            self.repair.pump(self.now_us)
        if self.sanitizer is not None and (
            self._sanitize_after_recovery
            or self.accesses % SANITIZER_INTERVAL_ACCESSES == 0
        ):
            self._sanitize_after_recovery = False
            self.sanitizer.check()

        vpn = vaddr >> PAGE_SHIFT
        table = self._page_tables[pid]
        pte = table.entry(vpn)
        state = pte.state

        if state == PteState.PRESENT:
            cost = T_DRAM_HIT_US
            self.breakdown.dram_hit_us += cost
            self._lru_of_pid(pid).touch(pid, vpn)
            if pte.prefetched:
                self._count_prefetch_hit(pid, vpn, pte, "dram")
        elif state == PteState.UNTOUCHED:
            cost = self._minor_fault(pid, vpn, table, pte)
        elif state == PteState.SWAPCACHE:
            cost = self._swapcache_hit(pid, vpn, table, pte)
        elif state == PteState.INFLIGHT:
            cost = self._inflight_hit(pid, vpn, table, pte)
        else:  # PteState.REMOTE
            cost = self._major_fault(pid, vpn, table, pte)

        cost += self.config.compute_us_per_access
        self.compute_us += self.config.compute_us_per_access
        self.now_us += cost
        # The resolved access reaches DRAM through the MC (the HoPP tap).
        paddr = (pte.ppn << PAGE_SHIFT) | (vaddr & PAGE_OFFSET_MASK)
        self.controller.access(self.now_us, paddr, is_write)
        return cost

    def run(self, trace, use_fast_path: bool = True) -> None:
        """Drive a whole (pid, vaddr) or (pid, vaddr, is_write) trace.

        By default the batch kernel (:mod:`repro.sim.batchkernel`)
        retires runs of resident hits without the fault machinery and
        sends every other access through :meth:`access`.  It repeats
        :meth:`access`'s arithmetic operation-for-operation, so every
        counter and timestamp stays byte-identical to
        ``use_fast_path=False``, which sends every reference through
        :meth:`access` (the differential oracle) — pinned by
        tests/test_fastpath.py.  The kernel batches a tap-free machine,
        or one whose only MC tap is a stock :class:`HoppDataPlane`'s
        with a stock :class:`HotPageDetector`.  Other taps (HMTT
        tracers, extra planes, a multi-channel detector, the prototype
        plane's trace ring) and an armed health monitor or sanitizer,
        which need per-access epoch work, take the oracle loop.
        """
        taps = self.controller._taps
        plane = self.hopp
        if (
            use_fast_path
            and self.health is None
            and self.sanitizer is None
            and (
                not taps
                or (
                    type(plane) is HoppDataPlane
                    and taps == [plane.on_mc_access]
                    and type(plane.hpd) is HotPageDetector
                )
            )
        ):
            batchkernel.run(self, trace, plane if taps else None)
            return
        access = self.access
        for item in trace:
            if len(item) == 3:
                access(item[0], item[1], item[2])
            else:
                access(item[0], item[1])

    # -- fault paths -----------------------------------------------------------------

    def _minor_fault(self, pid: int, vpn: int, table: PageTable, pte: Pte) -> float:
        """First touch: allocate a zero page locally."""
        self.minor_faults += 1
        self._ensure_headroom(pid)
        cgroup = self._cgroup_of[pid]
        cgroup.charge(1)
        self._resident[cgroup.name] += 1
        self._resident_total += 1
        self._note_peak()
        ppn = self.frames.allocate(pid, vpn)
        table.map_page(vpn, ppn)
        self._lru_of_pid(pid).insert(pid, vpn)
        return T_MINOR_FAULT_US

    def _swapcache_hit(self, pid: int, vpn: int, table: PageTable, pte: Pte) -> float:
        """Prefetch-hit: the page is local but unmapped (Section II-C)."""
        self.swapcache.take(pid, vpn)
        self._count_prefetch_hit(pid, vpn, pte, "swapcache")
        table.map_page(vpn, pte.ppn)
        self._release_remote_copy(pid, vpn)
        self._lru_of_pid(pid).touch(pid, vpn)
        cost = T_PREFETCH_HIT_US
        self.breakdown.prefetch_hit_us += cost
        return cost

    def _inflight_hit(self, pid: int, vpn: int, table: PageTable, pte: Pte) -> float:
        """The app faulted on a page whose prefetch is still in flight:
        block until arrival, then map."""
        wait = max(pte.arrival_us - self.now_us, 0.0)
        self.breakdown.inflight_wait_us += wait
        self._process_arrivals(self.now_us + wait)
        # The arrival handler moved the page to SWAPCACHE or PRESENT.
        if pte.state == PteState.SWAPCACHE:
            self.swapcache.take(pid, vpn)
            table.map_page(vpn, pte.ppn)
            self._release_remote_copy(pid, vpn)
        self._count_prefetch_hit(pid, vpn, pte, "inflight")
        self._lru_of_pid(pid).touch(pid, vpn)
        cost = wait + T_PREFETCH_HIT_US
        self.breakdown.prefetch_hit_us += T_PREFETCH_HIT_US
        return cost

    def _major_fault(self, pid: int, vpn: int, table: PageTable, pte: Pte) -> float:
        """Demand swap-in over RDMA — the costly synchronous path."""
        self.remote_demand_reads += 1
        self._ensure_headroom(pid)
        cgroup = self._cgroup_of[pid]
        cgroup.charge(1)
        self._resident[cgroup.name] += 1
        self._resident_total += 1
        self._note_peak()
        ppn = self.frames.allocate(pid, vpn)
        pte.ppn = ppn
        slot = pte.swap_slot
        zero_filled = False
        if self._slot_is_lost(slot):
            # Every replica died with its node: nothing to fetch.  Map a
            # zero-filled frame and carry on — the disaggregated-memory
            # analogue of an uncorrectable machine check.
            rdma_wait = 0.0
            self.pages_zero_filled += 1
            zero_filled = True
        elif self._slot_is_poisoned(slot):
            # Every copy is known-bad (CXL poison): serving it would
            # return garbage, so the read resolves like a machine-check
            # — a zero-filled frame, counted separately from loss.
            rdma_wait = 0.0
            self.integrity.poisoned_reads += 1
            self.pages_zero_filled += 1
            zero_filled = True
        elif self.faults is None:
            node = self.cluster.primary_node(slot)
            completion = node.fabric.read_page(
                self.now_us, priority=pid not in self.deprioritized_pids
            )
            rdma_wait = completion - self.now_us
            if self.memtier is not None:
                self.memtier.note_demand_read(node, pid, vpn, self.now_us)
        else:
            try:
                rdma_wait = self._demand_fetch_resilient(pid, vpn, slot)
            except PageLostError as gone:
                # The loss was discovered by this very fault's retries:
                # the detection latency is paid, then zero-fill.
                rdma_wait = gone.waited_us
                self.pages_zero_filled += 1
                zero_filled = True
            except PageCorruptError as rotten:
                # This very fault discovered that no clean copy exists:
                # the slot was just poisoned, the verify latency is
                # paid, then zero-fill.
                rdma_wait = rotten.waited_us
                self.integrity.poisoned_reads += 1
                self.pages_zero_filled += 1
                zero_filled = True
            except RemoteFetchFatalError as fatal:
                if not self.config.absorb_fatal_faults:
                    raise
                # Availability over consistency: the retry budget is
                # spent, so resolve the fault with a zero-filled frame
                # rather than crash the tenant.  The (possibly live)
                # remote copy is released below with the slot.
                rdma_wait = fatal.waited_us
                self.fatal_faults_absorbed += 1
                zero_filled = True
        table.map_page(vpn, ppn)
        self._release_remote_copy(pid, vpn, slot)
        self._lru_of_pid(pid).insert(pid, vpn)
        cost = (
            T_CONTEXT_SWITCH_US
            + T_PTE_WALK_US
            + T_SWAPCACHE_OP_US
            + rdma_wait
            + T_PTE_SET_US
            + T_RECLAIM_CRITICAL_RESIDUE_US
        )
        self.breakdown.remote_fault_us += cost
        if self.fault_prefetcher is not None:
            fault_time = self.now_us + cost
            targets = self.fault_prefetcher.on_fault(
                pid, vpn, slot, fault_time, self
            )
            inject = self.fault_prefetcher.inject_pte
            tier = self.fault_prefetcher.name
            issued = 0
            for target_pid, target_vpn in targets:
                if (
                    self.prefetch_page(target_pid, target_vpn, fault_time, inject, tier)
                    is not None
                ):
                    issued += 1
            # Posting prefetch reads from the fault handler is critical-
            # path work (Section II-A step 3 repeats per window page).
            issue_cost = issued * T_PREFETCH_ISSUE_US
            cost += issue_cost
            self.breakdown.remote_fault_us += issue_cost
        if self.telemetry is not None:
            self.telemetry.bus.emit(
                EV_DEMAND_FAULT,
                self.now_us,
                pid=pid,
                vpn=vpn,
                wait_us=rdma_wait,
                cost_us=cost,
                zero_filled=zero_filled,
            )
        if self.memtier is not None:
            self.memtier.pump(self.now_us)
        return cost

    def _demand_fetch_resilient(self, pid: int, vpn: int, slot: int) -> float:
        """Demand READ with bounded exponential-backoff retries.

        Each dropped completion costs its CQE-timeout wait plus a
        growing backoff; the retry re-issues at the advanced time, which
        is what lets it escape link-down and restart windows.  Returns
        the total wait charged to the fault (retries + final transfer +
        any remote stall); raises ``RemoteFetchFatalError`` once the
        budget is exhausted.

        With integrity armed, every completed read is verified: a
        transient wire flip re-reads the same node (detected and
        repaired on the spot); a stored-corrupt copy fails over to the
        next replica, and when every replica is corrupt the slot is
        poisoned and ``PageCorruptError`` raised.  A clean read that
        followed corrupt copies repairs them all — the fault's release
        of the slot discards every bad replica.
        """
        waited = 0.0
        attempts = 0
        flips = 0
        candidates = (
            self.cluster.read_candidates(slot)
            if slot is not None and slot >= 0
            else [self.cluster.nodes[0]]
        )
        target = 0
        prio = pid not in self.deprioritized_pids
        integrity = self.integrity
        bad: set = set()
        while True:
            node = candidates[target % len(candidates)]
            if bad and node.node_id in bad and len(bad) < len(candidates):
                # Known-corrupt holder; an unexamined replica remains.
                target += 1
                continue
            t = self.now_us + waited
            try:
                completion = node.fabric.read_page(t, priority=prio)
                if slot is not None and slot >= 0:
                    node.remote.read(slot, now_us=t)
                stall = node.injector.remote_delay_us(t)
                if (
                    integrity is not None
                    and slot is not None
                    and slot >= 0
                    and node.injector is not None
                ):
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
                        if flips <= self.config.demand_retry_limit:
                            flips += 1
                            waited += (completion - t) + stall
                            continue
                if self.health is not None:
                    self.health.observe_success(node.node_id, t)
                if self.memtier is not None:
                    self.memtier.note_demand_read(node, pid, vpn, t)
                if bad and integrity is not None:
                    # A clean copy served the page; the corrupt replicas
                    # die with the slot's release, so they count repaired.
                    integrity.note_repaired(len(bad), t, slot, node.node_id)
                    bad.clear()
                return waited + (completion - t) + stall
            except TransferTimeout as fault:
                self.timeouts += 1
                attempts += 1
                if self.hopp is not None:
                    self.hopp.on_fabric_timeout(t)
                if self.health is not None:
                    self._apply_health_events(
                        self.health.observe_timeout(node.node_id, t)
                    )
                    if slot is not None and slot >= 0 and self.cluster.is_lost(slot):
                        # The timeout just exposed a permanent crash and
                        # this slot had no surviving replica.
                        if bad and integrity is not None:
                            integrity.note_unresolved(len(bad))
                        raise PageLostError(
                            pid, vpn, slot, waited_us=waited + fault.wasted_us
                        ) from fault
                if attempts > self.config.demand_retry_limit:
                    if bad and integrity is not None:
                        integrity.note_unresolved(len(bad))
                    raise RemoteFetchFatalError(
                        pid, vpn, attempts,
                        waited_us=waited + fault.wasted_us,
                    ) from fault
                self.retries += 1
                if self.telemetry is not None:
                    self.telemetry.bus.emit(
                        EV_RETRY, t, op="demand", node=node.node_id
                    )
                if (
                    isinstance(fault, RemoteUnavailableError)
                    and len(candidates) > 1
                ):
                    # The node is restarting and a replica holds the
                    # page one link over: fail over immediately.  The
                    # detection timeout is paid, the backoff is not —
                    # the retry goes straight out on a live QP.
                    target += 1
                    self.cluster.demand_failovers += 1
                    waited += fault.wasted_us
                    self.retry_latency_us += fault.wasted_us
                    continue
                backoff = RETRY_BACKOFF_US * RETRY_BACKOFF_MULTIPLIER ** (attempts - 1)
                waited += fault.wasted_us + backoff
                self.retry_latency_us += fault.wasted_us + backoff

    # -- the prefetch backend (HoPP executor + fault-time baselines) ------------------

    def prefetch_page(
        self, pid: int, vpn: int, now_us: float, inject_pte: bool, tier: str
    ):
        """Fetch (pid, vpn) from remote asynchronously.  Returns the
        arrival time, or None when there is nothing remote to fetch
        (already local/in flight, never touched, or unknown PID)."""
        table = self._page_tables.get(pid)
        if table is None or vpn < 0:
            return None
        # peek, not entry: a rejected speculative target must not leave
        # an UNTOUCHED PTE behind in the page table.
        pte = table.peek(vpn)
        if pte is None or pte.state != PteState.REMOTE:
            return None
        if self._slot_is_lost(pte.swap_slot) or self._slot_is_poisoned(
            pte.swap_slot
        ):
            # Every replica died (or is known-bad); nothing worth
            # fetching — the demand path will zero-fill on first touch.
            return None
        if self.prefetch_admission is not None and not self.prefetch_admission(
            pid, tier, now_us
        ):
            self.prefetch_throttled += 1
            return None
        cgroup = self._cgroup_of[pid]
        if self.config.strict_cgroup_prefetch and cgroup.charge_prefetch:
            # Strict mode: a prefetch must fit the budget's *existing*
            # headroom — it never reclaims resident pages to make room
            # for itself.  Refuse before any fabric traffic.
            try:
                cgroup.charge(1, prefetch=True, strict=True)
            except CgroupOverLimitError:
                self.prefetch_overlimit_rejects += 1
                return None
        else:
            self._ensure_headroom(pid)
            cgroup.charge(1, prefetch=True)
        self._resident[cgroup.name] += 1
        self._resident_total += 1
        pte.ppn = self.frames.allocate(pid, vpn)
        node = self._node_for_page(pte)
        try:
            completion = node.fabric.read_page(now_us)
            if self.faults is not None:
                if pte.swap_slot is not None and pte.swap_slot >= 0:
                    node.remote.read(pte.swap_slot, now_us=now_us)
                completion += node.injector.remote_delay_us(now_us)
        except TransferTimeout:
            # Prefetches are speculative: never retried, dropped with
            # full bookkeeping cleanup so every counter still conserves.
            self.frames.free(pte.ppn)
            pte.ppn = -1
            cgroup.uncharge(1, prefetch=True)
            self._resident[cgroup.name] -= 1
            self._resident_total -= 1
            self.timeouts += 1
            self.prefetch_issued += 1
            self.issued_by_tier[tier] = self.issued_by_tier.get(tier, 0) + 1
            self.dropped_prefetches += 1
            self.dropped_by_tier[tier] = self.dropped_by_tier.get(tier, 0) + 1
            if self.hopp is not None:
                self.hopp.on_prefetch_dropped(now_us)
            if self.telemetry is not None:
                bus = self.telemetry.bus
                bus.emit(
                    EV_PREFETCH_ISSUE, now_us,
                    pid=pid, vpn=vpn, tier=tier, arrival_us=-1.0,
                )
                bus.emit(EV_PREFETCH_DROP, now_us, tier=tier, n=1)
            return None
        self._note_peak()
        pte.state = PteState.INFLIGHT
        pte.prefetched = True
        pte.prefetch_tier = tier
        pte.arrival_us = completion
        pte.injected = inject_pte
        self._arrival_seq += 1
        heapq.heappush(self._arrivals, (completion, self._arrival_seq, pid, vpn))
        self.prefetch_issued += 1
        self.issued_by_tier[tier] = self.issued_by_tier.get(tier, 0) + 1
        if self.memtier is not None:
            self.memtier.note_prefetch_read(node, 1)
        if self.telemetry is not None:
            self.telemetry.bus.emit(
                EV_PREFETCH_ISSUE, now_us,
                pid=pid, vpn=vpn, tier=tier, arrival_us=completion,
            )
        return completion

    def prefetch_batch(
        self,
        pid: int,
        start_vpn: int,
        npages: int,
        now_us: float,
        inject_pte: bool,
        tier: str,
    ):
        """Fetch every REMOTE page in [start_vpn, start_vpn + npages) as
        one scatter-gather RDMA request (Section IV's 2 MB batch).
        Returns the shared arrival time, or None when nothing in the
        range is remote."""
        table = self._page_tables.get(pid)
        if table is None or npages < 1:
            return None
        fetchable = []
        for vpn in range(max(start_vpn, 0), start_vpn + npages):
            pte = table.peek(vpn)
            if (
                pte is not None
                and pte.state == PteState.REMOTE
                and not self._slot_is_lost(pte.swap_slot)
                and not self._slot_is_poisoned(pte.swap_slot)
            ):
                fetchable.append(vpn)
        if not fetchable:
            return None
        if self.prefetch_admission is not None and not self.prefetch_admission(
            pid, tier, now_us
        ):
            self.prefetch_throttled += len(fetchable)
            return None
        # One scatter-gather request per node holding pages of the range
        # (pages interleaved across nodes fragment the batch; affinity
        # placement keeps it whole).  Node order is first appearance in
        # the VPN range, so grouping is deterministic.
        groups: Dict[int, List[int]] = {}
        for vpn in fetchable:
            node = self._node_for_page(table.entry(vpn))
            groups.setdefault(node.node_id, []).append(vpn)
        cgroup = self._cgroup_of[pid]
        last_arrival = None
        for node_id, vpns in groups.items():
            node = self.cluster.nodes[node_id]
            try:
                arrivals = node.fabric.read_batch(now_us, len(vpns))
                if self.faults is not None:
                    node.injector.check_remote(now_us)
            except TransferTimeout:
                # This node's scatter-gather request lost its completion;
                # drop every page in it (nothing was charged or
                # allocated yet).  Other nodes' requests proceed.
                count = len(vpns)
                self.timeouts += 1
                self.prefetch_issued += count
                self.issued_by_tier[tier] = self.issued_by_tier.get(tier, 0) + count
                self.dropped_prefetches += count
                self.dropped_by_tier[tier] = (
                    self.dropped_by_tier.get(tier, 0) + count
                )
                if self.hopp is not None:
                    self.hopp.on_prefetch_dropped(now_us)
                if self.telemetry is not None:
                    bus = self.telemetry.bus
                    bus.emit(
                        EV_PREFETCH_ISSUE, now_us,
                        tier=tier, arrival_us=-1.0, n=count,
                    )
                    bus.emit(EV_PREFETCH_DROP, now_us, tier=tier, n=count)
                continue
            emit = self.telemetry.bus.emit if self.telemetry is not None else None
            strict = self.config.strict_cgroup_prefetch and cgroup.charge_prefetch
            landed = 0
            for vpn, arrival in zip(vpns, arrivals):
                if strict:
                    # Strict mode: the page lands only if it fits the
                    # budget's existing headroom — prefetch never
                    # reclaims resident pages to make room for itself.
                    # The batch transfer already happened, but nothing
                    # was allocated or charged for a refused page, so
                    # every counter still conserves.
                    try:
                        cgroup.charge(1, prefetch=True, strict=True)
                    except CgroupOverLimitError:
                        self.prefetch_overlimit_rejects += 1
                        continue
                else:
                    self._ensure_headroom(pid)
                    cgroup.charge(1, prefetch=True)
                self._resident[cgroup.name] += 1
                self._resident_total += 1
                pte = table.entry(vpn)
                pte.ppn = self.frames.allocate(pid, vpn)
                pte.state = PteState.INFLIGHT
                pte.prefetched = True
                pte.prefetch_tier = tier
                pte.arrival_us = arrival
                pte.injected = inject_pte
                self._arrival_seq += 1
                heapq.heappush(self._arrivals, (arrival, self._arrival_seq, pid, vpn))
                landed += 1
                if emit is not None:
                    emit(
                        EV_PREFETCH_ISSUE, now_us,
                        pid=pid, vpn=vpn, tier=tier, arrival_us=arrival,
                    )
            self._note_peak()
            self.prefetch_issued += landed
            self.issued_by_tier[tier] = self.issued_by_tier.get(tier, 0) + landed
            if self.memtier is not None:
                # Count transfers, not landings: the scatter-gather READ
                # moved every page even if strict mode refused some.
                self.memtier.note_prefetch_read(node, len(vpns))
            if landed and (last_arrival is None or arrivals[-1] > last_arrival):
                last_arrival = arrivals[-1]
        return last_arrival

    def _process_arrivals(self, upto_us: float) -> None:
        while self._arrivals and self._arrivals[0][0] <= upto_us:
            arrival, _, pid, vpn = heapq.heappop(self._arrivals)
            table = self._page_tables[pid]
            pte = table.entry(vpn)
            if pte.state != PteState.INFLIGHT:
                continue
            if pte.injected:
                # Early PTE injection: map immediately, no future fault.
                table.map_page(vpn, pte.ppn, injected=True)
                self._release_remote_copy(pid, vpn)
            else:
                pte.state = PteState.SWAPCACHE
                self.swapcache.insert(pid, vpn, pte.arrival_us)
            self._lru_of_pid(pid).insert(pid, vpn)
            if self.telemetry is not None:
                self.telemetry.bus.emit(
                    EV_PREFETCH_LAND, arrival,
                    pid=pid, vpn=vpn, tier=pte.prefetch_tier,
                )

    # -- prefetch-hit accounting --------------------------------------------------------

    def _count_prefetch_hit(self, pid: int, vpn: int, pte: Pte, kind: str) -> None:
        if not pte.prefetched:
            return
        pte.prefetched = False
        tier = pte.prefetch_tier
        self.hits_by_tier[tier] = self.hits_by_tier.get(tier, 0) + 1
        if kind == "dram":
            self.prefetch_hit_dram += 1
        elif kind == "swapcache":
            self.prefetch_hit_swapcache += 1
        else:
            self.prefetch_hit_inflight += 1
        cgroup = self._cgroup_of[pid]
        cgroup.promote_prefetch(1)
        if self.telemetry is not None:
            self.telemetry.bus.emit(
                EV_PREFETCH_HIT, self.now_us,
                pid=pid, vpn=vpn, tier=tier, where=kind,
            )
        if self.hopp is not None:
            self.hopp.on_page_mapped(pid, vpn, self.now_us)
        if (
            self.fault_prefetcher is not None
            and tier == self.fault_prefetcher.name
        ):
            self.fault_prefetcher.on_prefetch_hit(pid, vpn, self.now_us, self)

    # -- reclaim -----------------------------------------------------------------------

    def _ensure_headroom(self, pid: int) -> None:
        cgroup = self._cgroup_of[pid]
        resident = self._resident[cgroup.name]
        if resident + 1 <= cgroup.limit_pages:
            return
        lru = self._lru_of_pid(pid)
        evicted = 0
        clean = 0
        # Stream-behind hints from the HoPP data plane go first (the
        # Section IV eviction extension): those pages are dead until the
        # stream's next pass, so evicting them protects reusable pages
        # that plain LRU would sacrifice to the scan.
        advisor = self.hopp.advisor if self.hopp is not None else None
        if advisor is not None:
            goal = resident + 1 - max(cgroup.limit_pages - self.reclaimer.watermark_slack, 0)
            hinted = advisor.take_victims(
                max(goal, 0), lambda vp, vn: lru.__contains__((vp, vn))
            )
            for victim_pid, victim_vpn in hinted:
                clean += self._evict(victim_pid, victim_vpn)
                evicted += 1
        resident = self._resident[cgroup.name]
        victims = self.reclaimer.plan(lru, resident + 1, cgroup.limit_pages)
        for victim_pid, victim_vpn in victims:
            clean += self._evict(victim_pid, victim_vpn)
            evicted += 1
        if evicted:
            self.reclaimer.account(evicted, clean)
            self.breakdown.reclaim_us += T_RECLAIM_CRITICAL_RESIDUE_US

    def _evict(self, pid: int, vpn: int) -> int:
        """Evict one resident page; returns 1 when it was a clean drop."""
        table = self._page_tables[pid]
        pte = table.entry(vpn)
        lru = self._lru_of_pid(pid)
        lru.remove(pid, vpn)
        cgroup = self._cgroup_of[pid]
        wasted = pte.prefetched
        was_prefetch_charge = False
        if pte.state == PteState.SWAPCACHE:
            self.swapcache.drop(pid, vpn)
            if self.telemetry is not None:
                self.telemetry.bus.emit(
                    EV_CACHE_INVALIDATE, self.now_us, pid=pid, vpn=vpn
                )
            if self._slot_is_lost(pte.swap_slot) or self._slot_is_poisoned(
                pte.swap_slot
            ):
                # The remote copy died with its node (or every replica
                # is poisoned); this swapcache page is the last good
                # copy left.  Write it back to a fresh slot instead of
                # clean-dropping it (that would turn a recoverable
                # crash into data loss).
                self._release_remote_copy(pid, vpn)
                slot = self.swap_space.allocate(pid, vpn)
                try:
                    self._writeback_resilient(slot, pid, vpn)
                except RemoteFetchFatalError:
                    if not self.config.absorb_fatal_faults:
                        raise
                    # The salvage writeback burned its retry budget and
                    # this frame is the page's last copy: keep it.  The
                    # page promotes to PRESENT (it already left the
                    # swapcache above) and rejoins the LRU; any replica
                    # already written goes with the abandoned slot.
                    self.cluster.release(slot)
                    self.swap_space.free(slot)
                    pte.swap_slot = -1
                    table.map_page(vpn, pte.ppn)
                    lru.insert(pid, vpn)
                    self.writebacks_abandoned += 1
                    return 0
                pte.swap_slot = slot
                self.pages_salvaged += 1
                self._memtier_note_writeback(slot, pid, vpn)
                clean = 0
            else:
                # Clean: the remote copy at its slot is still valid.
                clean = 1
            self.frames.free(pte.ppn)
            pte.ppn = -1
            pte.state = PteState.REMOTE
            was_prefetch_charge = True
        elif pte.state == PteState.PRESENT:
            ppn = pte.ppn
            table.unmap_page(vpn)
            slot = self.swap_space.allocate(pid, vpn)
            if self.faults is None:
                for index, target in enumerate(
                    self.cluster.assign(slot, pid, vpn)
                ):
                    target.remote.write(slot, pid, vpn)
                    target.fabric.write_page(self.now_us)
                    if index:
                        self.cluster.replica_writes += 1
            else:
                try:
                    self._writeback_resilient(slot, pid, vpn)
                except RemoteFetchFatalError:
                    if not self.config.absorb_fatal_faults:
                        raise
                    # The writeback burned its whole retry budget:
                    # abandon the eviction instead of losing the page.
                    # Replicas already written are released with the
                    # slot, the frame stays mapped, and the page goes
                    # back on the LRU for a later attempt.
                    self.cluster.release(slot)
                    self.swap_space.free(slot)
                    table.map_page(vpn, ppn)
                    lru.insert(pid, vpn)
                    self.writebacks_abandoned += 1
                    return 0
            pte.swap_slot = slot
            self._memtier_note_writeback(slot, pid, vpn)
            self.frames.free(ppn)
            pte.ppn = -1
            pte.state = PteState.REMOTE
            # A PRESENT-but-never-hit page can only be an injected
            # prefetch; it still carries its prefetch charge.
            was_prefetch_charge = wasted
            clean = 0
        else:
            # INFLIGHT pages are not on the LRU; nothing else to evict.
            return 0
        cgroup.uncharge(1, prefetch=was_prefetch_charge and not cgroup.charge_prefetch)
        self._resident[cgroup.name] -= 1
        self._resident_total -= 1
        if wasted:
            pte.prefetched = False
            self.prefetch_wasted += 1
            if self.telemetry is not None:
                self.telemetry.bus.emit(
                    EV_PREFETCH_UNUSED, self.now_us,
                    pid=pid, vpn=vpn, tier=pte.prefetch_tier,
                )
            if self.hopp is not None:
                self.hopp.on_page_evicted(pid, vpn)
            if (
                self.fault_prefetcher is not None
                and pte.prefetch_tier == self.fault_prefetcher.name
            ):
                self.fault_prefetcher.on_prefetch_wasted(pid, vpn)
        return clean

    def _writeback_resilient(self, slot: int, pid: int, vpn: int) -> None:
        """Reclaim writeback with bounded retries.  Writebacks are
        asynchronous (off the application's critical path), so retries
        only advance the transfer's issue time, not ``now_us``; losing
        the page is not an option, so budget exhaustion is fatal.

        On a multi-node cluster a writeback that finds its target node
        restarting re-routes to the next live node (the directory is
        updated); plain fabric drops retry the same node with backoff."""
        targets = self.cluster.assign(slot, pid, vpn)
        for index, target in enumerate(targets):
            self._writeback_one(slot, pid, vpn, target)
            if index:
                self.cluster.replica_writes += 1

    def _writeback_one(
        self, slot: int, pid: int, vpn: int, node: ClusterNode
    ) -> None:
        waited = 0.0
        attempts = 0
        while True:
            t = self.now_us + waited
            try:
                node.fabric.write_page(t)
                node.remote.write(slot, pid, vpn, now_us=t)
                if self.health is not None:
                    self.health.observe_success(node.node_id, t)
                return
            except TransferTimeout as fault:
                self.timeouts += 1
                attempts += 1
                if self.health is not None:
                    self._apply_health_events(
                        self.health.observe_timeout(node.node_id, t)
                    )
                if attempts > self.config.demand_retry_limit:
                    raise RemoteFetchFatalError(
                        pid, vpn, attempts,
                        waited_us=waited + fault.wasted_us,
                    ) from fault
                self.retries += 1
                if self.telemetry is not None:
                    self.telemetry.bus.emit(
                        EV_RETRY, t, op="writeback", node=node.node_id
                    )
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

    # -- helpers ------------------------------------------------------------------------

    def _memtier_note_writeback(self, slot: int, pid: int, vpn: int) -> None:
        """Route a completed writeback into the migration engine (tier
        accounting, pool pressure) and give its pump a turn.  One
        ``None`` check on the default path."""
        if self.memtier is None:
            return
        self.memtier.note_writeback(
            self.cluster.primary_node(slot), slot, pid, vpn, self.now_us
        )
        self.memtier.pump(self.now_us)

    def _release_remote_copy(self, pid: int, vpn: int, slot: Optional[int] = None) -> None:
        """The page is mapped locally again: drop its swap slot — every
        replica across the cluster, so slot accounting conserves."""
        pte = self._page_tables[pid].entry(vpn)
        slot = pte.swap_slot if slot is None else slot
        if slot is not None and slot >= 0:
            self.cluster.release(slot)
            self.swap_space.free(slot)
            pte.swap_slot = -1

    def _slot_is_lost(self, slot: Optional[int]) -> bool:
        """Whether every replica of ``slot`` died with its node(s)."""
        return slot is not None and slot >= 0 and self.cluster.is_lost(slot)

    def _slot_is_poisoned(self, slot: Optional[int]) -> bool:
        """Whether ``slot`` carries the CXL poison mark (every stored
        copy known-bad; reads must zero-fill, never serve)."""
        return slot is not None and slot >= 0 and self.cluster.is_poisoned(slot)

    def _apply_health_events(self, events: List[HealthEvent]) -> None:
        """Route monitor events into the repair engine.  The sanitizer
        run is deferred to the next access boundary — events can fire
        mid-fault, when the structures are legitimately in transition."""
        for event, node_id in events:
            if event == EVENT_DOWN:
                self.repair.on_node_down(node_id, self.now_us)
            elif event == EVENT_REJOIN:
                self.repair.on_node_rejoin(node_id, self.now_us)
        if events and self.sanitizer is not None:
            self._sanitize_after_recovery = True

    # -- recovery control ---------------------------------------------------------------

    def drain_node(self, node_id: int) -> None:
        """Gracefully decommission ``node_id``: stop placing new copies
        on it and background-evacuate the pages it holds.  Requires
        recovery to be armed (any ``fault_plan``, even an empty one)."""
        if self.health is None or self.repair is None:
            raise RuntimeError(
                "recovery is not armed: construct the machine with a fault "
                "plan (an empty FaultPlan() suffices) to enable drain"
            )
        self.health.start_drain(node_id, self.now_us)
        self.repair.on_drain(node_id)

    def flush_memtier(self) -> None:
        """Drain every queued tier migration at the current simulated
        time so end-of-run metrics see a settled pool.  No-op on
        untiered machines."""
        if self.memtier is not None:
            self.memtier.flush(self.now_us)

    def flush_recovery(self) -> None:
        """Drive recovery to quiescence at the current simulated time:
        force a heartbeat probe, apply its events, run the repair queue
        dry, and repeat until nothing moves (a drain completion unlocks
        a rejoin, a rejoin queues top-ups, ...).  No-op when recovery is
        not armed."""
        if self.health is None or self.repair is None:
            return
        for _ in range(4):
            events = self.health.tick(self.now_us, force=True)
            self._apply_health_events(events)
            # Flush before judging quiescence: an already-empty DRAINING
            # node has no evacuate tasks, so the queue alone looks idle
            # while the drain still needs its completion check.
            before = self.health.states_snapshot()
            self.repair.flush(self.now_us)
            if (
                not events
                and self.repair.idle
                and self.health.states_snapshot() == before
            ):
                break
        if self.sanitizer is not None:
            self._sanitize_after_recovery = False
            self.sanitizer.check()

    def _node_for_page(self, pte: Pte) -> ClusterNode:
        """The node holding a REMOTE page's primary copy (node 0 when
        the slot was never placed, matching the single-link model)."""
        slot = pte.swap_slot
        if slot is not None and slot >= 0:
            return self.cluster.primary_node(slot)
        return self.cluster.nodes[0]

    def _lru_of_pid(self, pid: int) -> LruPageList:
        return self._lru_of[self._cgroup_of[pid].name]

    def _note_peak(self) -> None:
        resident = self._resident_total
        if resident > self.peak_resident_pages:
            self.peak_resident_pages = resident

    # -- introspection for prefetchers ----------------------------------------------------

    def demote_page(self, pid: int, vpn: int) -> bool:
        """Move a resident page to the cold end of its cgroup's LRU so
        reclaim takes it first (Leap's eager cache eviction)."""
        if pid not in self._cgroup_of:
            return False
        return self._lru_of_pid(pid).demote(pid, vpn)

    def page_state(self, pid: int, vpn: int) -> PteState:
        table = self._page_tables.get(pid)
        if table is None:
            return PteState.UNTOUCHED
        pte = table.peek(vpn)
        return pte.state if pte is not None else PteState.UNTOUCHED
