"""The compute-node machine model: ties the cache/MC substrate, the
kernel VMS, a fault-time prefetcher (the baselines) and optionally the
HoPP data plane into one trace-driven simulator.  The remote side — the
memory pool behind the RDMA links and whatever a :class:`RunEnv` arms
on it — sits behind one :class:`~repro.cluster.backend.RemoteBackend`.

The input is the LLC-miss reference stream (cacheline-granular virtual
addresses per PID).  Virtual time advances only by critical-path costs;
reclaim and prefetch transfers proceed asynchronously, interacting with
the application through the shared fabric queue and the LRU lists.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.base import FaultTimePrefetcher, NoPrefetch
from repro.cluster.backend import RemoteBackend
from repro.cluster.cluster import ClusterConfig
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
from repro.integrity import ScrubConfig
from repro.kernel.cgroup import CgroupManager, CgroupOverLimitError, MemoryCgroup
from repro.kernel.frames import FrameAllocator
from repro.kernel.page_table import PageTable, Pte, PteState
from repro.kernel.reclaim import Reclaimer
from repro.kernel.swap import SwapSpace
from repro.memsim.controller import MemoryController
from repro.memtier import MemtierConfig
from repro.net.faults import FaultPlan, RemoteFetchFatalError
from repro.net.rdma import FabricConfig
from repro.sim import batchkernel
from repro.sim.sanitizer import SANITIZER_INTERVAL_ACCESSES, InvariantSanitizer
from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry.events import (
    EV_CACHE_INVALIDATE,
    EV_DEMAND_FAULT,
    EV_PREFETCH_DROP,
    EV_PREFETCH_HIT,
    EV_PREFETCH_ISSUE,
    EV_PREFETCH_LAND,
    EV_PREFETCH_UNUSED,
)

PAGE_OFFSET_MASK = (1 << PAGE_SHIFT) - 1


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
    """One compute node; its remote memory pool is :attr:`backend`."""

    def __init__(
        self,
        config: MachineConfig,
        fault_prefetcher: Optional[FaultTimePrefetcher] = None,
    ) -> None:
        self.config = config
        #: The fault-path prefetcher: demand paging only by default.
        self.fault_prefetcher = fault_prefetcher or NoPrefetch()
        #: The HoPP data plane, wired after construction because it
        #: needs the built machine as its backend (``systems._hopp``).
        self.hopp: Optional[HoppDataPlane] = None
        self.now_us = 0.0

        env = config.env
        #: Telemetry, armed only on request.  Probes are observers: they
        #: never touch RNG state or simulator bookkeeping, so an
        #: instrumented run produces the same RunResult counters as an
        #: uninstrumented one (pinned by tests/test_telemetry.py).
        self.telemetry: Optional[Telemetry] = None
        if env.telemetry is not None:
            self.telemetry = Telemetry(env.telemetry)
        self.frames = FrameAllocator(total_frames=1 << 24)
        self.swap_space = SwapSpace()
        #: The remote side: the memory pool plus whatever ``env`` arms on
        #: it (failures, recovery, integrity, the CXL tier).
        self.backend = RemoteBackend(
            config, self.swap_space, self._demand_timeout,
            bus=self.telemetry.bus if self.telemetry is not None else None,
        )
        #: The backend's pool: every node, its link, the slot directory.
        self.cluster = self.backend.cluster
        self.sanitizer: Optional[InvariantSanitizer] = (
            InvariantSanitizer(self) if env.check_invariants else None
        )
        self.cgroups = CgroupManager()
        self.reclaimer = Reclaimer(watermark_slack=config.watermark_slack)
        self.controller = MemoryController()

        #: Each process's one record: its PTEs, cgroup and VMAs.
        self._page_tables: Dict[int, PageTable] = {}
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
        self.prefetch_wasted = 0
        self.prefetch_hit_swapcache = 0
        self.prefetch_hit_inflight = 0
        self.prefetch_hit_dram = 0
        self.issued_by_tier: Dict[str, int] = {}
        self.hits_by_tier: Dict[str, int] = {}
        self.breakdown = FaultBreakdown()
        self.peak_resident_pages = 0
        self.compute_us = 0.0
        #: Prefetches whose READ lost its completion (empty without a
        #: plan); a dropped prefetch is also counted issued.
        self.dropped_by_tier: Dict[str, int] = {}
        #: Pages that entered the swapcache (a SWAPCACHE PTE), were
        #: mapped out of it by a fault, and were reclaimed from it.
        self.swapcache_inserts = 0
        self.swapcache_hits = 0
        self.swapcache_drops = 0
        #: Swapcache pages whose remote copy was lost but whose local
        #: copy survived: re-written back instead of clean-dropped.
        self.pages_salvaged = 0
        # Overload-shedding counters (all exactly 0 unless a scenario
        # engine installs its hooks or enables the strict/absorb modes).
        #: Prefetches refused by the admission gate (load shedding).
        #: Strict-charge refusals are the cgroups' ``overlimit_rejects``.
        self.prefetch_throttled = 0
        #: Demand faults resolved with a zero-filled frame after the
        #: retry budget died (``absorb_fatal_faults``).
        self.fatal_faults_absorbed = 0
        #: Evictions abandoned because the writeback could not complete;
        #: the page stayed resident (``absorb_fatal_faults``).
        self.writebacks_abandoned = 0

    @property
    def prefetch_issued(self) -> int:
        """Prefetch READs issued, dropped ones included."""
        return sum(self.issued_by_tier.values())

    @property
    def dropped_prefetches(self) -> int:
        """Prefetches whose READ lost its completion."""
        return sum(self.dropped_by_tier.values())

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
        if name in self.cgroups:
            cgroup = self.cgroups.get(name)
        else:
            cgroup = self.cgroups.create(
                name,
                limit_pages if limit_pages is not None else self.config.local_memory_pages,
                charge_prefetch=self.config.charge_prefetch,
            )
        table = PageTable(pid, cgroup)
        self._page_tables[pid] = table
        if self.hopp is not None:
            table.rpt = self.hopp.rpt_cache
        return table

    def add_vma(self, pid: int, start_vpn: int, npages: int, name: str = "") -> None:
        self._page_tables[pid].vmas.add(start_vpn, npages, name)

    def page_table(self, pid: int) -> PageTable:
        return self._page_tables[pid]

    def resident_pages(self, cgroup: Optional[str] = None) -> int:
        """Physical pages resident for ``cgroup`` (including uncharged
        prefetch pages and in-flight fetches), or across every cgroup
        (the frames in use) when called without an argument."""
        if cgroup is None:
            return self.frames.used
        return self.cgroups.get(cgroup).resident

    # -- main entry: one LLC-miss reference -------------------------------------------

    def access(self, pid: int, vaddr: int, is_write: bool = False) -> float:
        """Drive one cacheline reference through the VM stack; returns
        the critical-path cost charged to the application."""
        self.accesses += 1
        if self._arrivals and self._arrivals[0][0] <= self.now_us:
            self._process_arrivals(self.now_us)
        recovered = self.backend.step(self.now_us)
        if self.sanitizer is not None and (
            recovered or self.accesses % SANITIZER_INTERVAL_ACCESSES == 0
        ):
            self.sanitizer.check()

        vpn = vaddr >> PAGE_SHIFT
        table = self._page_tables[pid]
        pte = table.entry(vpn)
        state = pte.state

        if state == PteState.PRESENT:
            cost = T_DRAM_HIT_US
            self.breakdown.dram_hit_us += cost
            table.cgroup.lru.touch(pid, vpn)
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
        retires runs of resident hits itself, lands due prefetch
        arrivals and counts first touches of injected prefetches, and
        sends only faults and due accesses through :meth:`access`.  Its
        barriers are the chunk edge, a residency miss, an HPD
        extraction, the backend's next deadline
        (:meth:`RemoteBackend.due_us`) and the sanitizer's next sweep.
        Every counter and timestamp stays byte-identical to
        ``use_fast_path=False``, which sends every reference through
        :meth:`access` (the differential oracle, pinned by
        tests/test_fastpath.py).  Only MC taps other than a stock
        :class:`HoppDataPlane`'s with a stock :class:`HotPageDetector`
        (HMTT tracers, extra planes, a multi-channel detector, the
        prototype plane's trace ring) see every access, so they take
        the oracle loop.
        """
        taps = self.controller._taps
        plane = self.hopp
        if use_fast_path and (
            not taps
            or (
                type(plane) is HoppDataPlane
                and taps == [plane.on_mc_access]
                and type(plane.hpd) is HotPageDetector
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
        cgroup = table.cgroup
        self._ensure_headroom(cgroup)
        cgroup.charge(1)
        ppn = self.frames.allocate(pid, vpn)
        self._note_peak()
        table.map_page(vpn, ppn, pte)
        cgroup.lru.insert(pid, vpn)
        return T_MINOR_FAULT_US

    def _swapcache_hit(self, pid: int, vpn: int, table: PageTable, pte: Pte) -> float:
        """Prefetch-hit: the page is local but unmapped (Section II-C)."""
        self.swapcache_hits += 1
        self._count_prefetch_hit(pid, vpn, pte, "swapcache")
        table.map_page(vpn, pte.ppn, pte)
        self.backend.release(pte)
        table.cgroup.lru.touch(pid, vpn)
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
            self.swapcache_hits += 1
            table.map_page(vpn, pte.ppn, pte)
            self.backend.release(pte)
        self._count_prefetch_hit(pid, vpn, pte, "inflight")
        table.cgroup.lru.touch(pid, vpn)
        cost = wait + T_PREFETCH_HIT_US
        self.breakdown.prefetch_hit_us += T_PREFETCH_HIT_US
        return cost

    def _major_fault(self, pid: int, vpn: int, table: PageTable, pte: Pte) -> float:
        """Demand swap-in over RDMA — the costly synchronous path."""
        self.remote_demand_reads += 1
        cgroup = table.cgroup
        self._ensure_headroom(cgroup)
        cgroup.charge(1)
        ppn = self.frames.allocate(pid, vpn)
        self._note_peak()
        pte.ppn = ppn
        slot = pte.swap_slot
        try:
            rdma_wait, zero_filled = self.backend.demand_read(
                pid, vpn, slot, self.now_us, pid not in self.deprioritized_pids
            )
        except RemoteFetchFatalError as fatal:
            if not self.config.absorb_fatal_faults:
                raise
            # Availability over consistency: the retry budget is spent,
            # so resolve the fault with a zero-filled frame rather than
            # crash the tenant.  The (possibly live) remote copy is
            # released below with the slot.
            rdma_wait = fatal.waited_us
            self.fatal_faults_absorbed += 1
            zero_filled = True
        table.map_page(vpn, ppn, pte)
        self.backend.release(pte)
        cgroup.lru.insert(pid, vpn)
        cost = (
            T_CONTEXT_SWITCH_US
            + T_PTE_WALK_US
            + T_SWAPCACHE_OP_US
            + rdma_wait
            + T_PTE_SET_US
            + T_RECLAIM_CRITICAL_RESIDUE_US
        )
        self.breakdown.remote_fault_us += cost
        prefetcher = self.fault_prefetcher
        fault_time = self.now_us + cost
        targets = prefetcher.on_fault(pid, vpn, slot, fault_time, self)
        inject = prefetcher.inject_pte
        tier = prefetcher.name
        issued = 0
        for target_pid, target_vpn in targets:
            if (
                self.prefetch_page(target_pid, target_vpn, fault_time, inject, tier)
                is not None
            ):
                issued += 1
        # Posting prefetch reads from the fault handler is critical-path
        # work (Section II-A step 3 repeats per window page).  With no
        # targets this adds 0.0, which leaves every float as it was.
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
        self.backend.demand_done(self.now_us)
        return cost

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
        # A plain read of the PTE dict, as the batch kernel does: a
        # rejected speculative target must not leave an UNTOUCHED PTE
        # behind in the page table, and over 40% of the targets are
        # rejected right here.
        pte = table._entries.get(vpn)
        if pte is None or pte.state is not PteState.REMOTE:
            return None
        slot = pte.swap_slot
        unreadable = self.cluster.unreadable
        if slot in unreadable:
            # Every replica died (or is known-bad); nothing worth
            # fetching — the demand path will zero-fill on first touch.
            return None
        if self.prefetch_admission is not None and not self.prefetch_admission(
            pid, tier, now_us
        ):
            self.prefetch_throttled += 1
            return None
        cgroup = table.cgroup
        if self.config.strict_cgroup_prefetch and cgroup.charge_prefetch:
            # Strict mode: a prefetch must fit the budget's *existing*
            # headroom — it never reclaims resident pages to make room
            # for itself.  Refuse before any fabric traffic; the cgroup
            # counts the refusal.
            try:
                cgroup.charge(1, prefetch=True, strict=True)
            except CgroupOverLimitError:
                return None
        else:
            # _ensure_headroom's own test, made here: most targets fit.
            if cgroup.resident + 1 > cgroup.limit_pages:
                self._ensure_headroom(cgroup)
                # The reclaim's writebacks can declare a node DOWN, and
                # its repair can lose this very slot.
                if slot in unreadable:
                    return None
            cgroup.charge(1, prefetch=True)
        pte.ppn = self.frames.allocate(pid, vpn)
        completion = self.backend.prefetch_read(slot, now_us)
        if completion is None:
            # Prefetches are speculative: a dropped one is unwound with
            # full bookkeeping so every counter still conserves.
            self.frames.free((pte.ppn,))
            pte.ppn = -1
            cgroup.uncharge(1, prefetch=True)
            self._prefetch_dropped(
                tier, 1, now_us, pid=pid, vpn=vpn, tier=tier, arrival_us=-1.0
            )
            return None
        self._note_peak()
        pte.state = PteState.INFLIGHT
        pte.prefetched = True
        pte.prefetch_tier = tier
        pte.arrival_us = completion
        pte.injected = inject_pte
        self._arrival_seq += 1
        heapq.heappush(self._arrivals, (completion, self._arrival_seq, pid, vpn))
        self.issued_by_tier[tier] = self.issued_by_tier.get(tier, 0) + 1
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
        cluster = self.cluster
        unreadable = cluster.unreadable
        # One scatter-gather request per node holding pages of the range
        # (pages interleaved across nodes fragment the batch; affinity
        # placement keeps it whole).  Node order is first appearance in
        # the VPN range, so grouping is deterministic.
        groups: Dict[object, List[int]] = {}
        fetchable = 0
        for vpn in range(max(start_vpn, 0), start_vpn + npages):
            pte = table.peek(vpn)
            if pte is not None and pte.state == PteState.REMOTE:
                slot = pte.swap_slot
                if slot not in unreadable:
                    groups.setdefault(cluster.primary_node(slot), []).append(vpn)
                    fetchable += 1
        if not fetchable:
            return None
        if self.prefetch_admission is not None and not self.prefetch_admission(
            pid, tier, now_us
        ):
            self.prefetch_throttled += fetchable
            return None
        cgroup = table.cgroup
        strict = self.config.strict_cgroup_prefetch and cgroup.charge_prefetch
        last_arrival = None
        for node, vpns in groups.items():
            if strict:
                # Strict mode: a page lands only if it fits the budget's
                # existing headroom — prefetch never reclaims resident
                # pages to make room for itself — so the pages past it
                # are the group's tail.  They are refused before the
                # read, which moves only the pages that land.
                fits = max(min(len(vpns), cgroup.headroom), 0)
                cgroup.overlimit_rejects += len(vpns) - fits
                if not fits:
                    continue
                del vpns[fits:]
            count = len(vpns)
            arrivals = self.backend.prefetch_batch_read(node, count, now_us)
            if arrivals is None:
                # This node's request lost its completion: drop every
                # page in it (nothing was charged or allocated yet).
                # Other nodes' requests proceed.
                self._prefetch_dropped(
                    tier, count, now_us, tier=tier, arrival_us=-1.0, n=count
                )
                continue
            emit = self.telemetry.bus.emit if self.telemetry is not None else None
            landed = 0
            for vpn, arrival in zip(vpns, arrivals):
                if not strict:
                    self._ensure_headroom(cgroup)
                cgroup.charge(1, prefetch=True)
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
            self.issued_by_tier[tier] = self.issued_by_tier.get(tier, 0) + landed
            if landed and (last_arrival is None or arrivals[-1] > last_arrival):
                last_arrival = arrivals[-1]
        return last_arrival

    def _process_arrivals(self, upto_us: float) -> None:
        arrivals = self._arrivals
        tables = self._page_tables
        while arrivals and arrivals[0][0] <= upto_us:
            arrival, _, pid, vpn = heapq.heappop(arrivals)
            table = tables[pid]
            # The prefetch that queued this arrival made the PTE, which
            # stays INFLIGHT until now (sanitizer check 9).
            pte = table._entries[vpn]
            if pte.injected:
                # Early PTE injection: map immediately, no future fault.
                table.map_page(vpn, pte.ppn, pte, injected=True)
                self.backend.release(pte)
            else:
                pte.state = PteState.SWAPCACHE
                self.swapcache_inserts += 1
            table.cgroup.lru.insert(pid, vpn)
            if self.telemetry is not None:
                self.telemetry.bus.emit(
                    EV_PREFETCH_LAND, arrival,
                    pid=pid, vpn=vpn, tier=pte.prefetch_tier,
                )

    def _prefetch_dropped(
        self, tier: str, count: int, now_us: float, /, **issue
    ) -> None:
        """``count`` prefetched pages lost their READ's completion: count
        them issued and dropped, and tell the HoPP breaker."""
        self.issued_by_tier[tier] = self.issued_by_tier.get(tier, 0) + count
        self.dropped_by_tier[tier] = self.dropped_by_tier.get(tier, 0) + count
        if self.hopp is not None:
            self.hopp.executor.on_fabric_drop(now_us)
        if self.telemetry is not None:
            bus = self.telemetry.bus
            bus.emit(EV_PREFETCH_ISSUE, now_us, **issue)
            bus.emit(EV_PREFETCH_DROP, now_us, tier=tier, n=count)

    # -- prefetch-hit accounting --------------------------------------------------------

    def _count_prefetch_hit(self, pid: int, vpn: int, pte: Pte, kind: str) -> None:
        """Count the first touch of a prefetched page; every SWAPCACHE
        and INFLIGHT page carries ``prefetched`` (sanitizer check 9)."""
        pte.prefetched = False
        tier = pte.prefetch_tier
        self.hits_by_tier[tier] = self.hits_by_tier.get(tier, 0) + 1
        if kind == "dram":
            self.prefetch_hit_dram += 1
        elif kind == "swapcache":
            self.prefetch_hit_swapcache += 1
        else:
            self.prefetch_hit_inflight += 1
        cgroup = self._page_tables[pid].cgroup
        if not cgroup.charge_prefetch:
            # A cgroup that charges prefetches charged this page already.
            cgroup.promote_prefetch(1)
        if self.telemetry is not None:
            self.telemetry.bus.emit(
                EV_PREFETCH_HIT, self.now_us,
                pid=pid, vpn=vpn, tier=tier, where=kind,
            )
        if self.hopp is not None:
            self.hopp.executor.on_first_hit(pid, vpn, self.now_us)
        if tier == self.fault_prefetcher.name:
            self.fault_prefetcher.on_prefetch_hit(pid, vpn, self.now_us, self)

    # -- reclaim -----------------------------------------------------------------------

    def _ensure_headroom(self, cgroup: MemoryCgroup) -> None:
        """Reclaim from ``cgroup`` until one more page fits its limit."""
        resident = cgroup.resident
        if resident + 1 <= cgroup.limit_pages:
            return
        lru = cgroup.lru
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
            if hinted:
                clean += self._evict(hinted)
                evicted += len(hinted)
        victims = self.reclaimer.plan(lru, cgroup.resident + 1, cgroup.limit_pages)
        if victims:
            clean += self._evict(victims)
            evicted += len(victims)
        if evicted:
            self.reclaimer.account(evicted, clean)
            self.breakdown.reclaim_us += T_RECLAIM_CRITICAL_RESIDUE_US

    def _evict(self, victims: List[Tuple[int, int]]) -> int:
        """Evict a reclaim batch, pages (pid, vpn) of one cgroup's LRU,
        in victim order; returns how many were clean drops.  Every page
        on an LRU is PRESENT or SWAPCACHE (sanitizer check 7), and only
        those are.

        One pass takes every victim off the LRU, drops it from the
        swapcache or unmaps it, frees its frame and settles its
        prefetch accounting; the writebacks then go out as one batch
        (:meth:`RemoteBackend.writeback`).  Unless the backend
        :attr:`~RemoteBackend.batches_writebacks` (a fault injector or
        the CXL tier is armed), a victim is written back before the next
        is touched, so its retries, its abandonment and the tier's
        migrations interleave as they happen."""
        cgroup = self._page_tables[victims[0][0]].cgroup
        cgroup.lru.remove(victims)
        backend = self.backend
        batches = backend.batches_writebacks
        unreadable = self.cluster.unreadable
        tables = self._page_tables
        bus = self.telemetry.bus if self.telemetry is not None else None
        executor = self.hopp.executor if self.hopp is not None else None
        prefetcher = self.fault_prefetcher
        now_us = self.now_us
        # Writebacks not yet sent, in victim order.
        keys: List[Tuple[int, int]] = []
        ptes: List[Pte] = []
        freed: List[int] = []
        clean = 0
        wasted_count = 0
        # Uncharged prefetches leaving a cgroup that does not charge
        # them; every other freed page leaves the cgroup's charge.
        uncharge_prefetch = 0
        charge_prefetch = cgroup.charge_prefetch
        swapcached = PteState.SWAPCACHE
        remote = PteState.REMOTE
        last_pid = None
        for key in victims:
            pid, vpn = key
            if pid != last_pid:
                last_pid = pid
                table = tables[pid]
                entries = table._entries
            pte = entries[vpn]
            wasted = pte.prefetched
            ppn = pte.ppn
            if pte.state is swapcached:
                self.swapcache_drops += 1
                if bus is not None:
                    bus.emit(EV_CACHE_INVALIDATE, now_us, pid=pid, vpn=vpn)
                slot = pte.swap_slot
                if slot not in unreadable:
                    # Clean: the remote copy at its slot is still valid.
                    clean += 1
                else:
                    # The remote copy died with its node (or every
                    # replica is poisoned); this swapcache page is the
                    # last good copy left.  Write it back to a fresh
                    # slot instead of clean-dropping it (that would turn
                    # a recoverable crash into data loss).  Only a fault
                    # plan loses or poisons a copy, so no batch is
                    # pending: every victim is written back on its own.
                    backend.release(pte)
                    if not self._write_back_or_abandon(key, table, pte, ppn):
                        continue
                    self.pages_salvaged += 1
                pte.ppn = -1
                prefetch_charge = True
            else:
                table.unmap_page(vpn, pte)
                if batches:
                    keys.append(key)
                    ptes.append(pte)
                elif not self._write_back_or_abandon(key, table, pte, ppn):
                    continue
                # A PRESENT-but-never-hit page can only be an injected
                # prefetch; it still carries its prefetch charge.
                prefetch_charge = wasted
            freed.append(ppn)
            pte.state = remote
            if prefetch_charge and not charge_prefetch:
                uncharge_prefetch += 1
            if wasted:
                pte.prefetched = False
                wasted_count += 1
                tier = pte.prefetch_tier
                if bus is not None:
                    bus.emit(
                        EV_PREFETCH_UNUSED, now_us, pid=pid, vpn=vpn, tier=tier
                    )
                if executor is not None:
                    executor.on_evicted_unused(pid, vpn)
                if tier == prefetcher.name:
                    prefetcher.on_prefetch_wasted(pid, vpn)
        if keys:
            self._write_back(keys, ptes)
        self.frames.free(freed)
        if len(freed) > uncharge_prefetch:
            cgroup.uncharge(len(freed) - uncharge_prefetch)
        if uncharge_prefetch:
            cgroup.uncharge(uncharge_prefetch, prefetch=True)
        self.prefetch_wasted += wasted_count
        return clean

    def _write_back(
        self, keys: Sequence[Tuple[int, int]], ptes: Sequence[Pte]
    ) -> None:
        """Write evicted pages ``keys``, whose entries are ``ptes``, to
        fresh swap slots, consecutive in victim order."""
        first = self.swap_space.allocate(keys)
        for slot, pte in enumerate(ptes, first):
            pte.swap_slot = slot
        self.backend.writeback(first, keys, self.now_us)

    def _write_back_or_abandon(
        self, key: Tuple[int, int], table: PageTable, pte: Pte, ppn: int
    ) -> bool:
        """Write one evicted page back.  False when the writeback burned
        its retry budget under ``absorb_fatal_faults``: the eviction is
        abandoned, the frame ``ppn`` stays mapped and the page rejoins
        the LRU for a later attempt."""
        try:
            self._write_back((key,), (pte,))
        except RemoteFetchFatalError:
            if not self.config.absorb_fatal_faults:
                raise
            self.backend.release(pte)
            table.map_page(key[1], ppn, pte)
            table.cgroup.lru.insert(*key)
            self.writebacks_abandoned += 1
            return False
        return True

    def _demand_timeout(self, now_us: float) -> None:
        """A demand READ timed out and will be retried: the HoPP
        breaker counts it as evidence the fabric is hostile."""
        if self.hopp is not None:
            self.hopp.executor.on_fabric_drop(now_us)

    # -- end of run ---------------------------------------------------------------------

    def flush_memtier(self) -> None:
        """Drain every queued tier migration at the current simulated
        time so end-of-run metrics see a settled pool.  No-op on
        untiered machines."""
        self.backend.flush_memtier(self.now_us)

    def flush_recovery(self) -> None:
        """Drive recovery to quiescence at the current simulated time
        (:meth:`RemoteBackend.flush_recovery`), then give the sanitizer,
        when armed, its final sweep."""
        self.backend.flush_recovery(self.now_us)
        if self.sanitizer is not None:
            self.sanitizer.check()

    def _note_peak(self) -> None:
        resident = self.frames.used
        if resident > self.peak_resident_pages:
            self.peak_resident_pages = resident

    # -- introspection for prefetchers ----------------------------------------------------

    def demote_page(self, pid: int, vpn: int) -> bool:
        """Move a resident page to the cold end of its cgroup's LRU so
        reclaim takes it first (Leap's eager cache eviction)."""
        table = self._page_tables.get(pid)
        if table is None:
            return False
        return table.cgroup.lru.demote(pid, vpn)

    def page_state(self, pid: int, vpn: int) -> PteState:
        table = self._page_tables.get(pid)
        if table is None:
            return PteState.UNTOUCHED
        pte = table.peek(vpn)
        return pte.state if pte is not None else PteState.UNTOUCHED
