"""Self-healing cluster suite: health monitoring, permanent crashes,
background re-replication, drain, and the invariant sanitizer.

Proves the properties the recovery layer must hold:

* **acceptance** — a 3-node, replication=2 cluster that loses a node
  mid-run finishes with zero lost pages, a repaired directory at full
  replication, and a sanitizer that passes every epoch; the same crash
  at replication=1 loses pages but accounts for every one of them;
* **determinism** — recovery is a pure function of (plan, seed): two
  identical runs produce identical results down to the repair bytes;
* **state machine** — UP/SUSPECT/DOWN/DRAINING/REJOINING transitions
  fire exactly on observed timeouts, heartbeats, and drain completion;
* **no false losses** — a directory entry whose writeback never landed
  on the crashing node is re-routed, not declared lost;
* **sanitizer** — cross-layer corruption (directory, frames) raises a
  typed :class:`InvariantViolation` naming the broken structure.
"""

import heapq

import pytest

from repro.cluster import (
    ClusterConfig,
    HealthConfig,
    HealthMonitor,
    NodeState,
    RemoteMemoryCluster,
    RepairConfig,
    RepairEngine,
)
from repro.cluster.health import EVENT_DOWN, EVENT_REJOIN
from repro.kernel.page_table import PteState
from repro.kernel.swap import SwapSpace
from repro.net.faults import FaultPlan
from repro.sim import runner
from repro.sim.machine import Machine, MachineConfig, RunEnv
from repro.sim.sanitizer import InvariantSanitizer, InvariantViolation
from repro.workloads import build
from tests.conftest import quiet_fabric, touch_pages

CRASH_US = 30_000.0
REJOIN_US = 50_000.0


def _armed_cluster(nodes=3, replication=1, plan=None, capacity=1024):
    """A cluster with injectors armed and a health monitor attached."""
    plan = plan or FaultPlan(seed=1, node_crash=(CRASH_US,))
    cluster = RemoteMemoryCluster(
        ClusterConfig(nodes=nodes, replication=replication),
        capacity,
        quiet_fabric(),
        fault_plan=plan,
    )
    cluster.health = HealthMonitor(cluster, HealthConfig())
    return cluster


def _machine(nodes=2, replication=1, plan=None, local_pages=16,
             check_invariants=False):
    machine = Machine(
        MachineConfig(
            local_memory_pages=local_pages,
            fabric=quiet_fabric(),
            watermark_slack=4,
            env=RunEnv(
                fault_plan=plan,
                cluster=ClusterConfig(nodes=nodes, replication=replication),
                check_invariants=check_invariants,
            ),
        )
    )
    machine.register_process(1)
    machine.add_vma(1, 0, 4096, "test")
    return machine


def _crash_machine(replication, rejoin=False, check_invariants=True):
    """The acceptance scenario: quicksort on hopp, 3 nodes, one
    permanent crash mid-run."""
    workload = build("quicksort", seed=1)
    plan = (
        FaultPlan.crash_rejoin(seed=1, at_us=CRASH_US, rejoin_us=REJOIN_US)
        if rejoin
        else FaultPlan.crash(seed=1, at_us=CRASH_US)
    )
    machine = runner.make_machine(
        workload,
        "hopp",
        0.5,
        quiet_fabric(),
        env=RunEnv(
            fault_plan=plan,
            cluster=ClusterConfig(nodes=3, replication=replication),
            check_invariants=check_invariants,
        ),
    )
    machine.run(workload.trace())
    machine.flush_recovery()
    return machine


# -- the health state machine ----------------------------------------------------------


class TestHealthMonitor:
    def test_timeouts_drive_up_to_suspect(self):
        cluster = _armed_cluster()
        monitor = cluster.health
        assert monitor.state(0) is NodeState.UP
        monitor.observe_timeout(0, 100.0)
        monitor.observe_timeout(0, 101.0)
        assert monitor.state(0) is NodeState.UP
        events = monitor.observe_timeout(0, 102.0)
        assert monitor.state(0) is NodeState.SUSPECT
        assert events == []  # probe ran: the node is not dead yet
        assert monitor.is_placeable(0)  # SUSPECT stays placeable

    def test_success_clears_suspect(self):
        cluster = _armed_cluster()
        monitor = cluster.health
        for _ in range(3):
            monitor.observe_timeout(0, 100.0)
        assert monitor.state(0) is NodeState.SUSPECT
        monitor.observe_success(0, 200.0)
        assert monitor.state(0) is NodeState.UP
        assert monitor._consecutive_timeouts[0] == 0

    def test_suspect_probe_confirms_crash(self):
        cluster = _armed_cluster()
        monitor = cluster.health
        for _ in range(2):
            monitor.observe_timeout(0, CRASH_US + 1)
        events = monitor.observe_timeout(0, CRASH_US + 2)
        assert events == [(EVENT_DOWN, 0)]
        assert monitor.state(0) is NodeState.DOWN
        assert monitor.node_crashes == 1
        assert not monitor.is_placeable(0)
        assert not monitor.is_readable(0)

    def test_heartbeat_detects_crash_without_traffic(self):
        # No data-path observation at all: the periodic probe alone
        # notices the crash.
        cluster = _armed_cluster()
        monitor = cluster.health
        assert monitor.tick(CRASH_US - 1) == []
        events = monitor.tick(CRASH_US + 600.0)
        assert events == [(EVENT_DOWN, 0)]
        # Only the node struck by crash index 0 goes down.
        assert monitor.state(1) is NodeState.UP
        assert monitor.state(2) is NodeState.UP

    def test_heartbeat_is_rate_limited(self):
        cluster = _armed_cluster()
        monitor = cluster.health
        monitor.tick(0.0)
        # Within the interval the probe does not run, even past the crash.
        assert monitor.tick(400.0) == []
        assert monitor.state(0) is NodeState.UP

    def test_rejoin_lifecycle(self):
        plan = FaultPlan(seed=1, node_crash=(CRASH_US,), node_rejoin=(REJOIN_US,))
        cluster = _armed_cluster(plan=plan)
        monitor = cluster.health
        assert monitor.tick(CRASH_US + 600.0) == [(EVENT_DOWN, 0)]
        events = monitor.tick(REJOIN_US + 600.0)
        assert events == [(EVENT_REJOIN, 0)]
        assert monitor.state(0) is NodeState.REJOINING
        assert monitor.node_rejoins == 1
        # The next heartbeat re-admits it.
        monitor.tick(REJOIN_US + 1200.0)
        assert monitor.state(0) is NodeState.UP

    def test_drain_requires_a_live_node(self):
        cluster = _armed_cluster()
        monitor = cluster.health
        monitor.tick(CRASH_US + 600.0)
        with pytest.raises(ValueError, match="cannot drain"):
            monitor.start_drain(0, CRASH_US + 700.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HealthConfig(heartbeat_interval_us=0.0)
        with pytest.raises(ValueError):
            HealthConfig(suspect_after_timeouts=0)


# -- the repair engine -----------------------------------------------------------------


def _stored(cluster, slot, pid, vpn):
    """Writeback ``slot`` through the directory (all replicas)."""
    cluster.assign(slot, [(pid, vpn)])


class TestRepairEngine:
    def _engine(self, cluster):
        return RepairEngine(cluster, cluster.health, RepairConfig())

    def test_replica_survives_a_crash(self):
        cluster = _armed_cluster(nodes=3, replication=2)
        swap = SwapSpace()
        slot = swap.allocate([(1, 100)])
        _stored(cluster, slot, 1, 100)
        primary = cluster.holders_of(slot)[0]
        assert cluster.health.tick(CRASH_US + 600.0) == [(EVENT_DOWN, 0)]
        repair = self._engine(cluster)
        repair.on_node_down(0, CRASH_US + 600.0)
        if primary == 0 or 0 in cluster.holders_of(slot):
            pass  # directory already scrubbed below
        assert 0 not in cluster.holders_of(slot)
        assert repair.pages_lost == 0
        repair.flush(CRASH_US + 700.0)
        holders = cluster.holders_of(slot)
        assert len(holders) == 2 and 0 not in holders
        for node_id in holders:
            assert cluster.nodes[node_id].remote.holds(slot)
        assert repair.pages_repaired >= 1
        assert repair.repair_bytes > 0
        assert cluster.conserved()

    def test_single_copy_on_dead_node_is_lost(self):
        cluster = _armed_cluster(nodes=3, replication=1)
        swap = SwapSpace()
        # interleave: slot 0 -> node 0 (the crashing node).
        slot = swap.allocate([(1, 100)])
        _stored(cluster, slot, 1, 100)
        assert cluster.holders_of(slot) == (0,)
        cluster.health.tick(CRASH_US + 600.0)
        repair = self._engine(cluster)
        repair.on_node_down(0, CRASH_US + 600.0)
        assert repair.pages_lost == 1
        assert cluster.is_lost(slot)
        assert cluster.holders_of(slot) == ()
        assert cluster.nodes[0].remote.pages_stored == 0
        assert cluster.conserved()  # the wipe counts as pages_lost

    def test_unlanded_writeback_is_not_declared_lost(self):
        # Directory entry exists, but the node died before the WRITE
        # landed: the page is still local, so dropping the entry (and
        # letting the writeback re-route) is the correct outcome.
        cluster = _armed_cluster(nodes=3, replication=1)
        cluster.assign(0, [(1, 100)], store=False)  # entry only
        cluster.health.tick(CRASH_US + 600.0)
        repair = self._engine(cluster)
        repair.on_node_down(0, CRASH_US + 600.0)
        assert repair.pages_lost == 0
        assert not cluster.is_lost(0)
        assert cluster.holders_of(0) == ()

    def test_pump_is_rate_limited(self):
        cluster = _armed_cluster(nodes=3, replication=2)
        swap = SwapSpace()
        slots = []
        for vpn in (100, 101, 102):
            slot = swap.allocate([(1, vpn)])
            _stored(cluster, slot, 1, vpn)
            slots.append(slot)
        cluster.health.tick(CRASH_US + 600.0)
        repair = self._engine(cluster)
        repair.on_node_down(0, CRASH_US + 600.0)
        queued = repair.pending_tasks
        assert queued >= 1
        now = CRASH_US + 700.0
        repair.pump(now)
        # A second pump at the same instant is inside the spacing window.
        repair.pump(now)
        assert repair.pending_tasks == queued - 1
        repair.pump(now + RepairConfig().repair_interval_us)
        assert repair.pending_tasks == max(queued - 2, 0)

    def test_drain_evacuates_copy_then_release(self):
        cluster = _armed_cluster(nodes=3, replication=1, plan=FaultPlan())
        swap = SwapSpace()
        moved = []
        for vpn in (100, 103):  # slots 0 and 1 -> nodes 0 and 1
            slot = swap.allocate([(1, vpn)])
            _stored(cluster, slot, 1, vpn)
            moved.append(slot)
        assert cluster.holders_of(moved[0]) == (0,)
        monitor = cluster.health
        monitor.start_drain(0, 10.0)
        repair = self._engine(cluster)
        repair.on_drain(0)
        repair.flush(20.0)
        assert cluster.nodes[0].remote.pages_stored == 0
        assert repair.pages_drained == 1
        holders = cluster.holders_of(moved[0])
        assert holders and 0 not in holders
        assert cluster.nodes[holders[0]].remote.holds(moved[0])
        # The emptied node finished its drain and is rejoining.
        assert monitor.state(0) is NodeState.REJOINING
        assert monitor.drains_completed == 1
        assert cluster.conserved()


# -- machine-level recovery ------------------------------------------------------------


class TestMachineRecovery:
    def test_lost_page_is_zero_filled(self):
        # Crash far in the future, populate remote memory, then jump
        # time past the crash: the next touch of a page whose only copy
        # lived on the dead node must zero-fill, not hang or crash.
        plan = FaultPlan(seed=1, node_crash=(1e9,))
        machine = _machine(nodes=2, replication=1, plan=plan)
        touch_pages(machine, 1, range(64))
        table = machine.page_table(1)
        victim = next(
            vpn
            for vpn in range(64)
            if table.peek(vpn) is not None
            and table.peek(vpn).state == PteState.REMOTE
            and machine.cluster.holders_of(table.peek(vpn).swap_slot) == (0,)
        )
        machine.now_us = 1e9 + 600.0
        machine.access(1, victim << 12)
        assert machine.backend.health.node_crashes == 1
        assert machine.backend.pages_zero_filled == 1
        assert machine.backend.repair.pages_lost > 0
        assert table.peek(victim).state == PteState.PRESENT
        assert machine.cluster.conserved()
        InvariantSanitizer(machine).check()

    def test_drain_empties_a_node_and_readmits_it(self):
        # An *empty* fault plan arms drain without injecting anything.
        machine = _machine(nodes=2, replication=1, plan=FaultPlan())
        touch_pages(machine, 1, range(64))
        assert machine.cluster.nodes[0].remote.pages_stored > 0
        machine.backend.drain_node(0, machine.now_us)
        machine.flush_recovery()
        assert machine.cluster.nodes[0].remote.pages_stored == 0
        assert machine.backend.repair.pages_drained > 0
        assert machine.backend.health.state(0) is NodeState.UP
        for slot in machine.cluster.slots_in_directory():
            assert 0 not in machine.cluster.holders_of(slot)
        assert machine.cluster.conserved()
        InvariantSanitizer(machine).check()

    def test_drain_requires_armed_recovery(self):
        machine = _machine(nodes=2, plan=None)
        with pytest.raises(RuntimeError, match="not armed"):
            machine.backend.drain_node(0, machine.now_us)

    def test_writeback_dead_end_falls_back_to_backoff_retry(self):
        # Replication spans every node, so a writeback that finds its
        # target restarting has nowhere to re-route: it must fall back
        # to backoff-retry on the same node and eventually land.
        plan = FaultPlan(seed=1, remote_restart=((0.0, 2_000.0),))
        machine = _machine(nodes=2, replication=2, plan=plan)
        touch_pages(machine, 1, range(64))
        assert machine.backend.retries > 0
        assert machine.cluster.writeback_reroutes == 0
        assert machine.cluster.conserved()
        # Pages written back during the window still reached both nodes.
        for slot in machine.cluster.slots_in_directory():
            assert len(machine.cluster.holders_of(slot)) == 2


# -- acceptance: the ISSUE's crash scenarios -------------------------------------------


class TestCrashAcceptance:
    def test_replicated_cluster_loses_nothing(self):
        machine = _crash_machine(replication=2)
        assert machine.backend.health.node_crashes == 1
        assert machine.backend.repair.pages_lost == 0
        assert machine.backend.pages_zero_filled == 0
        assert machine.backend.repair.pages_repaired > 0
        assert machine.backend.repair.repair_bytes > 0
        assert machine.cluster.conserved()
        # Full replication restored for every directory slot, with no
        # copy left on (or credited to) the dead node.
        assert machine.cluster.nodes[0].remote.pages_stored == 0
        for slot in machine.cluster.slots_in_directory():
            holders = machine.cluster.holders_of(slot)
            assert len(holders) == 2 and 0 not in holders
            for node_id in holders:
                assert machine.cluster.nodes[node_id].remote.holds(slot)
        # The sanitizer ran every epoch and after every recovery event.
        assert machine.sanitizer.checks_run > 0

    def test_unreplicated_cluster_accounts_for_every_loss(self):
        machine = _crash_machine(replication=1)
        assert machine.backend.health.node_crashes == 1
        assert machine.backend.repair.pages_lost > 0
        assert machine.backend.pages_zero_filled > 0
        assert machine.cluster.conserved()
        assert machine.sanitizer.checks_run > 0

    def test_rejoined_node_is_readmitted(self):
        machine = _crash_machine(replication=2, rejoin=True)
        assert machine.backend.health.node_crashes == 1
        assert machine.backend.health.node_rejoins == 1
        assert machine.backend.health.state(0) is NodeState.UP
        assert machine.backend.repair.pages_lost == 0
        assert machine.cluster.conserved()

    def test_recovery_is_deterministic(self):
        results = []
        for _ in range(2):
            machine = _crash_machine(replication=2, check_invariants=False)
            results.append(
                runner.collect(machine, "hopp", "quicksort").to_dict()
            )
        assert results[0] == results[1]


#: Unreplicated crashes (3 nodes, seed 7, fraction 0.5) that a prefetch's
#: own reclaim detects: its writeback times out, the node is declared
#: DOWN, and repair loses the very slot the prefetch was about to read.
PREFETCH_SLOT_LOST_IN_RECLAIM = [("npb-cg", "fastswap", 30_150.0)] + [
    ("omp-kmeans", "hopp", at_us)
    for at_us in (30_100.0, 30_150.0, 30_250.0, 30_300.0, 30_350.0)
]


class TestPrefetchSlotLostInItsReclaim:
    @pytest.mark.parametrize(
        "workload_name,system,at_us", PREFETCH_SLOT_LOST_IN_RECLAIM,
        ids=[f"{w}/{s}@{int(t)}" for w, s, t in PREFETCH_SLOT_LOST_IN_RECLAIM],
    )
    def test_run_finishes_and_matches_oracle(self, workload_name, system, at_us):
        from repro.net.rdma import FabricConfig

        workload = build(workload_name, seed=7)
        trace = list(workload.trace())
        env = RunEnv(
            fault_plan=FaultPlan.crash(7, at_us=at_us),
            cluster=ClusterConfig(nodes=3, replication=1),
            check_invariants=True,
        )
        results = []
        for fast in (True, False):
            machine = runner.make_machine(
                workload, system, 0.5, FabricConfig(seed=7), env=env
            )
            machine.run(trace, use_fast_path=fast)
            machine.flush_recovery()
            InvariantSanitizer(machine).check()
            results.append(
                runner.collect(machine, system, workload_name).to_dict(full=True)
            )
        assert results[0] == results[1]
        assert machine.backend.health.node_crashes == 1
        assert machine.backend.repair.pages_lost > 0
        assert machine.cluster.conserved()


# -- the invariant sanitizer -----------------------------------------------------------


class TestSanitizer:
    def _healthy_machine(self):
        machine = _machine(nodes=2, replication=1, plan=FaultPlan())
        touch_pages(machine, 1, range(64))
        return machine

    def test_passes_on_a_healthy_machine(self):
        machine = self._healthy_machine()
        sanitizer = InvariantSanitizer(machine)
        sanitizer.check()
        assert sanitizer.checks_run == 1

    def test_detects_directory_corruption(self):
        machine = self._healthy_machine()
        slot = next(iter(machine.cluster.slots_in_directory()))
        machine.cluster._holders.pop(slot)
        with pytest.raises(InvariantViolation, match=r"\[directory\]"):
            InvariantSanitizer(machine).check()

    def test_detects_orphaned_frame(self):
        machine = self._healthy_machine()
        machine.frames.allocate(9, 9)  # no PTE will ever claim this
        with pytest.raises(InvariantViolation, match=r"\[frames\]"):
            InvariantSanitizer(machine).check()

    def test_detects_phantom_store_copy(self):
        machine = self._healthy_machine()
        slot = next(iter(machine.cluster.slots_in_directory()))
        holder = machine.cluster.holders_of(slot)[0]
        other = machine.cluster.nodes[1 - holder].remote
        other._slots.add(slot)  # a copy the directory never placed
        with pytest.raises(InvariantViolation, match=r"\[stores\]"):
            InvariantSanitizer(machine).check()

    def test_detects_poison_mark_without_holders(self):
        # Poisoned data still exists; a mark on a slot nobody holds
        # (one freed long ago) is stale bookkeeping.
        machine = self._healthy_machine()
        machine.cluster.mark_poisoned(10**6)
        with pytest.raises(InvariantViolation,
                           match=r"\[integrity\].*poisoned but has no"):
            InvariantSanitizer(machine).check()

    def test_detects_lost_mark_on_a_freed_slot(self):
        # A lost mark names a live slot; freeing the slot clears it, so
        # a mark on a slot swap space does not know is stale.
        machine = self._healthy_machine()
        machine.cluster.mark_lost(10**6)
        with pytest.raises(InvariantViolation,
                           match=r"\[directory\].*marked lost but swap space"):
            InvariantSanitizer(machine).check()

    def test_detects_drifted_resident_total(self):
        # A cgroup's residency (charged plus uncharged prefetches) must
        # match the frames its pages hold.
        machine = self._healthy_machine()
        machine.cgroups.get("default").charged += 1
        with pytest.raises(InvariantViolation,
                           match=r"\[residency\].*frames are allocated"):
            InvariantSanitizer(machine).check()

    def test_detects_a_resident_page_off_the_lru(self):
        machine = self._healthy_machine()
        lru = machine.page_table(1).cgroup.lru
        pid, vpn = next(iter(lru))
        lru.remove([(pid, vpn)])
        with pytest.raises(InvariantViolation,
                           match=r"\[lru\].*not on its cgroup's LRU"):
            InvariantSanitizer(machine).check()

    def test_detects_a_remote_page_on_the_lru(self):
        machine = self._healthy_machine()
        table = machine.page_table(1)
        vpn = next(v for v, pte in table._entries.items()
                   if pte.state is PteState.REMOTE)
        table.cgroup.lru.insert(1, vpn)
        with pytest.raises(InvariantViolation,
                           match=r"\[lru\].*whose PTE is REMOTE"):
            InvariantSanitizer(machine).check()

    def _prefetched_machine(self):
        """A healthy machine with one page prefetched into the
        swapcache and still in flight; returns it, the page's vpn and
        its PTE."""
        machine = self._healthy_machine()
        table = machine.page_table(1)
        vpn = next(v for v, pte in table._entries.items()
                   if pte.state is PteState.REMOTE)
        assert machine.prefetch_page(1, vpn, machine.now_us, False, "test")
        pte = table.peek(vpn)
        assert pte.state is PteState.INFLIGHT
        InvariantSanitizer(machine).check()
        return machine, vpn, pte

    def test_detects_a_stale_arrival(self):
        machine, vpn, pte = self._prefetched_machine()
        arrival = machine._arrivals[0]
        machine._process_arrivals(pte.arrival_us)
        assert pte.state is PteState.SWAPCACHE
        heapq.heappush(machine._arrivals, arrival)
        with pytest.raises(InvariantViolation,
                           match=rf"\[arrivals\].*vpn={vpn}\) whose PTE "
                                 r"is SWAPCACHE"):
            InvariantSanitizer(machine).check()

    def test_detects_an_arrival_due_off_its_page(self):
        machine, vpn, pte = self._prefetched_machine()
        pte.arrival_us += 1.0
        with pytest.raises(InvariantViolation,
                           match=r"\[arrivals\].*but its arrival is queued"):
            InvariantSanitizer(machine).check()

    def test_detects_an_inflight_page_without_an_arrival(self):
        machine, vpn, pte = self._prefetched_machine()
        machine._arrivals.clear()
        with pytest.raises(InvariantViolation,
                           match=rf"\[arrivals\].*vpn={vpn}\) is INFLIGHT "
                                 r"with no pending arrival"):
            InvariantSanitizer(machine).check()

    def test_detects_an_unflagged_swapcache_page(self):
        machine, vpn, pte = self._prefetched_machine()
        machine._process_arrivals(pte.arrival_us)
        InvariantSanitizer(machine).check()
        pte.prefetched = False
        with pytest.raises(InvariantViolation,
                           match=rf"\[prefetch\].*vpn={vpn}\) is SWAPCACHE"):
            InvariantSanitizer(machine).check()

    def _hopp_machine(self):
        workload = build("stream-simple", seed=7, npages=64, passes=3)
        machine = runner.make_machine(workload, "hopp", 0.5, quiet_fabric(7))
        machine.run(list(workload.trace()))
        return machine

    def test_rpt_check_reads_without_moving_anything(self):
        machine = self._hopp_machine()
        rpt = machine.hopp.rpt_cache

        def state():
            return (
                [list(cached.items()) for cached in rpt._sets],
                rpt.lookups, rpt.lookup_hits, rpt.dram_fills,
                rpt.writebacks, rpt.backing.reads, rpt.backing.writes,
            )

        before = state()
        InvariantSanitizer(machine).check()
        assert state() == before

    def test_detects_a_drifted_rpt_line(self):
        machine = self._hopp_machine()
        table = machine.page_table(machine.hopp.stt.streams()[0].pid)
        vpn, pte = next((v, p) for v, p in table._entries.items()
                        if p.state is PteState.PRESENT)
        rpt = machine.hopp.rpt_cache
        rpt._sets[pte.ppn % rpt.nsets][pte.ppn] = (table.pid, vpn + 1, False, 0)
        with pytest.raises(InvariantViolation,
                           match=rf"\[rpt\] frame {pte.ppn} of"):
            InvariantSanitizer(machine).check()

    def test_runner_flag_counts_sweeps(self):
        workload = build("quicksort", seed=1)
        result = runner.run(
            workload, "noprefetch", 0.5, quiet_fabric(),
            env=RunEnv(check_invariants=True),
        )
        assert result.invariant_checks > 0

    @pytest.mark.parametrize("plan", [None, FaultPlan()],
                             ids=["no-plan", "empty-plan"])
    def test_end_state_is_swept_with_or_without_a_plan(self, plan):
        # 1,024 accesses never reach the first epoch sweep: only the
        # run's final sweep checks them, recovery armed or not.
        workload = build("stream-simple", seed=7, npages=64, passes=2)
        result = runner.run(
            workload, "hopp", 0.5, quiet_fabric(7),
            env=RunEnv(fault_plan=plan, check_invariants=True),
        )
        assert result.accesses == 1024
        assert result.invariant_checks == 1


# -- fault-plan crash primitives (round-trip is in test_failure_injection) -------------


class TestCrashPlans:
    def test_node_dead_follows_crash_and_rejoin(self):
        plan = FaultPlan(seed=1, node_crash=(100.0,), node_rejoin=(200.0,))
        from repro.net.faults import FaultInjector

        injector = FaultInjector(plan)
        assert not injector.node_dead(99.0)
        assert injector.node_dead(100.0)
        assert injector.node_dead(199.0)
        assert not injector.node_dead(200.0)

    def test_rejoin_must_follow_its_crash(self):
        with pytest.raises(ValueError, match="node_rejoin"):
            FaultPlan(node_crash=(100.0,), node_rejoin=(50.0,))
        with pytest.raises(ValueError, match="node_rejoin"):
            FaultPlan(node_rejoin=(50.0,))

    def test_crash_presets(self):
        plan = FaultPlan.crash(seed=7)
        assert plan.node_crash and not plan.node_rejoin
        assert not plan.is_empty
        both = FaultPlan.crash_rejoin(seed=7)
        assert both.node_rejoin[0] > both.node_crash[0]

    def test_crash_lands_on_one_node_only(self):
        cluster = _armed_cluster(nodes=3)
        assert cluster.nodes[0].injector.plan.node_crash == (CRASH_US,)
        assert cluster.nodes[1].injector.plan.node_crash == ()
        assert cluster.nodes[2].injector.plan.node_crash == ()
