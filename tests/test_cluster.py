"""Cluster suite: multi-node remote pool, placement, and failover.

Proves the properties the rack-scale subsystem must hold:

* **single-node equivalence** — a 1-node ``interleave`` cluster is
  byte-identical to the pre-cluster single-node path (golden metrics
  captured from the tree at commit ``026aa07``, before the cluster
  existed), for HoPP and two baselines, clean and under chaos;
* **placement** — interleave balances, hash is stable across
  re-evictions, affinity co-locates with spill;
* **failover** — a restarting node's demand reads fail over to a
  replica, writebacks re-route to a live node, prefetches drop;
* **conservation** — slot accounting balances on every node even while
  copies are re-routed and failed over mid-run.
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    PlacementPolicy,
    RemoteMemoryCluster,
    SlotDirectoryError,
    build_placement,
    placement_names,
    register_placement,
)
from repro.net.faults import FaultPlan, RemoteUnavailableError
from repro.net.rdma import FabricConfig
from repro.sim import runner
from repro.sim.machine import Machine, MachineConfig, RunEnv
from repro.workloads import build
from tests.conftest import quiet_fabric, touch_pages


def _cluster(nodes=3, placement="interleave", replication=1, plan=None,
             capacity=1024):
    return RemoteMemoryCluster(
        ClusterConfig(nodes=nodes, placement=placement,
                      replication=replication),
        capacity,
        quiet_fabric(),
        fault_plan=plan,
    )


def _machine(nodes=1, placement="interleave", replication=1, plan=None,
             local_pages=16):
    machine = Machine(
        MachineConfig(
            local_memory_pages=local_pages,
            fabric=quiet_fabric(),
            watermark_slack=4,
            env=RunEnv(
                fault_plan=plan,
                cluster=ClusterConfig(
                    nodes=nodes, placement=placement, replication=replication
                ),
            ),
        )
    )
    machine.register_process(1)
    machine.add_vma(1, 0, 4096, "test")
    return machine


class TestClusterConfigValidation:
    def test_defaults_are_single_node(self):
        config = ClusterConfig()
        assert config.nodes == 1
        assert config.placement == "interleave"
        assert config.replication == 1

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(nodes=0)

    def test_replication_beyond_nodes_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(nodes=2, replication=3)
        with pytest.raises(ValueError):
            ClusterConfig(replication=0)

    def test_unknown_placement_rejected(self):
        with pytest.raises(KeyError):
            ClusterConfig(placement="bogus")

    def test_bad_per_node_capacity_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(capacity_pages_per_node=0)


class TestPlacementPolicies:
    def test_known_names(self):
        assert placement_names() == ["affinity", "hash", "interleave", "tiered"]

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(KeyError, match="interleave"):
            build_placement("bogus")

    def test_unknown_name_error_is_typed_and_lists_names(self):
        from repro.cluster.placement import UnknownPlacementError

        with pytest.raises(UnknownPlacementError) as excinfo:
            build_placement("bogus")
        assert excinfo.value.name == "bogus"
        assert excinfo.value.known == ("affinity", "hash", "interleave", "tiered")
        message = str(excinfo.value)
        for name in ("affinity", "hash", "interleave", "tiered"):
            assert name in message

    def test_duplicate_registration_raises_typed_error(self):
        from repro.cluster.placement import DuplicatePlacementError

        class ShadowInterleave(PlacementPolicy):
            name = "interleave"

            def place(self, pid, vpn, slot, cluster):  # pragma: no cover
                return 0

        with pytest.raises(DuplicatePlacementError) as excinfo:
            register_placement(ShadowInterleave)
        assert excinfo.value.name == "interleave"
        assert "tiered" in str(excinfo.value)
        # The registry is untouched by the failed registration.
        assert placement_names() == ["affinity", "hash", "interleave", "tiered"]

    def test_interleave_round_robin_in_slot_order(self):
        cluster = _cluster(nodes=3)
        nodes = [
            cluster.placement.place(1, vpn, slot, cluster)
            for slot, vpn in enumerate(range(100, 106))
        ]
        assert nodes == [0, 1, 2, 0, 1, 2]

    def test_hash_is_slot_independent(self):
        """A page keeps its node when re-evicted into a fresh slot."""
        cluster = _cluster(nodes=4, placement="hash")
        first = cluster.placement.place(7, 1234, 10, cluster)
        again = cluster.placement.place(7, 1234, 999, cluster)
        assert first == again

    def test_hash_spreads_across_nodes(self):
        cluster = _cluster(nodes=4, placement="hash")
        used = {
            cluster.placement.place(1, vpn, 0, cluster) for vpn in range(64)
        }
        assert used == {0, 1, 2, 3}

    def test_affinity_co_locates_a_pid(self):
        cluster = _cluster(nodes=3, placement="affinity")
        nodes = {
            cluster.placement.place(1, vpn, slot, cluster)
            for slot, vpn in enumerate(range(50))
        }
        assert len(nodes) == 1

    def test_affinity_separates_pids_by_load(self):
        cluster = _cluster(nodes=3, placement="affinity")
        home_a = cluster.placement.place(1, 0, 0, cluster)
        cluster.nodes[home_a].remote.write(0, 1, 0)
        home_b = cluster.placement.place(2, 0, 1, cluster)
        assert home_b != home_a

    def test_affinity_spills_when_home_is_full(self):
        cluster = _cluster(nodes=2, placement="affinity", capacity=4)
        home = cluster.placement.place(1, 0, 0, cluster)
        for slot in range(2):  # capacity_pages_per_node == 2
            cluster.nodes[home].remote.write(slot, 1, slot)
        spill = cluster.placement.place(1, 99, 2, cluster)
        assert spill == (home + 1) % 2

    def test_register_custom_placement(self):
        class PinToLast(PlacementPolicy):
            name = "pin-to-last"

            def place(self, pid, vpn, slot, cluster):
                return cluster.node_count - 1

        register_placement(PinToLast)
        try:
            cluster = _cluster(nodes=3, placement="pin-to-last")
            assert cluster.placement.place(1, 0, 0, cluster) == 2
        finally:
            from repro.cluster.placement import _PLACEMENTS

            _PLACEMENTS.pop("pin-to-last")


class TestSlotDirectory:
    def test_assign_records_primary_and_ring_replicas(self):
        cluster = _cluster(nodes=4, replication=3)
        targets = cluster.assign(5, 1, 100)  # interleave: 5 % 4 == 1
        assert [node.node_id for node in targets] == [1, 2, 3]
        assert cluster.holders_of(5) == (1, 2, 3)
        assert cluster.primary_node(5).node_id == 1

    def test_read_candidates_raise_for_unknown_slot(self):
        # The pre-self-healing silent node-0 fallback masked directory
        # corruption; an unplaced slot is now a typed, counted error.
        cluster = _cluster(nodes=3)
        with pytest.raises(SlotDirectoryError):
            cluster.read_candidates(99)
        with pytest.raises(SlotDirectoryError):
            cluster.primary_node(99)
        assert cluster.directory_misses == 2

    def test_slot_directory_error_is_a_key_error(self):
        # Callers that caught KeyError before the typed error keep working.
        assert issubclass(SlotDirectoryError, KeyError)

    def test_release_drops_every_replica(self):
        cluster = _cluster(nodes=3, replication=2)
        for node in cluster.assign(0, 1, 100):
            node.remote.write(0, 1, 100)
        assert cluster.pages_stored == 2
        cluster.release(0)
        assert cluster.pages_stored == 0
        assert cluster.holders_of(0) == ()
        assert cluster.conserved()

    def test_reroute_picks_next_non_holder_and_updates_directory(self):
        cluster = _cluster(nodes=3, replication=2)
        cluster.assign(0, 1, 100)  # holders [0, 1]
        rerouted = cluster.reroute(0, 0)
        assert rerouted.node_id == 2
        assert cluster.holders_of(0) == (2, 1)
        assert cluster.writeback_reroutes == 1

    def test_reroute_with_nowhere_to_go_stays_put(self):
        cluster = _cluster(nodes=2, replication=2)
        cluster.assign(0, 1, 100)  # holders [0, 1]: every node taken
        assert cluster.reroute(0, 0).node_id == 0
        assert cluster.writeback_reroutes == 0

    def test_capacity_split_across_nodes(self):
        cluster = _cluster(nodes=4, capacity=1000)
        assert all(
            node.remote.capacity_pages == 250 for node in cluster.nodes
        )

    def test_per_node_fault_plans_partition_windows(self):
        plan = FaultPlan(
            seed=3,
            remote_restart=((0.0, 10.0), (20.0, 30.0), (40.0, 50.0)),
        )
        cluster = _cluster(nodes=2, plan=plan)
        assert [len(n.injector.plan.remote_restart) for n in cluster.nodes] \
            == [2, 1]
        assert [n.injector.plan.seed for n in cluster.nodes] == [3, 4]
        # Node 0 owns windows 0 and 2; node 1 owns window 1.
        with pytest.raises(RemoteUnavailableError):
            cluster.nodes[0].injector.check_remote(5.0)
        cluster.nodes[1].injector.check_remote(5.0)
        with pytest.raises(RemoteUnavailableError):
            cluster.nodes[1].injector.check_remote(25.0)

    def test_stats_snapshot_shape(self):
        cluster = _cluster(nodes=2, replication=2)
        snapshot = cluster.stats_snapshot()
        assert snapshot["nodes"] == 2
        assert snapshot["placement"] == "interleave"
        assert snapshot["replication"] == 2
        assert len(snapshot["per_node"]) == 2
        assert snapshot["per_node"][0]["fabric"]["reads"] == 0
        assert snapshot["per_node"][1]["remote"]["pages_stored"] == 0


#: Golden metrics captured from the pre-cluster tree (commit 026aa07)
#: with FabricConfig(seed=1), stream-simple(npages=200, passes=2) @50%.
_GOLDEN = {
    "hopp": {
        "completion_time_us": 1851.294488643414,
        "fabric_reads": 200, "fabric_writes": 306, "minor_faults": 200,
        "remote_demand_reads": 14, "prefetch_issued": 186,
        "prefetch_hit_dram": 149, "prefetch_hit_inflight": 15,
        "prefetch_hit_swapcache": 22, "reclaim_pages": 306,
        "peak_resident_pages": 100,
    },
    "fastswap": {
        "completion_time_us": 2379.6209481468804,
        "fabric_reads": 200, "fabric_writes": 306, "minor_faults": 200,
        "remote_demand_reads": 40, "prefetch_issued": 160,
        "prefetch_hit_dram": 0, "prefetch_hit_inflight": 21,
        "prefetch_hit_swapcache": 139, "reclaim_pages": 306,
        "peak_resident_pages": 100,
    },
    "leap": {
        "completion_time_us": 2294.358149873565,
        "fabric_reads": 170, "fabric_writes": 272, "minor_faults": 200,
        "remote_demand_reads": 47, "prefetch_issued": 123,
        "prefetch_hit_dram": 0, "prefetch_hit_inflight": 7,
        "prefetch_hit_swapcache": 116, "reclaim_pages": 272,
        "peak_resident_pages": 100,
    },
}
_GOLDEN_CHAOS = {
    "completion_time_us": 2227.6921394747765,
    "timeouts": 18, "retries": 8, "dropped_prefetches": 10,
    "fabric_reads": 211, "fabric_writes": 313,
}


class TestSingleNodeEquivalence:
    """The invariant that makes the cluster refactor safe: one node +
    interleave + no replication == the pre-cluster single-node path,
    byte for byte."""

    @pytest.mark.parametrize("system", sorted(_GOLDEN))
    @pytest.mark.parametrize("explicit_cluster", [False, True])
    def test_clean_run_matches_pre_cluster_golden(
        self, system, explicit_cluster
    ):
        workload = build("stream-simple", npages=200, passes=2)
        env = (
            RunEnv(cluster=ClusterConfig(nodes=1, placement="interleave",
                                         replication=1))
            if explicit_cluster
            else RunEnv()
        )
        result = runner.run(workload, system, 0.5, FabricConfig(seed=1), env=env)
        snapshot = result.to_dict()
        for key, value in _GOLDEN[system].items():
            assert snapshot[key] == value, (system, key)
        assert result.remote_nodes == 1
        assert result.demand_failovers == 0
        assert result.writeback_reroutes == 0

    def test_chaos_run_matches_pre_cluster_golden(self):
        workload = build("stream-simple", npages=200, passes=2)
        result = runner.run(
            workload, "hopp", 0.5, FabricConfig(seed=1),
            env=RunEnv(fault_plan=FaultPlan.chaos(1)),
        )
        snapshot = result.to_dict()
        for key, value in _GOLDEN_CHAOS.items():
            assert snapshot[key] == value, key

    def test_machine_aliases_point_at_node_zero(self):
        machine = _machine(nodes=1)
        assert machine.fabric is machine.cluster.nodes[0].fabric
        assert machine.remote is machine.cluster.nodes[0].remote


class TestMultiNodeRuns:
    def test_every_link_carries_traffic(self):
        machine = _machine(nodes=3, local_pages=16)
        touch_pages(machine, 1, range(64))
        touch_pages(machine, 1, range(64))
        writes = [node.fabric.writes for node in machine.cluster.nodes]
        reads = [node.fabric.reads for node in machine.cluster.nodes]
        assert all(w > 0 for w in writes)
        assert sum(reads) > 0
        assert machine.cluster.fabric_writes == sum(writes)

    def test_affinity_keeps_one_process_on_one_node(self):
        machine = _machine(nodes=3, placement="affinity", local_pages=16)
        touch_pages(machine, 1, range(64))
        stored = [node.remote.pages_stored for node in machine.cluster.nodes]
        assert sorted(stored)[:2] == [0, 0]

    def test_replication_writes_every_copy(self):
        machine = _machine(nodes=3, replication=2, local_pages=16)
        touch_pages(machine, 1, range(32))
        # Every remote page exists on exactly two nodes.
        table = machine.page_table(1)
        for vpn in range(32):
            pte = table.peek(vpn)
            if pte is None or pte.swap_slot is None or pte.swap_slot < 0:
                continue
            holders = machine.cluster.holders_of(pte.swap_slot)
            assert len(holders) == 2
            for node_id in holders:
                assert machine.cluster.nodes[node_id].remote.holds(
                    pte.swap_slot
                )

    def test_results_deterministic_across_identical_runs(self):
        def one():
            workload = build("stream-simple", npages=150, passes=2)
            return runner.run(
                workload, "hopp", 0.5, FabricConfig(seed=3),
                env=RunEnv(cluster=ClusterConfig(nodes=3, placement="hash",
                                                 replication=2)),
            )

        assert one().to_dict() == one().to_dict()


class TestFailover:
    """Remote-restart windows land on one node at a time; the cluster
    must keep serving through them."""

    def _restart_plan(self, start=1_000_000.0, end=2_000_000.0):
        # One window -> node 0 of any multi-node cluster.
        return FaultPlan(seed=11, remote_restart=((start, end),))

    def test_demand_read_fails_over_to_replica(self):
        machine = _machine(
            nodes=3, replication=2, plan=self._restart_plan(), local_pages=8
        )
        touch_pages(machine, 1, range(32))
        table = machine.page_table(1)
        victim = next(
            vpn for vpn in range(32)
            if table.peek(vpn) is not None
            and table.peek(vpn).swap_slot is not None
            and table.peek(vpn).swap_slot >= 0
            and machine.cluster.holders_of(table.peek(vpn).swap_slot)[0] == 0
        )
        machine.now_us = 1_500_000.0  # inside node 0's restart window
        replica_reads_before = machine.cluster.nodes[1].remote.pages_read
        touch_pages(machine, 1, [victim])
        assert machine.cluster.demand_failovers == 1
        assert machine.remote_demand_reads >= 1
        # The replica (ring successor of node 0) answered the read.
        assert (
            machine.cluster.nodes[1].remote.pages_read
            == replica_reads_before + 1
        )

    def test_demand_read_without_replica_retries_in_place(self):
        """replication=1 keeps the PR-1 behaviour: backoff until the
        restart window passes."""
        machine = _machine(
            nodes=3, replication=1,
            plan=self._restart_plan(1_000_000.0, 1_000_100.0), local_pages=8,
        )
        touch_pages(machine, 1, range(32))
        table = machine.page_table(1)
        victim = next(
            vpn for vpn in range(32)
            if table.peek(vpn) is not None
            and table.peek(vpn).swap_slot is not None
            and table.peek(vpn).swap_slot >= 0
            and machine.cluster.holders_of(table.peek(vpn).swap_slot)[0] == 0
        )
        machine.now_us = 1_000_000.0
        touch_pages(machine, 1, [victim])
        assert machine.cluster.demand_failovers == 0
        assert machine.retries >= 1

    def test_writeback_reroutes_to_live_node(self):
        machine = _machine(
            nodes=3, replication=1,
            plan=self._restart_plan(0.0, 1e12), local_pages=8,
        )
        touch_pages(machine, 1, range(32))  # evicts through node 0's outage
        assert machine.cluster.writeback_reroutes > 0
        # Nothing landed on the dead node.
        assert machine.cluster.nodes[0].remote.pages_written == 0
        assert machine.cluster.conserved()

    def test_conservation_across_failover_and_rerouting(self):
        """The slot-conservation invariant (satellite): every node's
        ``pages_written == pages_stored + pages_overwritten +
        pages_released`` even while copies re-route mid-run."""
        plan = FaultPlan(
            seed=5,
            timeout_probability=0.05,
            remote_restart=((2_000.0, 2_600.0), (5_000.0, 5_600.0),
                            (8_000.0, 8_600.0)),
        )
        workload = build("stream-simple", npages=300, passes=3)
        machine = runner.make_machine(
            workload, "hopp", 0.4, FabricConfig(seed=2),
            env=RunEnv(
                fault_plan=plan,
                cluster=ClusterConfig(nodes=3, placement="hash", replication=2),
            ),
        )
        machine.run(workload.trace())
        for node in machine.cluster.nodes:
            assert node.remote.conserved, node
        assert machine.cluster.conserved()
        assert machine.cluster.writeback_reroutes > 0

    def test_three_node_chaos_acceptance(self):
        """Acceptance criterion: a 3-node chaos run completes with
        conserved accounting and nonzero failover counters.  The chaos
        preset's restart window sits at 70 ms, so the workload must run
        past it (kv-cache does, at ~100 ms simulated)."""
        workload = build("kv-cache", seed=1)
        result = runner.run(
            workload, "hopp", 0.5, FabricConfig(seed=1),
            env=RunEnv(
                fault_plan=FaultPlan.chaos(1),
                cluster=ClusterConfig(nodes=3, placement="interleave",
                                      replication=2),
            ),
        )
        assert result.timeouts > 0
        assert result.demand_failovers > 0
        assert result.writeback_reroutes > 0
        for stats in result.node_stats:
            remote = stats["remote"]
            assert remote["pages_written"] == (
                remote["pages_stored"]
                + remote["pages_overwritten"]
                + remote["pages_released"]
            )


class TestRunResultClusterMetrics:
    def test_to_dict_carries_cluster_section(self):
        workload = build("stream-simple", npages=100, passes=1)
        result = runner.run(
            workload, "fastswap", 0.5, FabricConfig(seed=1),
            env=RunEnv(cluster=ClusterConfig(nodes=2, placement="hash")),
        )
        section = result.to_dict()["cluster"]
        assert section["remote_nodes"] == 2
        assert section["placement"] == "hash"
        assert section["replication"] == 1
        assert len(section["per_node"]) == 2
        total_reads = sum(
            stats["fabric"]["reads"] for stats in section["per_node"]
        )
        assert total_reads == result.fabric_reads
