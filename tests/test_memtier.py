"""Memory-tier suite: CXL pool model, tiered placement, migration.

Proves the properties the memory-tier subsystem must hold:

* **byte-identity off** — ``memtier=None`` (the default) produces
  RunResults with no tier keys anywhere, so every pre-tier golden stays
  byte-identical (tests/test_goldens.py pins the actual bytes; here we
  pin the *absence* of the new keys);
* **derivation** — the CXL link is derived from the far link by the
  NUMA-emulation ratio methodology, node tiers label pool-then-far;
* **placement** — hot pages go poolward, cold pages spill past the
  watermark, untiered clusters degrade to interleave;
* **migration** — touch counts and HPD hints promote far-tier pages,
  watermark pressure demotes cold pool pages, and the 5-term slot
  conservation invariant holds on every node throughout (including a
  3-tier chaos run under the invariant sanitizer);
* **observability** — telemetry series reconcile with the section
  counters, and every ``repro_memtier_*_total`` Prometheus family is
  present (zero-valued) even on untiered and deserialized results.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig, RemoteMemoryCluster
from repro.common.constants import PAGE_SIZE, T_RDMA_PAGE_US
from repro.memtier import (
    TIER_FAR,
    TIER_POOL,
    MemtierConfig,
    derive_node_tiers,
)
from repro.net.faults import FaultPlan
from repro.sim import runner
from repro.sim.machine import Machine, MachineConfig, RunEnv
from repro.sim.metrics import RunResult
from repro.telemetry import TelemetryConfig, prometheus_snapshot
from repro.workloads import build
from tests.conftest import quiet_fabric


def _tiny_pool(**overrides) -> MemtierConfig:
    base = dict(pool_nodes=1, pool_capacity_pages=128)
    base.update(overrides)
    return MemtierConfig(**base)


def _tiered_machine(memtier=None, local_pages=24, plan=None,
                    check_invariants=False, far_nodes=1):
    machine = Machine(
        MachineConfig(
            local_memory_pages=local_pages,
            fabric=quiet_fabric(),
            watermark_slack=4,
            env=RunEnv(
                fault_plan=plan,
                cluster=ClusterConfig(nodes=far_nodes),
                check_invariants=check_invariants,
                memtier=memtier or _tiny_pool(),
            ),
        )
    )
    machine.register_process(1)
    machine.add_vma(1, 0, 4096, "test")
    return machine


class TestMemtierConfig:
    def test_defaults_validate(self):
        config = MemtierConfig()
        assert config.pool_nodes == 1
        assert config.cxl_latency_us < T_RDMA_PAGE_US

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(pool_nodes=0),
            dict(pool_capacity_pages=0),
            dict(cxl_latency_us=0.0),
            dict(cxl_gbps=0.0),
            dict(promote_touches=0),
            dict(pool_high_watermark=1.5),
            dict(pool_low_watermark=0.0),
            dict(pool_low_watermark=0.95),  # above the high watermark
            dict(migrate_interval_us=-1.0),
            dict(max_migration_retries=-1),
            dict(hot_set_limit=0),
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            MemtierConfig(**overrides)

    def test_pool_slower_than_far_rejected(self):
        # A "pool" at RDMA latency inverts the hierarchy.
        with pytest.raises(ValueError):
            MemtierConfig(cxl_latency_us=T_RDMA_PAGE_US)

    def test_cxl_fabric_derived_by_latency_ratio(self):
        far = quiet_fabric().__class__(
            base_latency_us=4.0, jitter_us=0.5, gbps=56.0,
            spike_probability=0.0, seed=3,
        )
        cxl = MemtierConfig(cxl_latency_us=0.8).cxl_fabric_config(far)
        assert cxl.base_latency_us == pytest.approx(0.8)
        # Jitter scales by the same ratio the base latency shrank by.
        assert cxl.jitter_us == pytest.approx(0.5 * 0.8 / 4.0)
        assert cxl.gbps == pytest.approx(256.0)
        assert cxl.seed == far.seed

    def test_cxl_jitter_override_wins(self):
        far = quiet_fabric()
        cxl = MemtierConfig(cxl_jitter_us=0.25).cxl_fabric_config(far)
        assert cxl.jitter_us == pytest.approx(0.25)

    def test_derive_node_tiers_pool_first(self):
        assert derive_node_tiers(2, 1) == (TIER_POOL, TIER_FAR, TIER_FAR)
        with pytest.raises(ValueError):
            derive_node_tiers(0, 1)
        with pytest.raises(ValueError):
            derive_node_tiers(1, 0)


class TestClusterTiers:
    def test_node_tiers_length_must_match(self):
        with pytest.raises(ValueError):
            ClusterConfig(nodes=2, node_tiers=("pool",))

    def test_node_tiers_entries_validated(self):
        with pytest.raises(ValueError):
            ClusterConfig(nodes=2, node_tiers=("pool", "near"))

    def test_all_pool_rejected(self):
        # The far tier is the backing store; a pure pool has nowhere
        # to demote to.
        with pytest.raises(ValueError):
            ClusterConfig(nodes=2, node_tiers=("pool", "pool"))

    def test_tiered_cluster_labels_nodes_and_derives_cxl_link(self):
        cluster = RemoteMemoryCluster(
            ClusterConfig(nodes=2, node_tiers=("pool", "far"),
                          placement="tiered"),
            1024,
            quiet_fabric(),
            memtier=MemtierConfig(),
        )
        pool, far = cluster.nodes
        assert pool.tier == TIER_POOL and far.tier == TIER_FAR
        assert pool.remote.tier == TIER_POOL
        assert (
            pool.fabric.config.base_latency_us
            < far.fabric.config.base_latency_us
        )

    def test_migrate_holder_swaps_in_place(self):
        cluster = RemoteMemoryCluster(
            ClusterConfig(nodes=2, node_tiers=("pool", "far"),
                          placement="tiered"),
            1024,
            quiet_fabric(),
        )
        slot = 5
        holders = cluster.assign(slot, 1, 42)
        holders[0].remote.write(slot, 1, 42)
        source = cluster.holders_of(slot)[0]
        target = 1 - source
        assert cluster.migrate_holder(slot, source, target)
        assert cluster.holders_of(slot) == (target,)
        # Idempotence / error paths: wrong source and existing target
        # are both refused without corrupting the directory.
        assert not cluster.migrate_holder(slot, source, target)
        assert not cluster.migrate_holder(slot, target, target)
        assert cluster.holders_of(slot) == (target,)

    def test_untiered_snapshot_has_no_tier_keys(self):
        cluster = RemoteMemoryCluster(ClusterConfig(), 1024, quiet_fabric())
        snap = cluster.stats_snapshot()
        assert "node_tiers" not in snap
        for node_snap in snap["per_node"]:
            assert "tier" not in node_snap
            assert "tier" not in node_snap["remote"]


class TestTieredPlacement:
    def _cluster(self, hot=None, pool_capacity=None):
        cluster = RemoteMemoryCluster(
            ClusterConfig(nodes=3, node_tiers=("pool", "far", "far"),
                          placement="tiered"),
            1024,
            quiet_fabric(),
            memtier=MemtierConfig(pool_capacity_pages=pool_capacity),
        )
        if hot is not None:
            cluster.memtier_hot = hot
        return cluster

    def test_cold_pages_prefer_the_pool(self):
        cluster = self._cluster()
        assert cluster.placement.place(1, 0, 0, cluster) == 0

    def test_cold_pages_spill_past_high_watermark(self):
        cluster = self._cluster(pool_capacity=10)
        pool = cluster.nodes[0]
        for slot in range(9):  # high watermark = int(0.9 * 10) = 9
            pool.remote.write(slot, 1, slot)
        placed = cluster.placement.place(1, 100, 50, cluster)
        assert cluster.nodes[placed].tier == TIER_FAR

    def test_hot_pages_take_pool_hard_room(self):
        cluster = self._cluster(hot=lambda pid, vpn: True, pool_capacity=10)
        pool = cluster.nodes[0]
        for slot in range(9):
            pool.remote.write(slot, 1, slot)
        # Past the watermark, but a hot page still has hard room.
        assert cluster.placement.place(1, 100, 50, cluster) == 0

    def test_untiered_cluster_degrades_to_interleave(self):
        cluster = RemoteMemoryCluster(
            ClusterConfig(nodes=3, placement="tiered"), 1024, quiet_fabric()
        )
        nodes = [cluster.placement.place(1, vpn, slot, cluster)
                 for slot, vpn in enumerate(range(6))]
        assert nodes == [0, 1, 2, 0, 1, 2]


class TestMachineDerivation:
    def test_memtier_adds_pool_nodes_and_upgrades_placement(self):
        machine = _tiered_machine(far_nodes=2)
        assert machine.cluster.node_count == 3
        assert machine.cluster.node_tiers == (TIER_POOL, TIER_FAR, TIER_FAR)
        assert machine.cluster.placement.name == "tiered"
        assert machine.backend.memtier is not None
        assert machine.cluster.memtier_hot == machine.backend.memtier.is_hot

    def test_explicit_node_tiers_respected(self):
        machine = Machine(
            MachineConfig(
                local_memory_pages=24,
                fabric=quiet_fabric(),
                watermark_slack=4,
                env=RunEnv(
                    cluster=ClusterConfig(
                        nodes=2, node_tiers=("pool", "far"), placement="tiered"
                    ),
                    memtier=MemtierConfig(pool_nodes=1),
                ),
            )
        )
        # No extra nodes appended: the explicit labeling wins.
        assert machine.cluster.node_count == 2

    def test_untiered_machine_has_no_engine(self):
        machine = Machine(
            MachineConfig(local_memory_pages=24, fabric=quiet_fabric(),
                          watermark_slack=4)
        )
        assert machine.backend.memtier is None


class TestMigration:
    def test_touch_counts_promote_far_pages(self):
        machine = _tiered_machine(
            _tiny_pool(pool_capacity_pages=8, promote_touches=2,
                       hot_promote=False)
        )
        engine = machine.backend.memtier
        far_node = next(
            node for node in machine.cluster.nodes if node.tier == TIER_FAR
        )
        engine.note_demand_read(far_node, 1, 7, 0.0)
        assert not engine.is_hot(1, 7)
        engine.note_demand_read(far_node, 1, 7, 1.0)
        assert engine.is_hot(1, 7)

    def test_note_hot_queues_promotion_of_far_resident_page(self):
        machine = _tiered_machine()
        engine = machine.backend.memtier
        # Park a page on the far node through the real swap/cluster path.
        slot = machine.swap_space.allocate(1, 99)
        far_id = next(
            node.node_id for node in machine.cluster.nodes
            if node.tier == TIER_FAR
        )
        machine.cluster.nodes[far_id].remote.write(slot, 1, 99)
        machine.cluster._holders[slot] = [far_id]
        engine.note_hot(1, 99, 0.0)
        assert engine.pending_tasks == 1
        engine.flush(0.0)
        assert engine.promotions == 1
        holders = machine.cluster.holders_of(slot)
        assert machine.cluster.nodes[holders[0]].tier == TIER_POOL
        # Conservation: the far node migrated the page out, the pool
        # node wrote it in.
        assert machine.cluster.nodes[far_id].remote.pages_migrated_out == 1
        for node in machine.cluster.nodes:
            assert node.remote.conserved

    def test_watermark_pressure_demotes_coldest_first(self):
        machine = _tiered_machine(_tiny_pool(pool_capacity_pages=10))
        engine = machine.backend.memtier
        pool = next(
            node for node in machine.cluster.nodes if node.tier == TIER_POOL
        )
        slots = [machine.swap_space.allocate(1, vpn) for vpn in range(10)]
        for slot, vpn in zip(slots, range(10)):
            pool.remote.write(slot, 1, vpn)
            machine.cluster._holders[slot] = [pool.node_id]
            engine.note_writeback(pool, slot, 1, vpn, 0.0)
        # 10 stored > high (9): drain to low (7) => 3 demotions, oldest
        # writebacks first.
        engine.flush(0.0)
        assert engine.demotions == 3
        assert pool.remote.pages_stored == 7
        demoted = [
            slot for slot in slots
            if machine.cluster.nodes[
                machine.cluster.holders_of(slot)[0]
            ].tier == TIER_FAR
        ]
        assert demoted == slots[:3]
        for node in machine.cluster.nodes:
            assert node.remote.conserved

    def test_pressure_beats_hotness_when_everything_is_hot(self):
        machine = _tiered_machine(_tiny_pool(pool_capacity_pages=10))
        engine = machine.backend.memtier
        pool = next(
            node for node in machine.cluster.nodes if node.tier == TIER_POOL
        )
        for vpn in range(10):
            engine.note_hot(1, vpn, 0.0)
            slot = machine.swap_space.allocate(1, vpn)
            pool.remote.write(slot, 1, vpn)
            machine.cluster._holders[slot] = [pool.node_id]
            engine.note_writeback(pool, slot, 1, vpn, 0.0)
        engine.flush(0.0)
        # Hot pages are spared only while cold candidates exist; a pool
        # wedged full of hot pages must still drain.
        assert engine.demotions == 3
        assert pool.remote.pages_stored == 7

    def test_migration_bytes_track_page_copies(self):
        machine = _tiered_machine()
        engine = machine.backend.memtier
        engine.migration_reads = 3
        engine.migration_writes = 2
        assert engine.migration_bytes == 5 * PAGE_SIZE


class TestEndToEnd:
    def test_tiered_run_conserves_and_reports(self):
        workload = build("kv-cache", seed=7)
        result = runner.run(
            workload, "hopp", 0.4, quiet_fabric(7),
            env=RunEnv(memtier=_tiny_pool()),
        )
        section = result.memtier
        assert section is not None
        assert section["pool_nodes"] == 1 and section["far_nodes"] == 1
        assert section["pool_demand_reads"] + section["far_demand_reads"] > 0
        assert section["promotions"] > 0
        assert section["demotions"] > 0
        assert section["migration_bytes"] == (
            (section["migration_reads"] + section["migration_writes"])
            * PAGE_SIZE
        )
        for snap in result.node_stats:
            remote = snap["remote"]
            assert remote["pages_written"] == (
                remote["pages_stored"]
                + remote["pages_overwritten"]
                + remote["pages_released"]
                + remote["pages_lost"]
                + remote.get("pages_migrated_out", 0)
            )

    def test_three_tier_chaos_run_under_sanitizer(self):
        workload = build("kv-cache", seed=7)
        result = runner.run(
            workload, "hopp", 0.4, quiet_fabric(7),
            env=RunEnv(
                fault_plan=FaultPlan.chaos(7),
                check_invariants=True,
                memtier=_tiny_pool(),
            ),
        )
        assert result.invariant_checks > 0
        for snap in result.node_stats:
            remote = snap["remote"]
            assert remote["pages_written"] == (
                remote["pages_stored"]
                + remote["pages_overwritten"]
                + remote["pages_released"]
                + remote["pages_lost"]
                + remote.get("pages_migrated_out", 0)
            )

    def test_cxl_beats_rdma_latency(self):
        workload = build("stream-simple", seed=7)
        tiered = runner.run(
            workload, "hopp", 0.5, quiet_fabric(7),
            env=RunEnv(memtier=MemtierConfig()),
        )
        untiered = runner.run(workload, "hopp", 0.5, quiet_fabric(7))
        assert tiered.completion_time_us < untiered.completion_time_us

    def test_memtier_section_round_trips(self):
        workload = build("stream-simple", seed=7)
        result = runner.run(
            workload, "hopp", 0.5, quiet_fabric(7),
            env=RunEnv(memtier=MemtierConfig()),
        )
        clone = RunResult.from_dict(result.to_dict(full=True))
        assert clone.memtier == result.memtier

    def test_untiered_result_has_no_memtier_keys(self):
        workload = build("stream-simple", seed=7)
        result = runner.run(workload, "hopp", 0.5, quiet_fabric(7))
        assert result.memtier is None
        payload = result.to_dict(full=True)
        assert "memtier" not in payload
        for snap in result.node_stats:
            assert "tier" not in snap.get("remote", snap)


class TestObservability:
    def _instrumented(self):
        workload = build("kv-cache", seed=7)
        return runner.run(
            workload, "hopp", 0.4, quiet_fabric(7),
            env=RunEnv(
                telemetry=TelemetryConfig(epoch_us=500.0),
                memtier=_tiny_pool(),
            ),
        )

    def test_series_reconcile_with_section(self):
        result = self._instrumented()
        series = result.telemetry["timeseries"]["series"]
        section = result.memtier
        assert sum(series["memtier_pool_reads"]) == section["pool_demand_reads"]
        assert sum(series["memtier_far_reads"]) == section["far_demand_reads"]
        assert sum(series["memtier_promotions"]) == section["promotions"]
        assert sum(series["memtier_demotions"]) == section["demotions"]
        assert section["promotions"] > 0 and section["demotions"] > 0

    def test_prometheus_families_on_tiered_run(self):
        text = prometheus_snapshot(self._instrumented())
        assert "repro_memtier_promotions_total{" in text
        assert "repro_memtier_migration_bytes_total{" in text

    def test_prometheus_families_always_present_when_untiered(self):
        workload = build("stream-simple", seed=7)
        result = runner.run(workload, "hopp", 0.5, quiet_fabric(7))
        text = prometheus_snapshot(result)
        for suffix in (
            "pool_demand_reads", "far_demand_reads", "pool_prefetch_reads",
            "far_prefetch_reads", "pool_writebacks", "far_writebacks",
            "promotions", "demotions", "migration_reads",
            "migration_writes", "migration_bytes", "migration_retries",
            "migrations_skipped", "hot_hints",
        ):
            line = f"# TYPE repro_memtier_{suffix}_total counter"
            assert line in text
        assert 'repro_memtier_promotions_total{system="hopp"' in text

    def test_prometheus_families_on_deserialized_result(self):
        workload = build("stream-simple", seed=7)
        result = runner.run(workload, "hopp", 0.5, quiet_fabric(7))
        clone = RunResult.from_dict(result.to_dict(full=True))
        text = prometheus_snapshot(clone)
        assert "repro_memtier_promotions_total{" in text


class TestCli:
    def test_run_with_mem_tiers_prints_tier_rows(self, capsys):
        from repro.cli import main

        code = main([
            "run", "-w", "stream-simple", "-f", "0.5",
            "--mem-tiers", "1", "--pool-capacity", "256", "--no-cache",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "memory tiers (pool + far nodes)" in out
        assert "tier demand reads (pool/far)" in out
        assert "pages promoted / demoted" in out

    def test_run_without_mem_tiers_has_no_tier_rows(self, capsys):
        from repro.cli import main

        code = main([
            "run", "-w", "stream-simple", "-f", "0.5", "--no-cache",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "memory tiers" not in out
