"""Data-integrity suite: silent-corruption injection, checksum verify,
CXL poison semantics, and the patrol scrubber.

Proves the properties the integrity layer must hold:

* **byte-identity off** — without corruption fields or a scrubber,
  RunResults carry no ``integrity`` key and the ledger is pure
  bookkeeping (tests/test_goldens.py pins the actual bytes; here we pin
  the *absence* of the new key);
* **determinism** — corruption is a pure function of (plan, seed): two
  identical runs produce identical integrity sections down to the
  detection-latency stats;
* **closed ledger** — every detection ends in exactly one outcome
  (repaired, unresolved, or a poisoned copy), asserted by the
  cross-layer sanitizer after every sweep;
* **acceptance** — replication 2 plus the scrubber detects and repairs
  every stored corruption (zero poisoned pages); replication 1 poisons
  deterministically and every poisoned read zero-fills;
* **poison semantics** — poisoned slots are barred from promotion,
  skipped by prefetch, force-demoted out of the pool, and salvaged from
  the swapcache exactly like lost slots.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import ClusterConfig, HealthConfig, HealthMonitor
from repro.cluster.cluster import RemoteMemoryCluster
from repro.integrity import (
    IntegrityController,
    PatrolScrubber,
    ScrubConfig,
    SlotChecksums,
)
from repro.kernel.page_table import PteState
from repro.kernel.swap import SwapSpace
from repro.memtier import TIER_POOL, MemtierConfig
from repro.net.faults import FaultInjector, FaultPlan
from repro.sim import runner
from repro.sim.machine import Machine, MachineConfig, RunEnv
from repro.sim.metrics import RunResult
from repro.sim.sanitizer import InvariantSanitizer
from repro.workloads import build
from tests.conftest import quiet_fabric, touch_pages


def _corrupt_cluster(nodes=3, replication=2, plan=None, capacity=1024):
    """A cluster with corruption injectors armed and health attached."""
    plan = plan or FaultPlan(seed=1, bit_flip_write=0.0, media_error_rate=0.0)
    cluster = RemoteMemoryCluster(
        ClusterConfig(nodes=nodes, replication=replication),
        capacity,
        quiet_fabric(),
        fault_plan=plan,
    )
    cluster.health = HealthMonitor(cluster, HealthConfig())
    return cluster


def _stored(cluster, slot, pid, vpn):
    """Writeback ``slot`` through the directory (all replicas)."""
    cluster.assign(slot, [(pid, vpn)])


def _machine(plan=None, nodes=2, replication=1, local_pages=16,
             check_invariants=False, scrub=None, memtier=None):
    machine = Machine(
        MachineConfig(
            local_memory_pages=local_pages,
            fabric=quiet_fabric(),
            watermark_slack=4,
            env=RunEnv(
                fault_plan=plan,
                cluster=ClusterConfig(nodes=nodes, replication=replication),
                check_invariants=check_invariants,
                memtier=memtier,
                scrub=scrub,
            ),
        )
    )
    machine.register_process(1)
    machine.add_vma(1, 0, 4096, "test")
    return machine


def _acceptance_result(replication, scrub_rate=5000.0, seed=1,
                       plan=None, nodes=3):
    """The ISSUE's acceptance scenario: quicksort on hopp under the
    corruption preset, sanitizer on."""
    workload = build("quicksort", seed=1)
    return runner.run(
        workload,
        "hopp",
        0.5,
        quiet_fabric(),
        env=RunEnv(
            fault_plan=plan or FaultPlan.corruption(seed),
            cluster=ClusterConfig(nodes=nodes, replication=replication),
            check_invariants=True,
            scrub=(
                ScrubConfig(rate_pages_per_s=scrub_rate)
                if scrub_rate else None
            ),
        ),
    )


# -- plan serialization and validation -------------------------------------------------


class TestCorruptionPlanSerialization:
    def test_corruption_presets_arm_the_plan(self):
        for plan in (FaultPlan.corruption(7), FaultPlan.corruption_chaos(7)):
            assert plan.has_corruption
            assert not plan.is_empty
        # The chaos overlay keeps its loud faults too.
        assert FaultPlan.corruption_chaos(7).timeout_probability > 0
        assert FaultPlan.corruption(7).timeout_probability == 0

    def test_corruption_only_plan_is_not_empty(self):
        # has_corruption must arm the injectors even with no loud
        # faults, or silent corruption would never be injected.
        assert not FaultPlan(bit_flip_read=0.5).is_empty
        assert not FaultPlan(media_error_rate=0.5).is_empty
        assert FaultPlan().is_empty

    def test_round_trip_covers_corruption_fields(self, tmp_path):
        plan = FaultPlan(
            seed=5,
            bit_flip_read=0.25,
            bit_flip_write=0.125,
            media_error_rate=0.5,
            media_error_latency_us=123.0,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.from_json_file(str(path)) == plan

    @pytest.mark.parametrize(
        "field,value",
        [
            ("bit_flip_read", "often"),
            ("bit_flip_write", [0.1]),
            ("media_error_rate", "sometimes"),
            ("media_error_latency_us", "soon"),
        ],
    )
    def test_malformed_field_is_named_in_the_error(self, field, value):
        with pytest.raises(ValueError, match=field):
            FaultPlan.from_dict({field: value})

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bit_flip_read=1.5),
            dict(bit_flip_write=-0.1),
            dict(media_error_rate=2.0),
            dict(media_error_latency_us=0.0),
            dict(media_error_latency_us=-5.0),
        ],
    )
    def test_out_of_range_rates_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_scrub_config_validates(self):
        assert ScrubConfig().rate_pages_per_s == 5000.0
        with pytest.raises(ValueError):
            ScrubConfig(rate_pages_per_s=0.0)
        with pytest.raises(ValueError):
            ScrubConfig(rate_pages_per_s=-1.0)


# -- the checksum ledger ---------------------------------------------------------------


class TestSlotChecksums:
    def test_no_injector_is_always_clean(self):
        ledger = SlotChecksums()
        ledger.record_write(3, 10.0, 0)
        assert ledger.is_clean(3, 1e12)
        assert ledger.corrupt_since(3) is None
        assert ledger.tracked_slots() == ()

    def test_write_flip_is_bad_immediately(self):
        injector = FaultInjector(FaultPlan(seed=1, bit_flip_write=1.0))
        ledger = SlotChecksums(injector)
        ledger.record_write(5, 40.0, 0)
        assert not ledger.is_clean(5, 40.0)
        assert ledger.corrupt_since(5) == 40.0
        assert injector.bit_flips_injected == 1

    def test_media_strike_latches_at_its_time(self):
        injector = FaultInjector(
            FaultPlan(seed=1, media_error_rate=1.0,
                      media_error_latency_us=100.0)
        )
        ledger = SlotChecksums(injector)
        ledger.record_write(7, 10.0, 0)
        strike = injector.media_strike_us(7, 0, 10.0)  # same pure draw
        assert strike is not None and 10.0 < strike <= 110.0
        assert ledger.is_clean(7, strike - 1e-9)
        assert not ledger.is_clean(7, strike)
        assert ledger.corrupt_since(7) == strike

    def test_media_strike_is_a_pure_function_of_seed_slot_write(self):
        def draws():
            injector = FaultInjector(
                FaultPlan(seed=9, media_error_rate=0.5)
            )
            return [injector.media_strike_us(slot, w, 0.0)
                    for slot in range(8) for w in range(4)]

        assert draws() == draws()

    def test_overwrite_clears_previous_state(self):
        injector = FaultInjector(FaultPlan(seed=1, bit_flip_write=1.0))
        ledger = SlotChecksums(injector)
        ledger.record_write(5, 40.0, 0)
        assert not ledger.is_clean(5, 50.0)
        ledger.injector = None  # next write draws no coins
        ledger.record_write(5, 60.0, 1)
        assert ledger.is_clean(5, 1e12)

    def test_drop_and_clear_forget_everything(self):
        injector = FaultInjector(FaultPlan(seed=1, bit_flip_write=1.0))
        ledger = SlotChecksums(injector)
        ledger.record_write(1, 0.0, 0)
        ledger.record_write(2, 0.0, 1)
        ledger.drop(1)
        assert ledger.is_clean(1, 1.0)
        assert not ledger.is_clean(2, 1.0)
        ledger.clear()
        assert ledger.tracked_slots() == ()

    def test_wire_flips_never_touch_the_ledger(self):
        injector = FaultInjector(FaultPlan(seed=1, bit_flip_read=1.0))
        ledger = SlotChecksums(injector)
        ledger.record_write(4, 0.0, 0)
        assert injector.corrupt_read(5.0)  # transient
        assert ledger.is_clean(4, 10.0)


# -- the controller --------------------------------------------------------------------


class TestIntegrityController:
    def _controller(self, cluster):
        return IntegrityController(cluster)

    def test_ledger_arithmetic_is_closed(self):
        cluster = _corrupt_cluster()
        controller = self._controller(cluster)
        assert controller.balanced
        controller.note_detected(1.0, 0, 0)
        assert not controller.balanced
        controller.note_repaired(1, 1.0, 0, 0)
        assert controller.balanced
        controller.note_detected(2.0, 1, 0)
        controller.note_unresolved(1)
        assert controller.balanced

    def test_repair_rewrites_from_the_clean_replica(self):
        cluster = _corrupt_cluster(nodes=3, replication=2)
        swap = SwapSpace()
        slot = swap.allocate([(1, 100)])
        _stored(cluster, slot, 1, 100)
        bad_id, clean_id = cluster.holders_of(slot)
        bad = cluster.nodes[bad_id]
        bad.remote.checksums._bad[slot] = 10.0  # corrupt one copy
        controller = self._controller(cluster)
        controller.note_detected(50.0, slot, bad_id, since=10.0)
        outcome = controller.resolve_stored_corruption(slot, bad_id, 50.0)
        assert outcome == "repaired"
        assert controller.corruption_repaired == 1
        assert controller.repair_reads == 1 and controller.repair_writes == 1
        assert bad.remote.checksums.is_clean(slot, 60.0)
        assert controller.balanced
        assert not cluster.is_poisoned(slot)

    def test_no_clean_copy_poisons_the_slot(self):
        cluster = _corrupt_cluster(nodes=3, replication=2)
        swap = SwapSpace()
        slot = swap.allocate([(1, 100)])
        _stored(cluster, slot, 1, 100)
        for node_id in cluster.holders_of(slot):
            cluster.nodes[node_id].remote.checksums._bad[slot] = 10.0
        first = cluster.holders_of(slot)[0]
        controller = self._controller(cluster)
        controller.note_detected(50.0, slot, first, since=10.0)
        outcome = controller.resolve_stored_corruption(slot, first, 50.0)
        assert outcome == "poisoned"
        assert cluster.is_poisoned(slot)
        assert controller.pages_poisoned == 1
        # Both condemned copies were detections, and the ledger closes.
        assert controller.corruption_detected == 2
        assert controller.poisoned_copies == 2
        assert controller.balanced
        # Poisoned slots keep their holders: the data exists, known-bad.
        assert cluster.holders_of(slot)

    def test_release_discards_the_poison_mark(self):
        cluster = _corrupt_cluster(nodes=2, replication=1)
        swap = SwapSpace()
        slot = swap.allocate([(1, 100)])
        _stored(cluster, slot, 1, 100)
        cluster.mark_poisoned(slot)
        assert cluster.is_poisoned(slot)
        cluster.release(slot)
        assert not cluster.is_poisoned(slot)

    def test_detection_latency_tracks_latent_corruption_age(self):
        cluster = _corrupt_cluster()
        controller = self._controller(cluster)
        controller.note_detected(150.0, 0, 0, since=100.0)
        controller.note_detected(400.0, 1, 0, since=100.0)
        controller.note_detected(500.0, 2, 0)  # wire flip: no age
        stats = controller.section()["detect_latency_us"]
        assert stats["count"] == 2
        assert stats["mean"] == pytest.approx(175.0)
        assert stats["max"] == pytest.approx(300.0)


# -- the patrol scrubber ---------------------------------------------------------------


class TestPatrolScrubber:
    def test_rate_sets_the_audit_interval(self):
        cluster = _corrupt_cluster()
        controller = IntegrityController(cluster)
        scrubber = PatrolScrubber(
            cluster, controller, ScrubConfig(rate_pages_per_s=2000.0)
        )
        assert scrubber.interval_us == pytest.approx(500.0)
        assert scrubber.due(0.0)
        scrubber.step(100.0)
        assert not scrubber.due(100.0 + 499.0)
        assert scrubber.due(100.0 + 500.0)

    def test_walk_covers_every_copy_round_robin(self):
        cluster = _corrupt_cluster(nodes=2, replication=2)
        swap = SwapSpace()
        for vpn in (100, 101, 102):
            slot = swap.allocate([(1, vpn)])
            _stored(cluster, slot, 1, vpn)
        controller = IntegrityController(cluster)
        scrubber = PatrolScrubber(cluster, controller, ScrubConfig())
        for step in range(6):  # 3 slots x 2 copies
            scrubber.step(step * 1000.0)
        assert controller.scrub_reads == 6
        # Every (slot, holder) pair was audited exactly once per lap.
        reads = [node.remote.pages_read for node in cluster.nodes]
        assert reads == [3, 3]

    def test_scrubber_skips_poisoned_and_lost_slots(self):
        # One slot per node: poisoned, lost, healthy.
        cluster = _corrupt_cluster(nodes=3, replication=1)
        swap = SwapSpace()
        slots = []
        for vpn in (100, 101, 102):
            slot = swap.allocate([(1, vpn)])
            _stored(cluster, slot, 1, vpn)
            slots.append(slot)
        holders = [cluster.holders_of(slot)[0] for slot in slots]
        assert sorted(holders) == [0, 1, 2]
        cluster.mark_poisoned(slots[0])
        cluster.mark_lost(slots[1])
        lost_store = cluster.nodes[holders[1]].remote
        assert lost_store.holds(slots[1])
        # A lost slot leaves the directory the patrol walks.
        assert slots[1] not in cluster.slots_in_directory()
        controller = IntegrityController(cluster)
        scrubber = PatrolScrubber(cluster, controller, ScrubConfig())
        for step in range(3):
            scrubber.step(step * 1000.0)
        assert controller.scrub_reads == 3
        assert cluster.nodes[holders[0]].remote.pages_read == 0
        assert lost_store.pages_read == 0
        assert cluster.nodes[holders[2]].remote.pages_read == 3

    def test_scrub_finds_latent_corruption_and_repairs_it(self):
        cluster = _corrupt_cluster(nodes=3, replication=2)
        swap = SwapSpace()
        slot = swap.allocate([(1, 100)])
        _stored(cluster, slot, 1, 100)
        bad_id = cluster.holders_of(slot)[0]
        cluster.nodes[bad_id].remote.checksums._strike_us[slot] = 500.0
        controller = IntegrityController(cluster)
        scrubber = PatrolScrubber(cluster, controller, ScrubConfig())
        # Before the strike: audits see a clean copy.
        scrubber.step(0.0)
        scrubber.step(200.0)
        assert controller.scrub_detected == 0
        # After the strike: the patrol latches and repairs it.
        for step in range(3):
            scrubber.step(1000.0 + step * 1000.0)
        assert controller.scrub_detected == 1
        assert controller.corruption_repaired == 1
        assert cluster.nodes[bad_id].remote.checksums.is_clean(slot, 1e6)
        assert controller.balanced

    def test_scrubber_rides_the_repair_pump_idle_slot(self):
        # A fast audit rate so even this short run sees patrol reads.
        machine = _machine(scrub=ScrubConfig(rate_pages_per_s=100_000.0))
        assert machine.backend.scrubber is not None
        assert machine.backend.repair.scrubber is machine.backend.scrubber
        touch_pages(machine, 1, range(64))
        assert machine.backend.integrity.scrub_reads > 0
        # Scrub-only arming injects nothing and detects nothing.
        assert machine.backend.integrity.corruption_detected == 0
        section = machine.backend.integrity.section()
        assert section["bit_flips_injected"] == 0
        assert section["media_errors_injected"] == 0


# -- poison semantics on the demand/prefetch/memtier paths -----------------------------


class TestPoisonSemantics:
    def _poison_one_remote(self, machine):
        """Mark one REMOTE page's slot poisoned; returns (vpn, slot)."""
        table = machine.page_table(1)
        vpn = next(
            v for v in range(64)
            if table.peek(v) is not None
            and table.peek(v).state == PteState.REMOTE
        )
        slot = table.peek(vpn).swap_slot
        machine.backend.integrity.poison(slot, machine.now_us, condemned=0)
        return vpn, slot

    def test_poisoned_demand_read_zero_fills(self):
        machine = _machine(scrub=ScrubConfig())
        touch_pages(machine, 1, range(64))
        vpn, slot = self._poison_one_remote(machine)
        machine.access(1, vpn << 12)
        assert machine.backend.integrity.poisoned_reads == 1
        assert machine.backend.pages_zero_filled == 1
        table = machine.page_table(1)
        assert table.peek(vpn).state == PteState.PRESENT
        # The fault released the slot, which discards the poison mark.
        assert not machine.cluster.is_poisoned(slot)
        assert machine.cluster.conserved()
        InvariantSanitizer(machine).check()

    def test_prefetch_skips_poisoned_slots(self):
        machine = _machine(scrub=ScrubConfig())
        touch_pages(machine, 1, range(64))
        vpn, _slot = self._poison_one_remote(machine)
        assert machine.prefetch_page(1, vpn, machine.now_us, True, "t0") is None

    def test_swapcache_salvage_rewrites_a_poisoned_slot(self):
        # A swapcache page whose remote copy is poisoned is the last
        # good copy: eviction must write it back fresh, not clean-drop.
        machine = _machine(scrub=ScrubConfig(), local_pages=16)
        touch_pages(machine, 1, range(48))
        table = machine.page_table(1)
        victim = next(
            (v for v in range(48)
             if table.peek(v) is not None
             and table.peek(v).state == PteState.SWAPCACHE), None)
        if victim is None:  # drive a page into the swapcache via prefetch
            victim = next(
                v for v in range(48)
                if table.peek(v) is not None
                and table.peek(v).state == PteState.REMOTE
            )
            machine.prefetch_page(1, victim, machine.now_us, False, "t0")
            machine.now_us += 10_000.0
            machine._process_arrivals(machine.now_us)
        pte = table.peek(victim)
        assert pte.state == PteState.SWAPCACHE
        old_slot = pte.swap_slot
        machine.backend.integrity.poison(old_slot, machine.now_us, condemned=0)
        salvaged_before = machine.pages_salvaged
        machine._evict([(1, victim)])
        assert machine.pages_salvaged == salvaged_before + 1
        assert pte.swap_slot != old_slot
        assert not machine.cluster.is_poisoned(pte.swap_slot)
        assert machine.cluster.conserved()

    def test_promotion_barred_and_force_demote(self):
        memtier = MemtierConfig(pool_nodes=1, pool_capacity_pages=128)
        machine = _machine(
            scrub=ScrubConfig(), nodes=1, memtier=memtier, local_pages=24
        )
        touch_pages(machine, 1, range(64))
        engine = machine.backend.memtier
        assert engine.integrity is machine.backend.integrity
        # Pick a pool-resident slot and poison it: a demote is queued.
        slot = next(iter(engine._pool_seq))
        pool_id = engine._pool_seq[slot][0]
        assert machine.cluster.nodes[pool_id].tier == TIER_POOL
        machine.backend.integrity.poison(slot, machine.now_us, condemned=0)
        assert ("demote", slot, pool_id) in engine._queue
        machine.flush_memtier()
        holders = machine.cluster.holders_of(slot)
        assert holders and machine.cluster.nodes[holders[0]].tier != TIER_POOL
        assert machine.cluster.is_poisoned(slot)  # the mark survives moves
        # And a queued promotion of a poisoned slot is refused.
        engine._enqueue(("promote", slot, -1))
        barred = machine.backend.integrity.promotions_barred
        machine.flush_memtier()
        assert machine.backend.integrity.promotions_barred == barred + 1
        assert machine.cluster.conserved()
        InvariantSanitizer(machine).check()


# -- PR3 x PR7 interaction: lost slots under the tier pool -----------------------------


class TestLostSlotMemtierInteraction:
    def _crash_tiered_machine(self):
        plan = FaultPlan(seed=1, node_crash=(1e9,))
        memtier = MemtierConfig(pool_nodes=1, pool_capacity_pages=64)
        machine = _machine(
            plan=plan, nodes=2, replication=1, local_pages=16,
            memtier=memtier,
        )
        touch_pages(machine, 1, range(64))
        return machine

    def test_lost_slot_zero_fills_even_with_pool_armed(self):
        machine = self._crash_tiered_machine()
        table = machine.page_table(1)
        # Node 0 is the pool node and the crash victim: find a page
        # whose only copy lives there.
        victim = next(
            vpn for vpn in range(64)
            if table.peek(vpn) is not None
            and table.peek(vpn).state == PteState.REMOTE
            and machine.cluster.holders_of(table.peek(vpn).swap_slot) == (0,)
        )
        machine.now_us = 1e9 + 600.0
        machine.access(1, victim << 12)
        assert machine.backend.pages_zero_filled == 1
        assert machine.backend.repair.pages_lost > 0
        assert table.peek(victim).state == PteState.PRESENT
        assert machine.cluster.conserved()
        InvariantSanitizer(machine).check()

    def test_swapcache_salvage_when_lost_copy_was_pool_resident(self):
        machine = self._crash_tiered_machine()
        table = machine.page_table(1)
        victim = next(
            vpn for vpn in range(64)
            if table.peek(vpn) is not None
            and table.peek(vpn).state == PteState.REMOTE
            and machine.cluster.holders_of(table.peek(vpn).swap_slot) == (0,)
        )
        # Pull the page into the swapcache, then kill the pool node.
        machine.prefetch_page(1, victim, machine.now_us, False, "t0")
        machine.now_us += 10_000.0
        machine._process_arrivals(machine.now_us)
        pte = table.peek(victim)
        assert pte.state == PteState.SWAPCACHE
        machine.now_us = 1e9 + 600.0
        machine.flush_recovery()
        assert machine.cluster.is_lost(pte.swap_slot)
        machine._evict([(1, victim)])
        assert machine.pages_salvaged == 1
        assert pte.state == PteState.REMOTE
        holders = machine.cluster.holders_of(pte.swap_slot)
        assert holders and 0 not in holders
        assert machine.cluster.conserved()

    def test_mid_migration_loss_abandons_the_task_cleanly(self):
        machine = self._crash_tiered_machine()
        engine = machine.backend.memtier
        # Queue a demotion for a pool-resident slot, then lose its node
        # before the pump runs: the task must bail without a transfer.
        slot = next(iter(engine._pool_seq))
        pool_id = engine._pool_seq[slot][0]
        assert pool_id == 0  # the pool node is the crash victim
        engine._enqueue(("demote", slot, pool_id))
        machine.now_us = 1e9 + 600.0
        machine.flush_recovery()
        assert machine.cluster.holders_of(slot) == ()
        reads_before = engine.migration_reads
        machine.flush_memtier()
        assert engine.migration_reads == reads_before
        assert slot not in engine._pool_seq
        assert machine.cluster.conserved()
        InvariantSanitizer(machine).check()


# -- acceptance ------------------------------------------------------------------------


class TestCorruptionAcceptance:
    def test_replicated_scrubbed_cluster_repairs_everything(self):
        result = _acceptance_result(replication=2)
        section = result.integrity
        assert section["corruption_detected"] > 0
        assert section["corruption_repaired"] > 0
        assert section["pages_poisoned"] == 0
        assert section["poisoned_reads"] == 0
        assert section["scrub_detected"] > 0
        assert section["corruption_detected"] == (
            section["corruption_repaired"]
            + section["corruption_unresolved"]
            + section["poisoned_copies"]
        )
        assert result.invariant_checks > 0

    def test_unreplicated_cluster_poisons_deterministically(self):
        result = _acceptance_result(replication=1, nodes=2)
        section = result.integrity
        assert section["pages_poisoned"] > 0
        assert section["poisoned_reads"] > 0
        # Every poisoned demand read zero-filled.
        assert result.pages_zero_filled >= section["poisoned_reads"]
        assert result.invariant_checks > 0

    def test_corruption_outcome_is_deterministic(self):
        first = _acceptance_result(replication=1, nodes=2)
        second = _acceptance_result(replication=1, nodes=2)
        assert first.to_dict(full=True) == second.to_dict(full=True)

    def test_corruption_off_has_no_integrity_key(self):
        workload = build("stream-simple", npages=120, passes=2)
        result = runner.run(workload, "hopp", 0.5, quiet_fabric())
        payload = result.to_dict(full=True)
        assert "integrity" not in payload
        assert result.integrity is None

    def test_loud_fault_plans_do_not_arm_integrity(self):
        # Chaos (no corruption fields) must not grow the integrity
        # section: pre-existing chaos results stay byte-identical.
        workload = build("stream-simple", npages=120, passes=2)
        result = runner.run(
            workload, "hopp", 0.5, quiet_fabric(),
            env=RunEnv(fault_plan=FaultPlan.chaos(1)),
        )
        assert "integrity" not in result.to_dict(full=True)

    def test_integrity_section_round_trips(self):
        result = _acceptance_result(replication=2)
        clone = RunResult.from_dict(result.to_dict(full=True))
        assert clone.integrity == result.integrity
        assert clone.to_dict(full=True) == result.to_dict(full=True)

    def test_scrub_rate_trades_reads_for_latency(self):
        slow = _acceptance_result(replication=2, scrub_rate=500.0)
        fast = _acceptance_result(replication=2, scrub_rate=20000.0)
        assert fast.integrity["scrub_reads"] > slow.integrity["scrub_reads"]

    def test_corruption_chaos_under_sanitizer_stays_conserved(self):
        result = _acceptance_result(
            replication=2, plan=FaultPlan.corruption_chaos(1)
        )
        section = result.integrity
        assert section["corruption_detected"] == (
            section["corruption_repaired"]
            + section["corruption_unresolved"]
            + section["poisoned_copies"]
        )
        assert result.invariant_checks > 0
