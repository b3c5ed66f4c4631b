"""Tests for the tenant-scale scenario engine.

Covers the four scenario subsystems in isolation — arrival patterns,
SLO tracking, the admission/degradation ladder, the autoscaler — and
then the composed engine: overload plus a crash during peak must
complete with no unhandled exception, every shed action counted, and
page accounting conserved under the invariant sanitizer.
"""

from __future__ import annotations

import pytest

from repro.net.faults import FaultPlan
from repro.net.rdma import FabricConfig
from repro.scenario import (
    LEVEL_DEGRADE,
    LEVEL_NOMINAL,
    LEVEL_REJECT,
    LEVEL_THROTTLE,
    AdmissionController,
    AdmissionRejectedError,
    Autoscaler,
    AutoscalerConfig,
    LadderConfig,
    ScenarioConfig,
    SloTarget,
    SloTracker,
    TenantSpec,
    build_fleet,
    intensity,
    pattern_names,
    preset,
    run_scenario,
)
from repro.scenario.traffic import TIER_BEST_EFFORT, TIER_GUARANTEED
from repro.sim.machine import Machine, MachineConfig, RunEnv
from repro.sim.metrics import RunResult
from repro.telemetry.events import EV_DEMAND_FAULT
from repro.cluster.cluster import ClusterConfig
from repro.cluster.health import NodeState


# -- traffic: patterns and fleets -------------------------------------------------------


class TestPatterns:
    def test_registry_has_the_documented_shapes(self):
        assert {"steady", "diurnal", "bursty", "flash"} <= set(pattern_names())

    def test_intensity_is_deterministic(self):
        for pattern in pattern_names():
            a = [intensity(pattern, 42, rnd, 10) for rnd in range(10)]
            b = [intensity(pattern, 42, rnd, 10) for rnd in range(10)]
            assert a == b

    def test_intensity_streams_are_per_tenant_independent(self):
        # Tenant 7's bursty schedule must not depend on whether tenant 8
        # exists — the draws are keyed on (tenant seed, round) alone.
        before = [intensity("bursty", 7, rnd, 8) for rnd in range(8)]
        _ = [intensity("bursty", 8, rnd, 8) for rnd in range(8)]
        after = [intensity("bursty", 7, rnd, 8) for rnd in range(8)]
        assert before == after

    def test_intensity_bounded(self):
        for pattern in pattern_names():
            for seed in (1, 13, 97):
                for rnd in range(12):
                    value = intensity(pattern, seed, rnd, 12)
                    assert 0.0 <= value <= 1.0

    def test_flash_spikes_past_midrun(self):
        rounds = 12
        series = [intensity("flash", 5, rnd, rounds) for rnd in range(rounds)]
        peak = series.index(max(series))
        assert peak >= rounds // 2
        assert max(series) == 1.0
        assert min(series) > 0.0

    def test_unknown_pattern_rejected(self):
        with pytest.raises(KeyError):
            intensity("nope", 1, 0, 8)


class TestFleet:
    def test_fleet_is_deterministic(self):
        assert build_fleet(9, seed=3) == build_fleet(9, seed=3)

    def test_tier_interleave_matches_fraction(self):
        fleet = build_fleet(10, best_effort_fraction=0.5)
        tiers = [spec.tier for spec in fleet]
        assert tiers.count(TIER_BEST_EFFORT) == 5
        # Evenly spread, not front- or back-loaded.
        assert tiers[:2].count(TIER_BEST_EFFORT) == 1

    def test_all_guaranteed_fleet(self):
        fleet = build_fleet(4, best_effort_fraction=0.0)
        assert all(spec.tier == TIER_GUARANTEED for spec in fleet)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(name="x", tier="gold")
        with pytest.raises(ValueError):
            TenantSpec(name="x", pattern="nope")
        with pytest.raises(ValueError):
            TenantSpec(name="x", start_round=-1)


# -- SLO tracker ------------------------------------------------------------------------


def _fault(tracker, ts_us, pid, cost_us, zero_filled=False):
    tracker.on_event(
        EV_DEMAND_FAULT,
        ts_us,
        {"pid": pid, "vpn": 1, "wait_us": cost_us, "cost_us": cost_us,
         "zero_filled": zero_filled},
    )


class TestSloTracker:
    def tracker(self, **kwargs):
        return SloTracker(
            epoch_us=100.0,
            tenant_of=lambda pid: pid // 100,
            targets={0: SloTarget(p99_us=50.0, max_lost=0)},
            **kwargs,
        )

    def test_epoch_attainment_splits_on_target(self):
        tracker = self.tracker()
        _fault(tracker, 10.0, pid=0, cost_us=5.0)      # epoch 0: fast
        _fault(tracker, 150.0, pid=0, cost_us=500.0)   # epoch 1: slow
        assert tracker.epoch_attained(0, 0)
        assert not tracker.epoch_attained(0, 1)
        assert tracker.attainment(0) == 0.5

    def test_lost_page_breaks_the_epoch(self):
        tracker = self.tracker()
        _fault(tracker, 10.0, pid=0, cost_us=5.0, zero_filled=True)
        assert tracker.lost_pages(0) == 1
        assert not tracker.epoch_attained(0, 0)

    def test_idle_tenant_attains_vacuously(self):
        assert self.tracker().attainment(99) == 1.0

    def test_non_fault_events_ignored(self):
        tracker = self.tracker()
        tracker.on_event("prefetch_issue", 1.0, {"pid": 0})
        assert tracker.events_seen == 0

    def test_export_is_json_shaped(self):
        import json

        tracker = self.tracker()
        _fault(tracker, 10.0, pid=0, cost_us=5.0)
        _fault(tracker, 10.0, pid=100, cost_us=500.0)
        out = json.loads(json.dumps(tracker.export()))
        assert out["events"] == 2
        assert out["tenants"]["0"]["attainment"] == 1.0
        assert out["tenants"]["1"]["attainment"] == 0.0


# -- admission controller / degradation ladder ------------------------------------------


def _tenants():
    return {
        0: TenantSpec(name="guar", tier=TIER_GUARANTEED),
        1: TenantSpec(name="be", tier=TIER_BEST_EFFORT),
    }


class TestLadder:
    def controller(self, **kwargs):
        config = LadderConfig(**kwargs) if kwargs else LadderConfig()
        controller = AdmissionController(config)
        controller.attach_pid_stride(100)
        for index, spec in _tenants().items():
            controller.register(index, spec)
        return controller

    def test_climbs_one_rung_per_update(self):
        controller = self.controller()
        levels = [controller.update(2.0, now_us=t * 10.0) for t in range(5)]
        assert levels == [
            LEVEL_THROTTLE, LEVEL_REJECT, LEVEL_DEGRADE, LEVEL_DEGRADE,
            LEVEL_DEGRADE,
        ]

    def test_shedding_order_softest_first(self):
        controller = self.controller()
        controller.update(2.0, now_us=0.0)
        # Rung 1: prefetch throttled, admissions still open.
        assert controller.throttle_trips > 0
        controller.admit(7, TenantSpec(name="late"), now_us=1.0)
        # Rung 2: admissions rejected, nobody degraded yet.
        controller.update(2.0, now_us=2.0)
        with pytest.raises(AdmissionRejectedError):
            controller.admit(8, TenantSpec(name="later"), now_us=3.0)
        assert not controller.degraded_tenants()
        # Rung 3: best-effort degraded.
        controller.update(2.0, now_us=4.0)
        assert controller.degraded_tenants() == {1}

    def test_descent_needs_consecutive_calm(self):
        controller = self.controller(calm_updates=2)
        controller.update(2.0, now_us=0.0)
        assert controller.level == LEVEL_THROTTLE
        controller.update(0.1, now_us=1.0)
        assert controller.level == LEVEL_THROTTLE  # one calm is not enough
        controller.update(0.7, now_us=2.0)         # mid-band resets calm
        controller.update(0.1, now_us=3.0)
        assert controller.level == LEVEL_THROTTLE
        controller.update(0.1, now_us=4.0)
        assert controller.level == LEVEL_NOMINAL

    def test_guaranteed_never_degraded(self):
        controller = self.controller()
        for t in range(6):
            controller.update(5.0, now_us=t * 10.0)
        assert controller.level == LEVEL_DEGRADE
        assert 0 not in controller.degraded_tenants()
        assert controller.slice_factor(0) == 1.0
        assert controller.slice_factor(1) == 0.5

    def test_restoration_counted_on_descent(self):
        controller = self.controller(calm_updates=1)
        for t in range(3):
            controller.update(2.0, now_us=float(t))
        assert controller.degradations == 1
        controller.update(0.0, now_us=10.0)  # degrade -> reject: restored
        assert controller.restorations == 1
        assert not controller.degraded_tenants()

    def test_rejection_is_typed_and_counted(self):
        controller = self.controller()
        controller.update(2.0, now_us=0.0)
        controller.update(2.0, now_us=1.0)
        spec = TenantSpec(name="newcomer")
        with pytest.raises(AdmissionRejectedError) as info:
            controller.admit(9, spec, now_us=2.0)
        assert info.value.tenant == "newcomer"
        assert info.value.level == LEVEL_REJECT
        assert controller.rejections == 1
        assert controller.rejections_by_tenant == {"newcomer": 1}
        # A rejected tenant holds no breaker: it was never registered.
        assert controller.prefetch_gate(900, "t1", 3.0)

    def test_throttle_gates_best_effort_prefetch(self):
        controller = self.controller()
        controller.update(2.0, now_us=0.0)
        # Tenant 1 (pids 100..199) is best-effort: breaker open.
        assert not controller.prefetch_gate(101, "t1", 1.0)
        # Guaranteed tenant 0 keeps prefetching.
        assert controller.prefetch_gate(1, "t1", 1.0)

    def test_export_counts_transitions(self):
        controller = self.controller()
        controller.update(2.0, now_us=0.0)
        out = controller.export()
        assert out["level"] == LEVEL_THROTTLE
        assert out["transitions"] == [[1, 0, 1]]

    def test_ladder_config_validation(self):
        with pytest.raises(ValueError):
            LadderConfig(enter=0.5, exit=0.5)
        with pytest.raises(ValueError):
            LadderConfig(degrade_slice_factor=0.0)


# -- autoscaler -------------------------------------------------------------------------


def _armed_machine(nodes=3, standby=1):
    machine = Machine(
        MachineConfig(
            local_memory_pages=64,
            env=RunEnv(
                fault_plan=FaultPlan(), cluster=ClusterConfig(nodes=nodes)
            ),
        )
    )
    machine.register_process(0)
    machine.add_vma(0, 0, 64, "heap")
    for node_id in range(nodes - standby, nodes):
        machine.backend.health.retire(node_id)
    return machine


class TestAutoscaler:
    def test_requires_armed_recovery(self):
        machine = Machine(MachineConfig(local_memory_pages=64))
        with pytest.raises(RuntimeError):
            Autoscaler(machine)

    def test_scale_out_activates_standby(self):
        machine = _armed_machine(nodes=3, standby=1)
        scaler = Autoscaler(
            machine, AutoscalerConfig(sustain_rounds=2, cooldown_rounds=0)
        )
        assert scaler.active_nodes() == [0, 1]
        assert scaler.standby_nodes() == [2]
        assert scaler.observe(5.0, rnd=0) is None      # one hot round
        assert scaler.observe(5.0, rnd=1) == "scale_out"
        assert scaler.active_nodes() == [0, 1, 2]
        assert machine.backend.health.is_placeable(2)
        assert scaler.events == [[1, "scale_out", 2]]

    def test_scale_out_without_standby_is_noop(self):
        machine = _armed_machine(nodes=2, standby=0)
        scaler = Autoscaler(
            machine, AutoscalerConfig(sustain_rounds=1, cooldown_rounds=0)
        )
        assert scaler.observe(5.0, rnd=0) is None
        assert scaler.scale_outs == 0

    def test_scale_in_drains_to_standby(self):
        machine = _armed_machine(nodes=3, standby=1)
        scaler = Autoscaler(
            machine, AutoscalerConfig(sustain_rounds=1, cooldown_rounds=0)
        )
        assert scaler.observe(0.0, rnd=0) == "scale_in"
        assert machine.backend.health.state(1) is NodeState.DRAINING
        machine.flush_recovery()
        # Empty node: the drain completes instantly and parks in standby
        # instead of rejoining placement.
        assert machine.backend.health.is_standby(1)
        assert not machine.backend.health.is_placeable(1)
        assert scaler.active_nodes() == [0]

    def test_min_active_floor_counts_only_undraining_nodes(self):
        machine = _armed_machine(nodes=3, standby=1)
        scaler = Autoscaler(
            machine,
            AutoscalerConfig(sustain_rounds=1, cooldown_rounds=0,
                             min_active=1),
        )
        assert scaler.observe(0.0, rnd=0) == "scale_in"
        # Node 1 may still be draining; node 0 is the last UP node and
        # must never be retired.
        assert scaler.observe(0.0, rnd=1) is None
        assert scaler.scale_ins == 1

    def test_cooldown_suppresses_flapping(self):
        machine = _armed_machine(nodes=4, standby=2)
        scaler = Autoscaler(
            machine, AutoscalerConfig(sustain_rounds=1, cooldown_rounds=2)
        )
        assert scaler.observe(5.0, rnd=0) == "scale_out"
        assert scaler.observe(5.0, rnd=1) is None   # cooling
        assert scaler.observe(5.0, rnd=2) is None   # cooling
        assert scaler.observe(5.0, rnd=3) == "scale_out"

    def test_mid_band_pressure_resets_streaks(self):
        machine = _armed_machine(nodes=3, standby=1)
        scaler = Autoscaler(
            machine, AutoscalerConfig(sustain_rounds=2, cooldown_rounds=0)
        )
        assert scaler.observe(5.0, rnd=0) is None
        assert scaler.observe(0.5, rnd=1) is None   # neither hot nor calm
        assert scaler.observe(5.0, rnd=2) is None   # streak restarted
        assert scaler.observe(5.0, rnd=3) == "scale_out"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(out_pressure=0.2, in_pressure=0.2)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_active=0)


# -- the composed engine ----------------------------------------------------------------


def _quiet(**overrides):
    base = dict(
        name="test",
        tenants=tuple(build_fleet(4, seed=5, rounds=4, pages_per_tenant=80)),
        rounds=4,
        accesses_per_round=800,
        remote_nodes=2,
        standby_nodes=1,
        fabric=FabricConfig(gbps=56.0, jitter_us=0.0, spike_probability=0.0),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestEngine:
    def test_scenario_attaches_result_section(self):
        result = run_scenario(_quiet())
        section = result.scenario
        assert section is not None
        assert section["admitted"] == 4
        assert section["conservation"]["cluster_conserved"]
        assert section["conservation"]["invariant_checks"] > 0
        assert len(section["series"]) == 4
        assert section["slo"]["events"] > 0

    def test_one_sweep_after_the_last_round(self, monkeypatch):
        # The end-of-run flush gives the sanitizer its final sweep;
        # nothing sweeps again before the result is collected.
        checks_at_flush = []
        flush_recovery = Machine.flush_recovery

        def counting_flush(machine):
            checks_at_flush.append(machine.sanitizer.checks_run)
            flush_recovery(machine)

        monkeypatch.setattr(Machine, "flush_recovery", counting_flush)
        section = run_scenario(_quiet()).scenario
        assert len(checks_at_flush) == 1
        final = section["conservation"]["invariant_checks"]
        assert final - checks_at_flush[0] == 1

    def test_scenario_section_round_trips(self):
        import json

        result = run_scenario(_quiet())
        wire = json.loads(json.dumps(result.to_dict(full=True)))
        revived = RunResult.from_dict(wire)
        assert revived.scenario == result.scenario

    def test_plain_results_have_no_scenario_section(self):
        from repro.sim import runner
        from repro.workloads import build

        result = runner.run(
            build("stream-simple", seed=3, npages=64, passes=1), "hopp", 0.5
        )
        assert result.scenario is None
        assert "scenario" not in result.to_dict(full=True)

    def test_scenario_is_deterministic(self):
        a = run_scenario(_quiet()).scenario
        b = run_scenario(_quiet()).scenario
        assert a == b

    def test_overload_with_crash_during_peak_completes(self):
        # The acceptance scenario: saturating fleet, narrow fabric, a
        # node crash mid-peak.  Must complete with no unhandled
        # exception, shed load through the ladder in order, count every
        # rejection, and conserve page accounting.
        config = _quiet(
            tenants=tuple(
                build_fleet(8, seed=9, rounds=6, pages_per_tenant=100)
            ),
            rounds=6,
            accesses_per_round=2500,
            replication=2,
            fabric=FabricConfig(gbps=1.0),
            fault_plan=FaultPlan.crash(seed=4, at_us=4_000.0),
        )
        result = run_scenario(config)
        section = result.scenario
        admission = section["admission"]
        # The ladder engaged and is the reason admissions were refused.
        assert admission["level"] >= LEVEL_THROTTLE
        assert admission["throttle_trips"] > 0
        assert section["shedding"]["prefetch_throttled"] > 0
        # Every deferred arrival corresponds to a counted rejection.
        assert section["deferrals"] == admission["rejections"]
        assert (
            sum(admission["rejections_by_tenant"].values())
            == admission["rejections"]
        )
        # The crash was observed and survived.
        assert result.node_crashes == 1
        assert section["conservation"]["cluster_conserved"]
        assert section["conservation"]["invariant_checks"] > 0

    def test_degraded_tier_is_best_effort_only(self):
        config = _quiet(
            tenants=tuple(
                build_fleet(6, seed=11, rounds=5, pages_per_tenant=100,
                            staggered=False)
            ),
            rounds=5,
            accesses_per_round=2500,
            fabric=FabricConfig(gbps=0.5),
        )
        result = run_scenario(config)
        admission = result.scenario["admission"]
        if admission["degradations"]:
            guaranteed = {
                index
                for index, spec in enumerate(config.tenants)
                if spec.tier == TIER_GUARANTEED
            }
            # Degraded pid count covers only best-effort tenants.
            degraded_pids = result.scenario["shedding"]["deprioritized_pids"]
            assert degraded_pids <= (len(config.tenants) - len(guaranteed)) * 100

    def test_presets_build(self):
        for name in ("smoke", "burst", "diurnal", "flash"):
            config = preset(name)
            assert config.tenants
        with pytest.raises(KeyError):
            preset("nope")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _quiet(rounds=0)
        with pytest.raises(ValueError):
            _quiet(remote_nodes=1, replication=2)
        with pytest.raises(ValueError):
            ScenarioConfig(name="empty", tenants=())
