"""Tests for the prefetch policy engine (Section III-E)."""

import random
from itertools import product

import pytest

from repro.common.types import target_vpn
from repro.hopp.policy import PolicyConfig, PolicyEngine
from repro.sim import systems
from repro.sim.machine import MachineConfig
from repro.tune import build_space, space_names
from tests.conftest import quiet_fabric


def decision(stride=1, base=100, delta=0, tier="ssp"):
    return (tier, base, stride, delta)


class TestFinalize:
    def test_default_offset_and_intensity(self):
        engine = PolicyEngine()
        targets = engine.finalize(decision(), 0)
        assert targets == (101,)  # base + 1*stride
        assert engine.requests_out == 1

    def test_intensity_emits_consecutive_offsets(self):
        engine = PolicyEngine(PolicyConfig(intensity=3))
        targets = engine.finalize(decision(stride=2), 0)
        assert targets == (102, 104, 106)
        assert engine.requests_out == 3

    def test_negative_targets_dropped(self):
        engine = PolicyEngine(PolicyConfig(intensity=2))
        assert engine.finalize(decision(stride=-60, base=50), 0) == ()
        assert engine.requests_out == 0

    def test_ladder_fixed_delta_applied_once(self):
        engine = PolicyEngine()
        targets = engine.finalize(decision(stride=4, delta=1, tier="lsp"), 0)
        assert targets == (100 + 1 + 4,)

    def test_offset_rounding(self):
        engine = PolicyEngine(PolicyConfig(alpha=0.6))
        engine.report_timeliness(0, t_us=1.0, issued_us=0.0, now_us=1.0)
        assert engine.offset_of(0) == pytest.approx(1.6)
        assert engine.finalize(decision(), 0) == (102,)  # round(1.6) = 2
        engine.report_timeliness(0, t_us=1.0, issued_us=2.0, now_us=3.0)
        assert engine.offset_of(0) == pytest.approx(2.56)
        assert engine.finalize(decision(), 0) == (103,)  # round(2.56) = 3

    def test_invalid_intensity(self):
        with pytest.raises(ValueError):
            PolicyEngine(PolicyConfig(intensity=0))


class TestOffsetAdaptation:
    def test_late_page_increases_offset(self):
        engine = PolicyEngine(PolicyConfig(alpha=0.2, t_min_us=40.0))
        engine.report_timeliness(0, t_us=5.0, issued_us=0.0, now_us=10.0)
        assert engine.offset_of(0) == pytest.approx(1.2)
        assert engine.offset_increases == 1

    def test_early_page_decreases_offset(self):
        engine = PolicyEngine(PolicyConfig(alpha=0.2, t_max_us=100.0))
        engine._offsets[0] = 10.0
        engine.report_timeliness(0, t_us=500.0, issued_us=0.0, now_us=1.0)
        assert engine.offset_of(0) == pytest.approx(8.0)
        assert engine.offset_decreases == 1

    def test_in_window_no_change(self):
        engine = PolicyEngine(PolicyConfig(t_min_us=40.0, t_max_us=100.0))
        engine.report_timeliness(0, t_us=60.0, issued_us=0.0, now_us=1.0)
        assert engine.offset_of(0) == 1.0

    def test_offset_bounded(self):
        engine = PolicyEngine(PolicyConfig(alpha=0.5, offset_max=4.0))
        now = 0.0
        for i in range(20):
            # Each report reflects a prefetch issued after the previous
            # adjustment, so the gate always passes.
            engine.report_timeliness(0, t_us=1.0, issued_us=now + 1.0, now_us=now + 1.0)
            now += 1.0
        assert engine.offset_of(0) == 4.0

    def test_offset_floor_is_one(self):
        engine = PolicyEngine(PolicyConfig(alpha=0.9))
        engine._offsets[0] = 1.1
        engine.report_timeliness(0, t_us=1e9, issued_us=0.0, now_us=1.0)
        assert engine.offset_of(0) == 1.0

    def test_non_adaptive_never_changes(self):
        engine = PolicyEngine(PolicyConfig(adaptive=False, initial_offset=7.0))
        engine.report_timeliness(0, t_us=0.0, issued_us=0.0, now_us=1.0)
        assert engine.offset_of(0) == 7.0

    def test_feedback_gate_blocks_stale_reports(self):
        """Reports for prefetches issued before the last adjustment must
        not compound — the control-loop overshoot guard."""
        engine = PolicyEngine(PolicyConfig(alpha=0.2))
        engine.report_timeliness(0, t_us=1.0, issued_us=5.0, now_us=10.0)
        assert engine.offset_of(0) == pytest.approx(1.2)
        # This report reflects a prefetch issued at t=7 < 10: ignored.
        engine.report_timeliness(0, t_us=1.0, issued_us=7.0, now_us=11.0)
        assert engine.offset_of(0) == pytest.approx(1.2)
        # A post-adjustment prefetch counts.
        engine.report_timeliness(0, t_us=1.0, issued_us=12.0, now_us=13.0)
        assert engine.offset_of(0) == pytest.approx(1.44)

    def test_per_stream_isolation(self):
        engine = PolicyEngine()
        engine.report_timeliness(1, t_us=1.0, issued_us=0.0, now_us=1.0)
        assert engine.offset_of(1) > 1.0
        assert engine.offset_of(2) == 1.0


class TestFinalizeAgainstTargetVpn:
    """``finalize``'s arithmetic against ``target_vpn(decision, i)`` for
    ``i`` over the stream's rounded offset and the next intensity - 1."""

    @pytest.mark.parametrize("intensity", [1, 2, 3, 4])
    def test_random_decisions_and_adapted_offsets(self, intensity):
        rng = random.Random(intensity)
        engine = PolicyEngine(PolicyConfig(intensity=intensity, alpha=0.3))
        now = 0.0
        negatives = adapted = 0
        for _ in range(3000):
            stream_id = rng.randrange(5)
            now += 1.0
            if rng.random() < 0.3:
                # Late and early pages move the stream's offset.
                t_us = rng.choice([1.0, 10.0, 1e5])
                engine.report_timeliness(stream_id, t_us, now, now)
            decision = (
                rng.choice(["ssp", "lsp", "rsp"]),
                rng.randrange(0, 300),
                rng.choice([-64, -9, -1, 0, 1, 2, 7, 64]),
                rng.randint(-20, 20),
            )
            offset = max(1, round(engine.offset_of(stream_id)))
            adapted += offset > 1
            every = [target_vpn(decision, i)
                     for i in range(offset, offset + intensity)]
            want = tuple(vpn for vpn in every if vpn >= 0)
            negatives += len(want) < len(every)
            before = engine.requests_out
            assert engine.finalize(decision, stream_id) == want
            assert engine.requests_out - before == len(want)
        assert negatives > 0 and adapted > 0


class TestPolicyConfigValidation:
    @pytest.mark.parametrize(
        "kwargs, knob",
        [
            ({"intensity": 0}, "intensity"),
            ({"intensity": -1}, "intensity"),
            ({"alpha": -0.1}, "alpha"),
            ({"alpha": 1.0}, "alpha"),
            ({"initial_offset": 0.5}, "initial_offset"),
            ({"initial_offset": 8.0, "offset_max": 4.0}, "initial_offset"),
            ({"t_min_us": -1.0}, "t_min_us"),
            ({"t_min_us": 100.0, "t_max_us": 100.0}, "t_min_us"),
            ({"t_min_us": 6000.0}, "t_min_us"),
        ],
    )
    def test_rejects(self, kwargs, knob):
        with pytest.raises(ValueError, match=knob):
            PolicyConfig(**kwargs)

    def test_accepts_the_edges(self):
        PolicyConfig(intensity=1, alpha=0.0, initial_offset=1.0,
                     offset_max=1.0, t_min_us=0.0, t_max_us=0.5)

    def test_variant_rejects_t_min_above_default_t_max(self):
        with pytest.raises(ValueError, match="t_min_us"):
            systems.variant("hopp", {"policy.t_min_us": 6000.0})

    def test_every_registered_system_builds(self):
        for name in systems.names():
            machine = systems.build(name).build(
                MachineConfig(local_memory_pages=64, fabric=quiet_fabric())
            )
            if machine.hopp is not None:
                assert machine.hopp.policy.config.intensity >= 1

    def test_every_tuner_space_corner_builds(self):
        for space in map(build_space, space_names()):
            knobs = [param for param in space
                     if param.name.startswith("system.policy.")]
            for corner in product(*[(param.lo, param.hi) for param in knobs]):
                systems.variant("hopp", {
                    param.name[len("system."):]: value
                    for param, value in zip(knobs, corner)
                })
