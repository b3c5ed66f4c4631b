"""Tests for the prefetch policy engine (Section III-E)."""

import pytest

from repro.common.types import PrefetchDecision
from repro.hopp.policy import PolicyConfig, PolicyEngine
from tests.conftest import make_observation


def decision(stride=1, base=100, delta=0, tier="ssp"):
    return PrefetchDecision(
        tier=tier, base_vpn=base, per_offset_stride=stride, fixed_delta=delta
    )


def obs(stream_id=0):
    return make_observation(list(range(100, 116)), stream_id=stream_id)


class TestFinalize:
    def test_default_offset_and_intensity(self):
        engine = PolicyEngine()
        targets = engine.finalize(decision(), obs())
        assert targets == (101,)  # base + 1*stride
        assert engine.requests_out == 1

    def test_intensity_emits_consecutive_offsets(self):
        engine = PolicyEngine(PolicyConfig(intensity=3))
        targets = engine.finalize(decision(stride=2), obs())
        assert targets == (102, 104, 106)
        assert engine.requests_out == 3

    def test_negative_targets_dropped(self):
        engine = PolicyEngine(PolicyConfig(intensity=2))
        assert engine.finalize(decision(stride=-60, base=50), obs()) == ()
        assert engine.requests_out == 0

    def test_ladder_fixed_delta_applied_once(self):
        engine = PolicyEngine()
        targets = engine.finalize(decision(stride=4, delta=1, tier="lsp"), obs())
        assert targets == (100 + 1 + 4,)

    def test_offset_rounding(self):
        engine = PolicyEngine()
        engine._offsets[0] = 2.6
        targets = engine.finalize(decision(), obs(stream_id=0))
        assert targets == (103,)  # round(2.6) = 3

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

    def test_forget_stream(self):
        engine = PolicyEngine()
        engine.report_timeliness(3, t_us=1.0, issued_us=0.0, now_us=1.0)
        engine.forget_stream(3)
        assert engine.offset_of(3) == 1.0
