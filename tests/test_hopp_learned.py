"""Tests for the learned stride-context prefetcher."""

import pytest

from repro.hopp.learned import LearnedStridePredictor, LearnedTrainer
from tests.conftest import make_observation, quiet_fabric


def feed_stream(predictor, vpns):
    decision = None
    for end in range(4, len(vpns) + 1):
        window = vpns[max(0, end - 16) : end]
        if len(window) < 4:
            continue
        decision = predictor.train(make_observation(window))
    return decision


class TestLearnedStridePredictor:
    def test_learns_constant_stride(self):
        predictor = LearnedStridePredictor(context_len=2)
        decision = feed_stream(predictor, [100 + 3 * i for i in range(30)])
        assert decision is not None
        assert decision[2] == 3
        assert decision[0] == "learned"

    def test_learns_repeating_pattern(self):
        # Ladder-like strides: 5, 1, 5, 1, ... context (5, 1) -> 5 etc.
        vpns = [0]
        for i in range(40):
            vpns.append(vpns[-1] + (5 if i % 2 == 0 else 1))
        predictor = LearnedStridePredictor(context_len=2)
        decision = feed_stream(predictor, vpns)
        assert decision is not None
        # The last two strides determine the next one exactly.
        expected = 5 if (len(vpns) - 1) % 2 == 0 else 1
        assert decision[2] == expected

    def test_abstains_without_confidence(self):
        import random

        rng = random.Random(1)
        vpns = [1000]
        for _ in range(60):
            vpns.append(vpns[-1] + rng.choice([3, -7, 11, 19, -23]))
        predictor = LearnedStridePredictor(context_len=2, confidence=0.9)
        feed_stream(predictor, vpns)
        assert predictor.abstentions > 0

    def test_adapts_to_phase_change(self):
        predictor = LearnedStridePredictor(context_len=1, decay=0.5)
        feed_stream(predictor, [100 + i for i in range(30)])
        decision = feed_stream(predictor, [5000 + 4 * i for i in range(30)])
        assert decision is not None
        assert decision[2] == 4

    def test_table_capacity_bounded(self):
        predictor = LearnedStridePredictor(context_len=2, max_contexts=8)
        import random

        rng = random.Random(2)
        vpns = [0]
        for _ in range(300):
            vpns.append(vpns[-1] + rng.randrange(1, 50))
        feed_stream(predictor, vpns)
        assert predictor.table_size <= 8

    def test_never_predicts_zero_stride(self):
        predictor = LearnedStridePredictor(context_len=1, confidence=0.1)
        # Alternating +1/-1 netting to repeated pages.
        vpns = [100, 101, 100, 101, 100, 101, 100, 101]
        decision = feed_stream(predictor, vpns)
        if decision is not None:
            assert decision[2] != 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LearnedStridePredictor(context_len=0)
        with pytest.raises(ValueError):
            LearnedStridePredictor(confidence=0.0)


class TestLearnedTrainer:
    def test_trainer_interface(self):
        trainer = LearnedTrainer()
        obs = make_observation([100 + i for i in range(16)])
        for _ in range(4):
            trainer.train(obs)
        assert (
            trainer.decisions_by_tier["learned"] + trainer.no_decision == 4
        )


class TestHoppLearnedSystem:
    def test_learned_system_runs_and_prefetches(self):
        import repro

        wl = repro.workloads.build("stream-simple", npages=600, passes=2)
        result = repro.run(wl, "hopp-learned", 0.5, quiet_fabric())
        assert result.issued_by_tier.get("learned", 0) > 0
        assert result.accuracy > 0.9

    def test_learned_close_to_three_tier_on_simple_streams(self):
        import repro

        wl = repro.workloads.build("stream-simple", npages=600, passes=2)
        tiered = repro.run(wl, "hopp", 0.5, quiet_fabric())
        learned = repro.run(wl, "hopp-learned", 0.5, quiet_fabric())
        assert learned.completion_time_us <= tiered.completion_time_us * 1.1

    def test_unknown_trainer_rejected(self):
        from repro.hopp.system import HoppConfig, HoppDataPlane

        with pytest.raises(ValueError, match="unknown trainer"):
            HoppDataPlane(backend=None, config=HoppConfig(trainer="bogus"))
