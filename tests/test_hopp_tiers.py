"""Tests for SSP, LSP (Algorithm 1), RSP (Algorithm 2) and the adaptive
three-tier cascade — including the paper's Figure 2/3 worked examples."""

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import StreamObservation, target_vpn
from repro.hopp import lsp, rsp, ssp
from repro.hopp.ssp import dominant_stride
from repro.hopp.rsp import ripple_score
from repro.hopp.stt import StreamTrainingTable
from repro.hopp.three_tier import ThreeTierTrainer, TierConfig
from tests.conftest import make_observation


def ladder_vpns(base=1000, offsets=(0, 9, 22, 43), rise=2, steps=4):
    """A Figure-2-style ladder VPN sequence."""
    vpns = []
    for j in range(steps):
        for off in offsets:
            vpns.append(base + off + j * rise)
    return vpns


class TestSSP:
    def test_dominant_stride_detection(self):
        assert dominant_stride([2] * 8 + [5] * 3, min_count=8) == 2
        assert dominant_stride([2] * 7 + [5] * 4, min_count=8) is None

    def test_zero_stride_never_dominates(self):
        assert dominant_stride([0] * 20, min_count=8) is None

    def test_negative_stride(self):
        obs = make_observation(list(range(116, 100, -1)))
        decision = ssp.train(obs)
        assert decision == ("ssp", 101, -1, 0)
        assert target_vpn(decision, 1) == 100

    def test_simple_stream_decision(self):
        obs = make_observation([100 + 2 * i for i in range(16)])
        decision = ssp.train(obs)
        # (tier, base_vpn, per_offset_stride, fixed_delta)
        assert decision == ("ssp", 130, 2, 0)
        # VPN_history[L-1] + i*stride (Section III-D 2).
        assert target_vpn(decision, 3) == 136

    def test_interference_tolerated_up_to_half(self):
        # 10 of 15 strides are 1: dominant.
        vpns = [100]
        for i in range(15):
            vpns.append(vpns[-1] + (1 if i % 3 != 2 else 7))
        obs = make_observation(vpns)
        decision = ssp.train(obs)
        assert decision is not None and decision[2] == 1

    def test_no_dominant_returns_none(self):
        obs = make_observation(ladder_vpns())
        assert ssp.train(obs) is None

    def test_empty_strides(self):
        assert dominant_stride([], min_count=1) is None


class TestLSPFigure2Example:
    """Reproduce the worked example of Section III-D(3): receiving a11,
    pattern candidates end at a7 and a3, stride_target = a8-a7,
    pattern_stride = a11-a7."""

    def setup_method(self):
        # A ladder with 3 repetitions of a 4-access tread + rise.
        # Use non-uniform offsets so SSP cannot claim it.
        self.vpns = ladder_vpns(base=1000, offsets=(0, 9, 22, 43), rise=2, steps=3)
        # a1..a12; take the first 11 accesses as the history (a11 newest).
        self.history = self.vpns[:11]

    def test_decision_matches_example(self):
        obs = make_observation(self.history)
        decision = lsp.train(obs)
        assert decision is not None
        a = self.history
        # Candidates end at indices 6 (a7) and 2 (a3); their next strides
        # are a8-a7 and a4-a3 (equal by construction).
        stride_target = a[7] - a[6]
        pattern_stride = a[10] - a[6]  # a11 - a7
        assert decision == ("lsp", a[10], pattern_stride, stride_target)
        # Line 16: VPN_A + stride_target + i*pattern_stride.
        assert target_vpn(decision, 1) == a[10] + stride_target + pattern_stride

    def test_prediction_is_correct_future_access(self):
        obs = make_observation(self.history)
        decision = lsp.train(obs)
        predicted = target_vpn(decision, 0)
        # offset 0 -> the immediate next access in the ladder.
        assert predicted == self.vpns[11]


class TestLSP:
    def test_no_repetition_returns_none(self):
        obs = make_observation([100, 101, 103, 106, 110, 115, 121, 128])
        assert lsp.train(obs) is None

    def test_short_history_returns_none(self):
        obs = make_observation([1, 2, 3])
        assert lsp.train(obs) is None

    def test_majority_vote_on_next_stride(self):
        # Pattern (5, 1) repeats three times; next strides differ: the
        # majority wins.
        vpns = [0, 5, 6, 11, 12, 17, 18, 19, 24, 25]
        # strides: 5,1,5,1,5,1,1,5,1 -> occurrences of (5,1) at ends 2,4,6,9
        obs = make_observation(vpns)
        decision = lsp.train(obs)
        assert decision is not None
        # next strides after candidate occurrences (newest-first scan,
        # excluding target): ends 6 -> stride 1; 4 -> 5; 2 -> 5.
        assert decision[3] == 5

    def test_degenerate_zero_pattern_stride_rejected(self):
        # Identical VPN pattern positions would give pattern_stride 0.
        vpns = [10, 12, 14, 12, 14, 12, 14, 12, 14]
        obs = make_observation(vpns)
        decision = lsp.train(obs)
        if decision is not None:
            assert decision[2] != 0

    def test_majority_matches_counter_with_ties(self):
        rng = random.Random(8)
        for _ in range(3000):
            values = [rng.choice([-4, 1, 2, 3, 9])
                      for _ in range(rng.randrange(1, 9))]
            assert lsp._majority(values) == \
                Counter(values).most_common(1)[0][0], values


class TestRSPFigure3Example:
    def test_pure_stride_one_is_ripple(self):
        obs = make_observation(list(range(100, 116)))
        decision = rsp.train(obs)
        assert decision == ("rsp", 115, 1, 0)
        assert target_vpn(decision, 2) == 117

    def test_out_of_order_ripple_detected(self):
        # Net stride 1 with local swaps: 1,3,2,4,6,5,7,9,8,10,12,11,...
        vpns = []
        base = 100
        for group in range(6):
            start = base + group * 3
            vpns.extend([start, start + 2, start + 1])
        obs = make_observation(vpns[:16])
        decision = rsp.train(obs)
        assert decision is not None
        assert decision[2] == 1

    def test_figure3_hop_and_return(self):
        """An access hops out of the stream and returns: the cumulative
        stride from the newest access keeps landing within max_stride."""
        vpns = [100, 101, 102, 115, 103, 104, 105, 118, 106, 107,
                108, 109, 121, 110, 111, 112]
        obs = make_observation(vpns)
        decision = rsp.train(obs)
        assert decision is not None

    def test_large_strides_rejected(self):
        obs = make_observation([100 + 10 * i for i in range(16)])
        assert rsp.train(obs) is None

    def test_ripple_score_counts_returns(self):
        # strides: newest stride small counts 1; walk back accumulates.
        assert ripple_score([1, 1, 1]) == 3
        assert ripple_score([10, 10, 10]) == 0
        assert ripple_score([]) == 0

    def test_max_stride_tolerance(self):
        # stride 2 tolerated, stride 3 is not (max_stride=2).
        assert ripple_score([2], max_stride=2) == 1
        assert ripple_score([3], max_stride=2) == 0


class TestThreeTier:
    def test_priority_ssp_first(self):
        trainer = ThreeTierTrainer()
        obs = make_observation(list(range(100, 116)))
        decision = trainer.train(obs)
        # Stride-1 is both a simple stream and a ripple: SSP wins.
        assert decision[0] == "ssp"
        assert trainer.decisions_by_tier["ssp"] == 1

    def test_lsp_when_ssp_fails(self):
        trainer = ThreeTierTrainer()
        obs = make_observation(ladder_vpns(steps=4)[:16])
        decision = trainer.train(obs)
        assert decision[0] == "lsp"

    def test_rsp_as_last_resort(self):
        trainer = ThreeTierTrainer(TierConfig(enable_ssp=False, enable_lsp=False))
        obs = make_observation(list(range(100, 116)))
        decision = trainer.train(obs)
        assert decision[0] == "rsp"

    def test_no_decision_counted(self):
        trainer = ThreeTierTrainer()
        import random
        rng = random.Random(3)
        vpns = [100]
        for _ in range(15):
            vpns.append(vpns[-1] + rng.choice([7, -13, 29, 41]))
        obs = make_observation(vpns)
        if trainer.train(obs) is None:
            assert trainer.no_decision == 1

    def test_tier_config_only(self):
        config = TierConfig.only("ssp", "rsp")
        assert config.enable_ssp and config.enable_rsp and not config.enable_lsp
        with pytest.raises(ValueError):
            TierConfig.only("bogus")

    def test_disabled_tiers_never_fire(self):
        trainer = ThreeTierTrainer(TierConfig.only("ssp"))
        obs = make_observation(ladder_vpns(steps=4)[:16])
        assert trainer.train(obs) is None

    @given(st.lists(st.integers(-50, 50), min_size=15, max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_cascade_never_crashes_and_tiers_tagged(self, strides):
        vpns = [10_000]
        for stride in strides:
            vpns.append(vpns[-1] + stride)
        obs = make_observation(vpns)
        trainer = ThreeTierTrainer()
        decision = trainer.train(obs)
        if decision is not None:
            assert decision[0] in ("ssp", "lsp", "rsp")


#: Every ``TierConfig.only`` combination, the empty one included.
TIER_SETS = [
    names for size in range(4) for names in combinations(("ssp", "lsp", "rsp"), size)
]

#: Stride alphabets: simple, tied, ladder- and ripple-shaped.
STRIDE_ALPHABETS = (
    [1], [1, 2], [1, -1], [2, -2, 0], [1, 1, 1, 20], [1, -1, 2, 1, -2],
    [3, 3, -7, 30], [0, 1],
)


def _cascade(observation, tiers):
    """The module-level cascade ``ssp.train`` -> ``lsp.train`` ->
    ``rsp.train`` over the enabled tiers, on a copy without the STT's
    histogram so SSP recounts the window."""
    plain = StreamObservation(
        observation.pid, observation.vpn, observation.stride,
        observation.vpn_history, observation.stride_history,
        observation.stream_id, observation.timestamp_us,
    )
    for name, tier in (("ssp", ssp), ("lsp", lsp), ("rsp", rsp)):
        if name in tiers:
            decision = tier.train(plain)
            if decision is not None:
                return decision
    return None


class TestTrainerAgainstCascade:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_histories_every_tier_set(self, seed):
        rng = random.Random(seed)
        history_len = rng.choice([4, 5, 7, 16])
        stt = StreamTrainingTable(entries=8, history_len=history_len,
                                  stream_delta=64)
        trainers = {tiers: ThreeTierTrainer(TierConfig.only(*tiers))
                    for tiers in TIER_SETS}
        expected = {tiers: ({"ssp": 0, "lsp": 0, "rsp": 0}, [0])
                    for tiers in TIER_SETS}
        heads = {pid: 10_000 * pid for pid in (1, 2, 3)}
        ties = 0
        for _ in range(1500):
            pid = rng.choice((1, 2, 3))
            alphabet = STRIDE_ALPHABETS[(pid + seed) % len(STRIDE_ALPHABETS)]
            if rng.random() < 0.1:
                alphabet = STRIDE_ALPHABETS[rng.randrange(len(STRIDE_ALPHABETS))]
            heads[pid] += rng.choice(alphabet)
            observation = stt.feed(pid, heads[pid])
            if observation is None:
                continue
            counts = observation.stride_counts
            if counts:
                top = max(counts.values())
                if (top >= len(observation.vpns) // 2
                        and list(counts.values()).count(top) > 1):
                    ties += 1
            for tiers, trainer in trainers.items():
                want = _cascade(observation, tiers)
                assert trainer.train(observation) == want, (tiers, observation)
                by_tier, none = expected[tiers]
                if want is None:
                    none[0] += 1
                else:
                    by_tier[want[0]] += 1
        for tiers, trainer in trainers.items():
            by_tier, none = expected[tiers]
            assert trainer.decisions_by_tier == by_tier
            assert trainer.no_decision == none[0]
        if history_len % 2:
            # Odd windows let two strides tie at the dominance threshold.
            assert ties > 0
