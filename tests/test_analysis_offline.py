"""Tests for the offline prefetch study (replaying HMTT traces)."""

from repro.analysis.offline import replay_study
from repro.common.types import TraceRecord
from repro.hopp.three_tier import TierConfig


def trace_of_pages(pages, blocks=8):
    records = []
    seq = 0
    for page in pages:
        for block in range(blocks):
            records.append(
                TraceRecord(
                    seq=seq & 0xFF,
                    timestamp=0,
                    is_write=False,
                    paddr=(page << 12) | (block << 6),
                )
            )
            seq += 1
    return records


class TestReplayStudy:
    def test_sequential_trace_predicts_well(self):
        study = replay_study(trace_of_pages(range(1000, 1400)), offset=4)
        assert study.hot_pages == 400
        assert study.predictions > 200
        assert study.prediction_accuracy > 0.95
        assert study.decisions_by_tier.get("ssp", 0) > 0

    def test_random_trace_mostly_abstains(self):
        import random

        rng = random.Random(9)
        pages = [rng.randrange(100_000) for _ in range(400)]
        study = replay_study(trace_of_pages(pages), offset=4)
        assert study.predictions < study.hot_pages * 0.2

    def test_ladder_trace_uses_lsp(self):
        pages = []
        for j in range(120):
            for off in (0, 9, 22, 43):
                pages.append(5000 + off + 2 * j)
        study = replay_study(trace_of_pages(pages), offset=1)
        assert study.decisions_by_tier.get("lsp", 0) > 0
        assert study.prediction_accuracy > 0.8

    def test_tier_config_respected(self):
        pages = []
        for j in range(120):
            for off in (0, 9, 22, 43):
                pages.append(5000 + off + 2 * j)
        study = replay_study(
            trace_of_pages(pages), tiers=TierConfig.only("ssp"), offset=1
        )
        assert "lsp" not in study.decisions_by_tier

    def test_writes_not_counted_as_reads(self):
        records = [
            TraceRecord(seq=i, timestamp=0, is_write=True, paddr=i << 12)
            for i in range(100)
        ]
        study = replay_study(records)
        assert study.hot_pages == 0

    def test_empty_trace(self):
        study = replay_study([])
        assert study.accesses == 0
        assert study.prediction_accuracy == 0.0

    def test_lookahead_bounds_usefulness(self):
        # Page 2000 is accessed far in the future: useful only with a
        # large lookahead.
        pages = list(range(1000, 1100)) + list(range(50_000, 50_200)) + [1104]
        near = replay_study(trace_of_pages(pages), offset=4, lookahead=100)
        far = replay_study(trace_of_pages(pages), offset=4, lookahead=10**6)
        assert far.useful_predictions >= near.useful_predictions
