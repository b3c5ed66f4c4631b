"""Offline prefetch studies over captured traces.

The paper's methodology ran HoPP's software over HMTT traces captured
offline before the live prototype existed (Section II-B's accuracy /
coverage study, the Table II sweeps).  This module reproduces that
workflow: replay a physical READ trace through HPD → STT → trainer and
report what the prefetcher *would have* requested — no machine, no
timing, just prediction quality against the trace's own future.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.common.types import TraceRecord, target_vpn
from repro.hopp.hpd import HotPageDetector
from repro.hopp.stt import StreamTrainingTable
from repro.hopp.three_tier import ThreeTierTrainer, TierConfig


@dataclass
class OfflineStudy:
    """Prediction-quality report for one trace replay."""

    accesses: int = 0
    hot_pages: int = 0
    observations: int = 0
    decisions_by_tier: Dict[str, int] = field(default_factory=dict)
    no_decision: int = 0
    #: Predictions whose target page is accessed within the lookahead
    #: horizon (the offline notion of a useful prefetch).
    predictions: int = 0
    useful_predictions: int = 0

    @property
    def prediction_accuracy(self) -> float:
        return (
            self.useful_predictions / self.predictions if self.predictions else 0.0
        )

    @property
    def hot_page_ratio(self) -> float:
        return self.hot_pages / self.accesses if self.accesses else 0.0


def replay_study(
    records: Iterable[TraceRecord],
    hpd_threshold: int = 8,
    tiers: Optional[TierConfig] = None,
    offset: int = 4,
    lookahead: int = 4096,
) -> OfflineStudy:
    """Replay a trace through the HoPP software pipeline.

    The trace is physical; PPN == VPN (identity mapping) is assumed, as
    in the paper's offline studies where the trace was captured from a
    quiescent single-application run.  A prediction at position *t* for
    page *p* counts as useful when *p* is accessed within ``lookahead``
    records after *t*.
    """
    records = list(records)
    study = OfflineStudy()
    hpd = HotPageDetector(threshold=hpd_threshold)
    stt = StreamTrainingTable()
    trainer = ThreeTierTrainer(tiers or TierConfig())

    # Index of future accesses per page for the usefulness check.
    future: Dict[int, list] = {}
    for position, record in enumerate(records):
        future.setdefault(record.ppn, []).append(position)

    import bisect

    for position, record in enumerate(records):
        study.accesses += 1
        hot = hpd.process(record.paddr, record.is_write)
        if hot is None:
            continue
        study.hot_pages += 1
        observation = stt.feed(0, hot)
        if observation is None:
            continue
        study.observations += 1
        decision = trainer.train(observation)
        if decision is None:
            study.no_decision += 1
            continue
        tier = decision[0]
        study.decisions_by_tier[tier] = study.decisions_by_tier.get(tier, 0) + 1
        target = target_vpn(decision, offset)
        study.predictions += 1
        positions = future.get(target)
        if positions:
            index = bisect.bisect_right(positions, position)
            if index < len(positions) and positions[index] - position <= lookahead:
                study.useful_predictions += 1
    return study
