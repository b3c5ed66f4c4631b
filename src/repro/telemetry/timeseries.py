"""Windowed time-series: events bucketed into fixed-width epochs.

The paper's evaluation is time-resolved — remote accesses over time
(Fig 17), prefetch timeliness (§VI-E) — but ``RunResult`` only holds
end-of-run aggregates.  :class:`TimeSeriesEngine` subscribes to the
:class:`~repro.telemetry.events.EventBus` and folds every event into
the epoch ``int(ts_us // epoch_us)``; a timestamp exactly on a
boundary opens the *next* epoch (pure floor division, pinned by the
boundary tests).

Two storage shapes, both sparse until export:

* integer counters per (series, epoch) — demand faults, prefetch
  lifecycle steps, remote reads/writes, retries, repairs;
* streaming :class:`~repro.common.stats.Histogram` per (series, epoch)
  — fetch latency (p50/p99) and prefetch timeliness.

The reconciliation contract, enforced by tests: for every counter
series the sum over epochs equals the matching aggregate ``RunResult``
counter exactly — telemetry is a re-bucketing of the same increments,
never a second bookkeeping that can drift.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.stats import Histogram, safe_ratio

from .events import (
    EV_CACHE_INVALIDATE,
    EV_CORRUPT_REPAIR,
    EV_CORRUPTION,
    EV_DEMAND_FAULT,
    EV_FABRIC_READ,
    EV_FABRIC_WRITE,
    EV_FETCH_LATENCY,
    EV_MEMTIER_DEMOTE,
    EV_MEMTIER_FAR_READ,
    EV_MEMTIER_POOL_READ,
    EV_MEMTIER_PROMOTE,
    EV_NODE_STATE,
    EV_PREFETCH_DROP,
    EV_PREFETCH_GATE,
    EV_PREFETCH_HIT,
    EV_PREFETCH_ISSUE,
    EV_POISON,
    EV_PREFETCH_LAND,
    EV_PREFETCH_UNUSED,
    EV_REPAIR,
    EV_RETRY,
    EV_SCRUB,
    EV_TIMELINESS,
)

#: kind -> (counter series, count-field or None for 1), in export order.
#: The series map 1:1 onto RunResult aggregates (see the reconciliation
#: tests) except node_transitions / repairs / cache_invalidations, which
#: count finer-grained occurrences.
_COUNT_DISPATCH = {
    EV_DEMAND_FAULT: ("demand_faults", None),
    EV_PREFETCH_ISSUE: ("prefetch_issued", "n"),
    EV_PREFETCH_DROP: ("prefetch_dropped", "n"),
    EV_PREFETCH_LAND: ("prefetch_landed", None),
    EV_PREFETCH_HIT: ("prefetch_hits", None),
    EV_PREFETCH_UNUSED: ("prefetch_wasted", None),
    EV_PREFETCH_GATE: ("prefetch_suppressed", None),
    EV_FABRIC_READ: ("remote_reads", "n"),
    EV_FABRIC_WRITE: ("remote_writes", None),
    EV_RETRY: ("retries", None),
    EV_NODE_STATE: ("node_transitions", None),
    EV_REPAIR: ("repairs", None),
    EV_CACHE_INVALIDATE: ("cache_invalidations", None),
    # Memory-tier series (repro.memtier) — "memtier_" marks *memory*
    # tiers (pool/far), never the SSP/LSP/RSP prefetch tiers.
    EV_MEMTIER_POOL_READ: ("memtier_pool_reads", None),
    EV_MEMTIER_FAR_READ: ("memtier_far_reads", None),
    EV_MEMTIER_PROMOTE: ("memtier_promotions", None),
    EV_MEMTIER_DEMOTE: ("memtier_demotions", None),
    # Integrity series (repro.integrity): corruption detections and
    # repairs count *copies*, poisonings count slots, scrubs count
    # audit reads.
    EV_CORRUPTION: ("corruptions_detected", None),
    EV_CORRUPT_REPAIR: ("corruptions_repaired", "n"),
    EV_POISON: ("pages_poisoned", None),
    EV_SCRUB: ("scrub_reads", None),
}

#: Counter series, in export order.
COUNT_SERIES = tuple(series for series, _ in _COUNT_DISPATCH.values())

#: kind -> (histogram series, value field, exported quantiles), in
#: export order.
_SAMPLE_DISPATCH = {
    EV_FETCH_LATENCY: ("fetch_latency_us", "latency_us", (0.5, 0.99)),
    EV_TIMELINESS: ("timeliness_us", "t_us", (0.5, 0.9)),
}


class TimeSeriesEngine:
    """Aggregates bus events into fixed-width simulated-time epochs."""

    def __init__(self, epoch_us: float = 1000.0) -> None:
        if epoch_us <= 0:
            raise ValueError("epoch_us must be positive")
        self.epoch_us = float(epoch_us)
        # series name -> {epoch index -> count}
        self._counts: Dict[str, Dict[int, int]] = {
            name: {} for name in COUNT_SERIES
        }
        # series name -> {epoch index -> Histogram}
        self._hists: Dict[str, Dict[int, Histogram]] = {
            name: {} for name, _, _ in _SAMPLE_DISPATCH.values()
        }

    # -- ingestion ----------------------------------------------------------

    def epoch_of(self, ts_us: float) -> int:
        """Floor bucketing; a boundary timestamp opens the next epoch.
        Events before t=0 cannot happen in the simulator, but clamp so a
        stray negative float rounds into epoch 0 rather than epoch -1."""
        epoch = int(ts_us // self.epoch_us)
        return epoch if epoch > 0 else 0

    def bump(self, series: str, ts_us: float, n: int = 1) -> None:
        bucket = self._counts[series]
        epoch = self.epoch_of(ts_us)
        bucket[epoch] = bucket.get(epoch, 0) + n

    def sample(self, series: str, ts_us: float, value: float) -> None:
        bucket = self._hists[series]
        epoch = self.epoch_of(ts_us)
        hist = bucket.get(epoch)
        if hist is None:
            hist = bucket[epoch] = Histogram()
        hist.add(value)

    def on_event(self, kind: str, ts_us: float, fields: Dict[str, object]) -> None:
        """EventBus subscriber: one dict probe per event, no allocation
        on the counter path."""
        hit = _COUNT_DISPATCH.get(kind)
        if hit is not None:
            series, count_field = hit
            n = int(fields.get(count_field, 1)) if count_field else 1
            self.bump(series, ts_us, n)
            return
        hit = _SAMPLE_DISPATCH.get(kind)
        if hit is not None:
            series, value_field, _ = hit
            self.sample(series, ts_us, float(fields[value_field]))

    # -- export -------------------------------------------------------------

    def n_epochs(self, end_us: float) -> int:
        """Dense epoch count covering both the run's end time and every
        observed event (arrivals can land past ``end_us`` only if a
        producer mis-stamps; include them rather than drop counts)."""
        last = self.epoch_of(end_us) if end_us > 0 else 0
        for bucket in self._counts.values():
            if bucket:
                last = max(last, max(bucket))
        for hbucket in self._hists.values():
            if hbucket:
                last = max(last, max(hbucket))
        return last + 1

    def _dense(self, bucket: Dict[int, int], n: int) -> List[int]:
        return [bucket.get(epoch, 0) for epoch in range(n)]

    def export(self, end_us: float) -> Dict[str, object]:
        """Plain-JSON snapshot: dense per-epoch series plus derived
        per-epoch coverage/accuracy and latency/timeliness percentiles.

        Percentile lists hold ``None`` for epochs with no samples so a
        consumer can tell "no traffic" from "zero latency"."""
        n = self.n_epochs(end_us)
        series = {
            name: self._dense(self._counts[name], n) for name in COUNT_SERIES
        }

        coverage: List[float] = []
        accuracy: List[float] = []
        for epoch in range(n):
            hits = series["prefetch_hits"][epoch]
            demand = series["demand_faults"][epoch]
            delivered = (
                series["prefetch_issued"][epoch]
                - series["prefetch_dropped"][epoch]
            )
            coverage.append(safe_ratio(hits, demand + hits))
            accuracy.append(safe_ratio(hits, delivered))

        out: Dict[str, object] = {
            "epoch_us": self.epoch_us,
            "epochs": n,
            "series": series,
            "derived": {"coverage": coverage, "accuracy": accuracy},
        }
        for name, _, quantiles in _SAMPLE_DISPATCH.values():
            bucket = self._hists[name]
            block: Dict[str, List[Optional[float]]] = {
                f"p{int(q * 100)}": [] for q in quantiles
            }
            block["count"] = []
            block["mean"] = []
            for epoch in range(n):
                hist = bucket.get(epoch)
                count = hist.stat.count if hist is not None else 0
                block["count"].append(count)
                block["mean"].append(hist.stat.mean if count else None)
                for q in quantiles:
                    block[f"p{int(q * 100)}"].append(
                        hist.quantile(q) if count else None
                    )
            out[name] = block
        return out
