"""Run metrics — Section VI-A.

* **Accuracy** — prefetched-page hits / total prefetched pages.
* **Coverage** — prefetch hits / (remote demand requests + prefetch hits).
* **Timeliness** — time from a prefetched page's arrival to its first hit.
* **Normalized performance** — CT_local / CT_system.
* **Speedup vs a baseline** — 1 - CT_system / CT_baseline (Section VI-D).
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Optional

from repro.common.stats import Histogram, safe_ratio
from repro.common.types import FaultBreakdown


#: The sections of :meth:`RunResult.to_dict` a field can be tagged
#: with (an untagged field is written at the top level); ``machine`` is
#: written only by ``to_dict(full=True)``.
CLUSTER, RECOVERY, MACHINE = "cluster", "recovery", "machine"


def _at(section: str, default: object = 0, key: Optional[str] = None):
    """A field written to ``to_dict()[section][key]`` (``key`` defaults
    to the field's name); a callable ``default`` is a default factory."""
    meta = {"section": section, "key": key}
    if callable(default):
        return field(default_factory=default, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunResult:
    """Everything measured in one simulated run of one workload.

    The fields declare the wire format too: :meth:`to_dict` writes each
    one under its name (or its tag's ``key``), in the section its
    :func:`_at` tag names or at the top level if untagged, and
    :meth:`from_dict` reads it back from there, so a new counter is one
    field line.  ``breakdown`` and ``timeliness`` have their own
    encodings, and a field holding None is not written."""

    system: str
    workload: str
    completion_time_us: float = 0.0
    accesses: int = 0
    mc_reads: int = 0
    minor_faults: int = 0
    #: Demand reads that had to go to the remote node (major faults that
    #: missed every local copy).
    remote_demand_reads: int = 0
    #: Prefetch hits split by where the hit landed (Figure 11's split).
    prefetch_hit_swapcache: int = 0
    prefetch_hit_inflight: int = 0
    prefetch_hit_dram: int = 0
    prefetch_issued: int = 0
    prefetch_wasted: int = 0
    issued_by_tier: Dict[str, int] = field(default_factory=dict)
    hits_by_tier: Dict[str, int] = field(default_factory=dict)
    #: Written as ``breakdown_us``, keys without their ``_us`` suffix.
    breakdown: FaultBreakdown = field(default_factory=FaultBreakdown)
    #: Written as the ``timeliness_us`` summary when it has samples, and
    #: as its exact state (``timeliness_hist``) under ``full=True``.
    timeliness: Optional[Histogram] = None
    fabric_reads: int = 0
    fabric_writes: int = 0
    reclaim_pages: int = 0
    peak_resident_pages: int = 0
    #: Fault-injection observability (all exactly 0 without a fault plan).
    #: Injected transfer timeouts observed (demand, prefetch, and write).
    timeouts: int = 0
    #: Retry attempts on synchronous transfers (demand reads, writebacks).
    retries: int = 0
    #: Critical-path latency spent waiting out timeouts and backoff.
    retry_latency_us: float = 0.0
    #: Prefetch reads dropped by injected faults (never retried).
    dropped_prefetches: int = 0
    dropped_by_tier: Dict[str, int] = field(default_factory=dict)
    #: Simulated time the prefetch circuit breaker spent open/half-open.
    degraded_mode_us: float = 0.0
    breaker_opens: int = 0
    #: Prefetch requests suppressed at the breaker gate while degraded.
    prefetch_suppressed: int = 0
    #: Remote-pool topology (1/interleave/1 = the single-node model).
    remote_nodes: int = _at(CLUSTER, 1)
    placement: str = _at(CLUSTER, "interleave")
    replication: int = _at(CLUSTER, 1)
    #: Demand reads answered by a replica after the primary was found
    #: restarting (requires replication > 1).
    demand_failovers: int = _at(CLUSTER)
    #: Reclaim writebacks re-routed to a live node mid-retry.
    writeback_reroutes: int = _at(CLUSTER)
    #: Extra WRITEs spent keeping replicas (0 when replication == 1).
    replica_writes: int = _at(CLUSTER)
    #: Per-node fabric/remote counter snapshots (one dict per node).
    node_stats: list = _at(CLUSTER, list, key="per_node")
    #: Self-healing / recovery observability (all exactly 0 without node
    #: crashes, drains, or ``--check-invariants``).
    #: Permanent node crashes detected by the health monitor.
    node_crashes: int = _at(RECOVERY)
    #: Nodes re-admitted after a crash (``node_rejoin``) or a drain.
    node_rejoins: int = _at(RECOVERY)
    #: Under-replicated pages copied onto a live node by the repair engine.
    pages_repaired: int = _at(RECOVERY)
    #: Pages whose every replica died with its node (unrecoverable).
    pages_lost: int = _at(RECOVERY)
    #: Demand faults on lost pages resolved by mapping a zeroed frame.
    pages_zero_filled: int = _at(RECOVERY)
    #: Swapcache pages re-written back because their remote copy was lost.
    pages_salvaged: int = _at(RECOVERY)
    #: Pages evacuated off DRAINING nodes.
    pages_drained: int = _at(RECOVERY)
    #: Background repair traffic (bulk READs + WRITEs, and their bytes).
    repair_reads: int = _at(RECOVERY)
    repair_writes: int = _at(RECOVERY)
    repair_bytes: int = _at(RECOVERY)
    #: Repair tasks re-queued after their transfer timed out.
    repair_retries: int = _at(RECOVERY)
    #: Directory lookups of slots with no entry (typed error path).
    directory_misses: int = _at(RECOVERY)
    #: Cross-layer sanitizer sweeps that ran (and passed) this run.
    invariant_checks: int = _at(RECOVERY)
    #: Machine counters surfaced only under ``to_dict(full=True)``, so
    #: the short form (the goldens) keeps its keys.
    #: Application compute time overlapped with memory stalls.
    compute_us: float = _at(MACHINE, 0.0)
    #: Memory-controller write accesses and total bytes moved.
    mc_writes: int = _at(MACHINE)
    mc_bytes: int = _at(MACHINE)
    #: Reclaimer detail beyond ``reclaim_pages``.
    reclaim_batches: int = _at(MACHINE)
    reclaim_clean_drops: int = _at(MACHINE)
    reclaim_writebacks: int = _at(MACHINE)
    reclaim_background_us: float = _at(MACHINE, 0.0)
    #: Swapcache traffic (inserts/hits/drops of prefetched pages).
    swapcache_inserts: int = _at(MACHINE)
    swapcache_hits: int = _at(MACHINE)
    swapcache_drops: int = _at(MACHINE)
    #: HoPP-side occurrences with no other RunResult home.
    hopp_hot_pages_unresolved: int = _at(MACHINE)
    prefetch_duplicates: int = _at(MACHINE)
    prefetch_rejected: int = _at(MACHINE)
    fabric_drop_signals: int = _at(MACHINE)
    #: Optional sections, None (and then not written) unless their
    #: subsystem was armed: telemetry export, the tenant-scale scenario
    #: (:mod:`repro.scenario`), the memory tiers (:mod:`repro.memtier`)
    #: and end-to-end integrity (:mod:`repro.integrity`).
    telemetry: Optional[Dict[str, object]] = None
    scenario: Optional[Dict[str, object]] = None
    memtier: Optional[Dict[str, object]] = None
    integrity: Optional[Dict[str, object]] = None
    extra: Dict[str, float] = field(default_factory=dict)

    # -- paper metrics ----------------------------------------------------------

    @property
    def prefetch_hits(self) -> int:
        return (
            self.prefetch_hit_swapcache
            + self.prefetch_hit_inflight
            + self.prefetch_hit_dram
        )

    @property
    def prefetch_delivered(self) -> int:
        """Prefetched pages that actually arrived — issue attempts minus
        the ones injected faults dropped on the wire."""
        return self.prefetch_issued - self.dropped_prefetches

    @property
    def accuracy(self) -> float:
        """Prediction quality over *delivered* prefetches: an injected
        fabric drop is bad luck, not a wrong prediction, so it must not
        corrupt the paper's accuracy metric."""
        return safe_ratio(self.prefetch_hits, self.prefetch_delivered)

    @property
    def coverage(self) -> float:
        return safe_ratio(
            self.prefetch_hits, self.remote_demand_reads + self.prefetch_hits
        )

    @property
    def dram_hit_coverage(self) -> float:
        """Coverage counting only DRAM hits (injected PTEs) — the
        HoPP-only part Figure 21 plots."""
        return safe_ratio(
            self.prefetch_hit_dram, self.remote_demand_reads + self.prefetch_hits
        )

    @property
    def page_faults(self) -> int:
        """Faults the application observed: demand remote reads plus
        swapcache/inflight prefetch hits (those still fault)."""
        return (
            self.remote_demand_reads
            + self.prefetch_hit_swapcache
            + self.prefetch_hit_inflight
        )

    @property
    def remote_accesses(self) -> int:
        """Everything read over the fabric (Figure 17's numerator)."""
        return self.fabric_reads

    def normalized_performance(self, ct_local_us: float) -> float:
        return safe_ratio(ct_local_us, self.completion_time_us)

    def speedup_vs(self, baseline: "RunResult") -> float:
        if baseline.completion_time_us <= 0:
            return 0.0
        return 1.0 - self.completion_time_us / baseline.completion_time_us

    def tier_accuracy(self, tier: str) -> float:
        return safe_ratio(
            self.hits_by_tier.get(tier, 0),
            self.issued_by_tier.get(tier, 0) - self.dropped_by_tier.get(tier, 0),
        )

    def tier_coverage(self, tier: str) -> float:
        return safe_ratio(
            self.hits_by_tier.get(tier, 0),
            self.remote_demand_reads + self.prefetch_hits,
        )

    # -- export -------------------------------------------------------------------

    def to_dict(self, full: bool = False) -> Dict[str, object]:
        """A JSON-serializable snapshot of the run (counters plus the
        derived paper metrics).

        ``full=True`` adds the ``machine`` section and the exact
        timeliness-histogram state, so :meth:`from_dict` can rebuild a
        RunResult that serializes byte-identically: the result cache's
        file format and the process pool's wire format."""
        out: Dict[str, object] = {}
        for name, section, key in _WIRE:
            value = getattr(self, name)
            if value is None or (section == MACHINE and not full):
                continue
            if isinstance(value, (dict, list)):
                value = copy(value)
            (out.setdefault(section, {}) if section else out)[key] = value
        out["accuracy"] = self.accuracy
        out["coverage"] = self.coverage
        out["page_faults"] = self.page_faults
        out["breakdown_us"] = {
            spec.name[:-3]: getattr(self.breakdown, spec.name)
            for spec in fields(FaultBreakdown)
        }
        hist = self.timeliness
        if hist is not None and hist.stat.count:
            out["timeliness_us"] = {
                "mean": hist.stat.mean,
                "p50": hist.quantile(0.5),
                "p90": hist.quantile(0.9),
                "count": hist.stat.count,
            }
        if full and hist is not None:
            out["timeliness_hist"] = {
                "bounds": list(hist.bounds),
                "counts": list(hist.counts),
                "stat": {
                    key: getattr(hist.stat, attr) for key, attr in _STAT
                },
            }
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        """Rebuild a RunResult from :meth:`to_dict(full=True)` output.

        The round trip is exact: ``from_dict(r.to_dict(full=True))``
        serializes byte-identically to ``r``.  A missing key reads back
        as the field's default, and the derived metrics (accuracy,
        coverage, ...) are recomputed, never read."""
        kwargs: Dict[str, object] = {}
        for name, section, key in _WIRE:
            source = data.get(section, {}) if section else data
            if key in source:
                value = source[key]
                if isinstance(value, (dict, list)):
                    value = copy(value)
                kwargs[name] = value
        breakdown = data.get("breakdown_us", {})
        kwargs["breakdown"] = FaultBreakdown(
            **{f"{key}_us": value for key, value in breakdown.items()}
        )
        state = data.get("timeliness_hist")
        if state is not None:
            hist = kwargs["timeliness"] = Histogram(bounds=state["bounds"])
            hist.counts = list(state["counts"])
            for key, attr in _STAT:
                setattr(hist.stat, attr, state["stat"][key])
        return cls(**kwargs)


#: (field name, section, key) for every field written by the generic
#: path of :meth:`RunResult.to_dict`; section None is the top level.
_WIRE = tuple(
    (
        spec.name,
        spec.metadata.get("section"),
        spec.metadata.get("key") or spec.name,
    )
    for spec in fields(RunResult)
    if spec.name not in ("breakdown", "timeliness")
)

#: ``timeliness_hist["stat"]`` keys and the RunningStat attributes
#: they hold.
_STAT = (
    ("count", "count"),
    ("mean", "_mean"),
    ("m2", "_m2"),
    ("min", "min"),
    ("max", "max"),
)

#: Named scalar metrics of one run, given its workload's CT_local: the
#: columns of ``repro sweep --metrics`` and the goals and constraints
#: of ``repro tune --objective``.
METRICS: Dict[str, Callable[[RunResult, float], float]] = {
    "normalized_performance": RunResult.normalized_performance,
    "accuracy": lambda result, _ct: result.accuracy,
    "coverage": lambda result, _ct: result.coverage,
    "completion_time_us": lambda result, _ct: result.completion_time_us,
    "page_faults": lambda result, _ct: float(result.page_faults),
    "remote_accesses": lambda result, _ct: float(result.remote_accesses),
    "prefetch_wasted": lambda result, _ct: float(result.prefetch_wasted),
    "prefetch_issued": lambda result, _ct: float(result.prefetch_issued),
}
