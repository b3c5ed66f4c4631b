"""The assembled HoPP data plane — Figure 4.

Wires the pipeline end to end:

  MC access -> HPD (hot page?) -> RPT cache (PPN -> PID+VPN)
            -> STT (stream match) -> three-tier trainer -> policy engine
            -> execution engine -> RDMA read + early PTE injection.

The data plane is *asynchronous* with respect to the application's fault
path: it consumes the MC trace and issues prefetches on its own, which is
what lets HoPP hide swap latency instead of amortizing it (Section III).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hopp.executor import ExecutionEngine, PrefetchBackend
from repro.hopp.hpd import HotPageDetector
from repro.hopp.policy import (
    BreakerConfig,
    CircuitBreaker,
    PolicyConfig,
    PolicyEngine,
)
from repro.hopp.rpt import ReversePageTable, RptCache
from repro.hopp.stt import StreamTrainingTable
from repro.hopp.three_tier import ThreeTierTrainer, TierConfig


@dataclass
class HoppConfig:
    """Every knob of the HoPP stack with the paper's defaults."""

    hpd_threshold: int = 8
    hpd_sets: int = 4
    hpd_ways: int = 16
    #: Memory channels feeding separate HPD instances (Section III-B's
    #: multi-channel discussion); with interleaving the per-channel
    #: threshold drops to N / channels.
    mc_channels: int = 1
    mc_interleaved: bool = True
    rpt_cache_kb: int = 64
    rpt_cache_ways: int = 16
    stt_entries: int = 64
    stt_history_len: int = 16
    stt_stream_delta: int = 64
    tiers: TierConfig = field(default_factory=TierConfig)
    #: Training framework: "three-tier" (the paper's adaptive cascade)
    #: or "learned" (the Section III-D ML-style alternative).
    trainer: str = "three-tier"
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    #: Early PTE injection (Section III-F); off -> prefetches land in the
    #: swapcache like Fastswap's.
    inject_pte: bool = True
    #: Prefetch circuit breaker (degraded-mode throttling).  Armed only
    #: when the machine runs with a fault plan, so clean runs are
    #: bit-identical with or without it.
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: Section IV huge-page extension: long unit-stride streams graduate
    #: to one 512-page batch request per 2 MB region.
    hugepage_enabled: bool = False
    hugepage_stream_len: int = 128
    hugepage_batch_pages: int = 512
    #: Section IV eviction extension: hint stream-behind pages to the
    #: kernel's reclaim as preferred victims (scan-resistant LRU).
    eviction_advisor_enabled: bool = False
    eviction_protect_pages: int = 64


class HoppDataPlane:
    """One instance per compute node; tap it onto the memory controller."""

    def __init__(self, backend: PrefetchBackend, config: Optional[HoppConfig] = None) -> None:
        self.config = config or HoppConfig()
        cfg = self.config
        if cfg.mc_channels > 1:
            from repro.hopp.hpd import MultiChannelHpd

            self.hpd = MultiChannelHpd(
                cfg.mc_channels,
                cfg.hpd_threshold,
                cfg.mc_interleaved,
                cfg.hpd_sets,
                cfg.hpd_ways,
            )
        else:
            self.hpd = HotPageDetector(cfg.hpd_threshold, cfg.hpd_sets, cfg.hpd_ways)
        self.rpt = ReversePageTable()
        #: Every page table of the machine writes through this cache
        #: (``PageTable.rpt``).
        self.rpt_cache = RptCache(self.rpt, cfg.rpt_cache_kb, cfg.rpt_cache_ways)
        self.stt = StreamTrainingTable(
            cfg.stt_entries, cfg.stt_history_len, cfg.stt_stream_delta
        )
        if cfg.trainer == "three-tier":
            self.trainer = ThreeTierTrainer(cfg.tiers)
        elif cfg.trainer == "learned":
            from repro.hopp.learned import LearnedTrainer

            self.trainer = LearnedTrainer()
        else:
            raise ValueError(
                f"unknown trainer {cfg.trainer!r}; use 'three-tier' or 'learned'"
            )
        self.policy = PolicyEngine(cfg.policy)
        # The machine's remote side (a RemoteBackend), if it has one.
        remote = getattr(backend, "backend", None)
        # The breaker only arms when the remote side actually injects
        # faults; a clean run never records an outcome, so the extra
        # branch cannot perturb baseline numbers.
        breaker = None
        if cfg.breaker.enabled and remote is not None and remote.faults is not None:
            breaker = CircuitBreaker(cfg.breaker)
        self.executor = ExecutionEngine(
            backend,
            policy=self.policy,
            inject_pte=cfg.inject_pte,
            breaker=breaker,
        )
        # Like the breaker arming above, telemetry wiring keys off the
        # backend machine's state: when it carries a Telemetry instance,
        # the engine emits gate/timeliness events onto the same bus.
        telemetry = getattr(backend, "telemetry", None)
        if telemetry is not None:
            self.executor.bus = telemetry.bus
        self.batcher = None
        if cfg.hugepage_enabled:
            from repro.hopp.hugepage import HugePageBatcher

            # Batches go through the executor, so its breaker gates
            # them like single-page requests.
            self.batcher = HugePageBatcher(
                self.executor,
                stream_len=cfg.hugepage_stream_len,
                batch_pages=cfg.hugepage_batch_pages,
            )
        self.advisor = None
        if cfg.eviction_advisor_enabled:
            from repro.hopp.eviction import StreamAwareEvictionAdvisor

            self.advisor = StreamAwareEvictionAdvisor(
                protect_pages=cfg.eviction_protect_pages
            )
        self.hot_pages_unresolved = 0
        # Memory-tier bridge: on a tiered machine, HPD hotness doubles
        # as the promotion signal (see repro.memtier) — None otherwise.
        self._memtier = remote.memtier if remote is not None else None

    # -- the MC tap (step 1-4 of Figure 4) -------------------------------------------

    def on_mc_access(self, timestamp_us: float, paddr: int, is_write: bool) -> None:
        hot_ppn = self.hpd.process(paddr, is_write)
        if hot_ppn is None:
            return
        self.on_hot_page(timestamp_us, hot_ppn)

    def on_hot_page(self, timestamp_us: float, hot_ppn: int) -> None:
        """Resolve one extracted hot page through RPT → STT → trainer →
        policy → executor (steps 2-4 of Figure 4).

        Split out of :meth:`on_mc_access` so the chunked batch kernel,
        which runs HPD itself over whole same-page runs, can enter the
        pipeline directly at an extraction barrier.
        """
        entry = self.rpt_cache.lookup(hot_ppn)
        if entry is None:
            # Frame not mapped by any process (kernel/DMA memory).
            self.hot_pages_unresolved += 1
            return
        pid, vpn, _, _ = entry
        if self._memtier is not None:
            # Hardware said this page is hot: its next writeback goes
            # poolward (or queues a promotion if it lands far).
            self._memtier.note_hot(pid, vpn)
        observation = self.stt.feed(pid, vpn, timestamp_us)
        if observation is None:
            return
        decision = self.trainer.train(observation)
        if decision is None:
            return
        tier, _, stride, _ = decision
        if self.advisor is not None:
            self.advisor.on_stream_step(pid, vpn, stride)
        stream_id = observation.stream_id
        if self.batcher is not None and tier == "ssp":
            if self.batcher.observe(stream_id, pid, vpn, stride, timestamp_us):
                # The stream rides 2 MB batches now; skip the
                # single-page request for this step.
                return
        targets = self.policy.finalize(decision, stream_id)
        if targets:
            self.executor.submit(pid, targets, tier, stream_id, timestamp_us)
