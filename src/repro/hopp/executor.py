"""Prefetch Execution Engine — Section III-F.

Accepts the policy engine's finalized target VPNs, de-duplicates them,
reads the pages from remote memory over RDMA, and *injects* the PTE the
moment a page arrives (early PTE injection) so the future access is a
plain DRAM hit instead of a 2.3 us prefetch-hit fault.

Because the MC trace tells HoPP which prefetched pages were actually
accessed, the engine can account true accuracy and per-stream timeliness
(T = first hit - arrival) even though injected pages never fault — the
flexibility Depth-N lacks (Section II-C).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Protocol, Tuple

from repro.common.stats import Histogram
from repro.hopp.policy import CircuitBreaker, PolicyEngine
from repro.telemetry.events import EV_PREFETCH_GATE, EV_TIMELINESS


class PrefetchBackend(Protocol):
    """What the execution engine needs from the machine: issue an RDMA
    read of (pid, vpn), or of a 2 MB batch, with optional PTE injection
    on arrival.  Returns None when nothing was remote (already local or
    in flight)."""

    def prefetch_page(
        self, pid: int, vpn: int, now_us: float, inject_pte: bool, tier: str
    ) -> Optional[float]:
        ...

    def prefetch_batch(
        self, pid: int, start_vpn: int, npages: int, now_us: float,
        inject_pte: bool, tier: str,
    ) -> Optional[float]:
        ...


class ExecutionEngine:
    def __init__(
        self,
        backend: PrefetchBackend,
        policy: PolicyEngine,
        inject_pte: bool = True,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.backend = backend
        self.policy = policy
        self.inject_pte = inject_pte
        #: Circuit breaker over the issue path (armed only under fault
        #: injection); outcomes are fed by the machine's drop/timeout
        #: callbacks through :meth:`on_fabric_drop`.
        self.breaker = breaker
        #: Outstanding + resident prefetched pages awaiting first hit:
        #: (pid, vpn) -> (tier, stream_id, issued_us, arrival_us).
        self._records: Dict[Tuple[int, int], Tuple[str, int, float, float]] = {}
        self.issued = 0
        self.duplicates = 0
        self.rejected = 0
        self.hits = 0
        self.wasted = 0
        #: Requests dropped at the gate while the breaker was open.
        self.suppressed = 0
        #: Fabric-level drops (timeouts) observed on any prefetch path.
        self.fabric_dropped = 0
        self.timeliness = Histogram()
        self._drop_signal = False
        #: Telemetry event bus; None keeps the engine probe-free.  Wired
        #: by the data plane when the backend machine has telemetry.
        self.bus = None

    # -- issue path ------------------------------------------------------------------

    def submit(
        self,
        pid: int,
        vpns: Iterable[int],
        tier: str,
        stream_id: int,
        now_us: float,
    ) -> int:
        """Issue one stream step's target VPNs, de-duplicated against
        outstanding records; returns how many went out."""
        records = self._records
        breaker = self.breaker
        sent = 0
        for vpn in vpns:
            key = (pid, vpn)
            if key in records:
                self.duplicates += 1
                continue
            if breaker is not None and not breaker.allow(now_us):
                self._refuse(now_us)
                continue
            self._drop_signal = False
            arrival = self.backend.prefetch_page(
                pid, vpn, now_us, self.inject_pte, tier
            )
            if arrival is None:
                # Either nothing to fetch (already local / in flight) or
                # a fabric drop; the machine reports drops synchronously
                # through on_fabric_drop, which sets the signal flag.
                if not self._drop_signal:
                    self.rejected += 1
                    if breaker is not None:
                        # No transfer happened, so the probe (if any)
                        # observed nothing — give it back.
                        breaker.refund_probe()
                continue
            if breaker is not None:
                breaker.record_success(now_us, arrival - now_us)
            records[key] = (tier, stream_id, now_us, arrival)
            self.issued += 1
            sent += 1
        return sent

    def prefetch_batch(
        self,
        pid: int,
        start_vpn: int,
        npages: int,
        now_us: float,
        inject_pte: bool,
        tier: str,
    ) -> Optional[float]:
        """One 2 MB batch request of the :class:`HugePageBatcher`
        through the breaker: a refused request counts as suppressed, a
        probe that found nothing to fetch is refunded, and an issued
        batch is one successful outcome.  Its latency is not judged: a
        batch's last page lands link-rate behind its first by design."""
        breaker = self.breaker
        if breaker is not None and not breaker.allow(now_us):
            self._refuse(now_us)
            return None
        self._drop_signal = False
        arrival = self.backend.prefetch_batch(
            pid, start_vpn, npages, now_us, inject_pte, tier
        )
        if breaker is not None:
            if arrival is not None:
                breaker.record_success(now_us)
            elif not self._drop_signal:
                breaker.refund_probe()
        return arrival

    def _refuse(self, now_us: float) -> None:
        """Count a request the breaker refused as suppressed."""
        self.suppressed += 1
        if self.bus is not None:
            self.bus.emit(EV_PREFETCH_GATE, now_us)

    # -- machine callbacks ----------------------------------------------------------------

    def on_first_hit(self, pid: int, vpn: int, now_us: float) -> None:
        """The application touched a prefetched page for the first time.
        Its record closes here, so a page counts at most one hit."""
        record = self._records.pop((pid, vpn), None)
        if record is None:
            return
        tier, stream_id, issued_us, arrival_us = record
        self.hits += 1
        t_us = max(now_us - arrival_us, 0.0)
        self.timeliness.add(t_us)
        if self.bus is not None:
            self.bus.emit(EV_TIMELINESS, now_us, t_us=t_us, tier=tier)
        self.policy.report_timeliness(stream_id, t_us, issued_us, now_us)

    def on_evicted_unused(self, pid: int, vpn: int) -> None:
        """A prefetched page left local memory without ever being hit —
        an inaccurate prefetch that wasted bandwidth and DRAM."""
        if self._records.pop((pid, vpn), None) is not None:
            self.wasted += 1

    def on_fabric_drop(self, now_us: float) -> None:
        """The machine observed an injected fabric failure (a dropped
        prefetch, or a demand-read timeout): feed the breaker so issue
        throttles while the fabric is hostile."""
        self._drop_signal = True
        self.fabric_dropped += 1
        if self.breaker is not None:
            self.breaker.record_failure(now_us)

    # -- metrics ---------------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return len(self._records)

    @property
    def accuracy(self) -> float:
        """Hits / issued.  Pages still resident and unhit at read time
        count against accuracy, matching the paper's end-of-run metric."""
        return self.hits / self.issued if self.issued else 0.0

    def is_prefetched_unhit(self, pid: int, vpn: int) -> bool:
        return (pid, vpn) in self._records
