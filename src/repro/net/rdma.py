"""RDMA fabric model.

Substitutes the paper's 56 Gbps Infiniband testbed with a latency and
bandwidth model.  The base 4 KB transfer takes ~4 us (Section II-A step 4);
on top of that we model the two effects HoPP's policy engine exists to
absorb (Section III-E): *volatility* (jitter in network and remote-node
service time) and *congestion* (queueing when outstanding transfers exceed
the link's service rate).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.common.constants import PAGE_SIZE, T_RDMA_PAGE_US
from repro.common.stats import RunningStat
from repro.net.faults import FaultInjector
from repro.telemetry.events import (
    EV_FABRIC_READ,
    EV_FABRIC_WRITE,
    EV_FETCH_LATENCY,
)


@dataclass
class FabricConfig:
    """Knobs of the fabric model.

    ``base_latency_us``    one uncontended 4 KB READ.
    ``jitter_us``          uniform [0, jitter] extra latency per transfer.
    ``spike_probability``  chance of a latency spike (incast, remote CPU
                           stall) multiplying the base by ``spike_factor``.
    ``gbps``               link bandwidth; queueing delay builds when the
                           instantaneous offered load exceeds it.
    """

    base_latency_us: float = T_RDMA_PAGE_US
    jitter_us: float = 0.8
    spike_probability: float = 0.01
    spike_factor: float = 5.0
    gbps: float = 56.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.base_latency_us < 0:
            raise ValueError(
                f"base_latency_us must be >= 0, got {self.base_latency_us}"
            )
        if self.jitter_us < 0:
            raise ValueError(f"jitter_us must be >= 0, got {self.jitter_us}")
        if not 0.0 <= self.spike_probability <= 1.0:
            raise ValueError(
                f"spike_probability must be in [0, 1], got {self.spike_probability}"
            )
        if self.spike_factor < 1.0:
            raise ValueError(
                f"spike_factor must be >= 1, got {self.spike_factor}"
            )
        if self.gbps <= 0:
            raise ValueError(f"gbps must be > 0, got {self.gbps}")


class RdmaFabric:
    """Issues page-sized READs/WRITEs and returns their completion time.

    The fabric is work-conserving with a single FIFO service queue: each
    page occupies the link for ``page_service_us`` and a transfer issued
    while the link is busy queues behind earlier ones.  Latency =
    propagation (base + jitter + spikes) + queueing.
    """

    def __init__(
        self,
        config: Optional[FabricConfig] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.config = config or FabricConfig()
        self.injector = injector
        #: Telemetry event bus; None (the default) keeps every traffic
        #: path probe-free.  Counts are emitted *before* the injector
        #: check so a timed-out attempt still reconciles with
        #: ``reads``/``writes`` (the attempt is wire traffic either
        #: way); latency is sampled only on successful completions.
        self.bus = None
        self._rng = random.Random(self.config.seed)
        # Time the link becomes free for the next bulk transfer.
        self._link_free_at_us = 0.0
        # Separate service cursor for priority (demand-fault) reads:
        # they ride their own QP and do not queue behind prefetch
        # bursts, like the separate data paths of Section III.
        self._prio_free_at_us = 0.0
        self.reads = 0
        self.writes = 0
        self.latency_stat = RunningStat()
        #: Link occupancy of one 4 KB page at the configured bandwidth.
        self.page_service_us = PAGE_SIZE * 8 / (self.config.gbps * 1e3)

    def read_page(self, now_us: float, priority: bool = False) -> float:
        """Issue a 4 KB READ at ``now_us``; returns its completion time.

        ``priority`` marks demand-fault reads, which use their own queue
        pair and therefore only contend with other demand reads.

        With a fault injector armed, raises
        :class:`~repro.net.faults.TransferTimeout` when the transfer's
        completion is dropped; the attempt still counts as wire traffic.
        """
        self.reads += 1
        if self.bus is not None:
            self.bus.emit(EV_FABRIC_READ, now_us, n=1)
        if self.injector is not None:
            self.injector.check_transfer(
                now_us, "demand" if priority else "prefetch"
            )
        done = self._transfer(now_us, priority)
        self.latency_stat.add(done - now_us)
        if self.bus is not None:
            self.bus.emit(EV_FETCH_LATENCY, done, latency_us=done - now_us)
        return done

    def read_batch(self, now_us: float, npages: int):
        """One scatter-gather READ of ``npages`` consecutive pages (the
        Section IV huge-page batch): a single propagation delay, then
        pages stream back-to-back at link rate.  Returns the list of
        per-page arrival times (the i-th page lands once its bytes have
        crossed the link)."""
        if npages < 1:
            raise ValueError("npages must be >= 1")
        self.reads += npages
        if self.bus is not None:
            self.bus.emit(EV_FABRIC_READ, now_us, n=npages)
        if self.injector is not None:
            self.injector.check_transfer(now_us, "prefetch")
        first_byte = self._transfer(now_us, False, npages)
        service = self.page_service_us
        arrivals = [first_byte + (i + 1) * service for i in range(npages)]
        self.latency_stat.add(arrivals[-1] - now_us)
        if self.bus is not None:
            self.bus.emit(
                EV_FETCH_LATENCY, arrivals[-1],
                latency_us=arrivals[-1] - now_us,
            )
        return arrivals

    def write_page(self, now_us: float) -> float:
        """Issue a 4 KB WRITE (reclaim writeback); returns completion."""
        self.writes += 1
        if self.bus is not None:
            self.bus.emit(EV_FABRIC_WRITE, now_us)
        if self.injector is not None:
            self.injector.check_transfer(now_us, "write")
        done = self._transfer(now_us, False)
        self.latency_stat.add(done - now_us)
        return done

    def _transfer(self, now_us: float, priority: bool, pages: int = 1) -> float:
        """Queue ``pages`` pages at ``now_us``; returns when the first
        byte lands: the service start plus one propagation delay (base,
        uniform jitter, an occasional spike, any injected slowdown)."""
        if priority:
            free = self._prio_free_at_us
            start = free if free > now_us else now_us
            free = start + self.page_service_us
            self._prio_free_at_us = free
            # The link is shared: bulk traffic sees priority occupancy.
            if free > self._link_free_at_us:
                self._link_free_at_us = free
        else:
            free = self._link_free_at_us
            start = free if free > now_us else now_us
            self._link_free_at_us = start + pages * self.page_service_us
        cfg = self.config
        rng = self._rng
        # uniform(0.0, j) is 0.0 + (j - 0.0) * random(): j * random()
        # bit for bit.
        latency = cfg.base_latency_us + cfg.jitter_us * rng.random()
        if cfg.spike_probability and rng.random() < cfg.spike_probability:
            latency *= cfg.spike_factor
        if self.injector is not None:
            latency *= self.injector.latency_factor(now_us)
        return start + latency

    @property
    def transfers(self) -> int:
        return self.reads + self.writes

    @property
    def bytes_moved(self) -> int:
        return self.transfers * PAGE_SIZE

    def stats_snapshot(self) -> dict:
        """Public counter snapshot, for per-link metrics aggregation and
        debugging (no caller should poke the private service cursors)."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_moved": self.bytes_moved,
            "latency_mean_us": self.latency_stat.mean,
            "latency_max_us": self.latency_stat.max or 0.0,
            "link_busy_until_us": self._link_free_at_us,
            "prio_busy_until_us": self._prio_free_at_us,
        }

    def metrics_snapshot(self) -> dict:
        """Export-facing counter snapshot with the unified key naming
        shared by :meth:`RemoteMemoryNode.metrics_snapshot`: monotone
        counters end in ``_total``, gauges do not.  The Prometheus
        exporter maps these keys 1:1 onto metric families with no
        per-class special-casing; :meth:`stats_snapshot` keeps its
        original keys because goldens and CI scripts pin them."""
        return {
            "reads_total": self.reads,
            "writes_total": self.writes,
            "bytes_moved_total": self.bytes_moved,
            "latency_mean_us": self.latency_stat.mean,
            "latency_max_us": self.latency_stat.max or 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RdmaFabric(gbps={self.config.gbps}, reads={self.reads}, "
            f"writes={self.writes}, "
            f"mean_latency_us={self.latency_stat.mean:.2f})"
        )
