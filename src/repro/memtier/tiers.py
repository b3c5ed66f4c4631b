"""Memory-tier parameters and the CXL link derivation.

The pooled tier's link is not configured from scratch: following the
hybrid-memory NUMA-emulation methodology (PAPERS.md), it is *derived*
from the far link by latency/bandwidth ratios.  The anchor points are
the simulator's own constants — a DRAM hit costs ``T_DRAM_HIT_US``
(0.1 us) and a far-tier RDMA page read ``T_RDMA_PAGE_US`` (4 us) — and
published CXL measurements put a CXL hop at ~3-10x DRAM latency.  The
default ``cxl_latency_us`` of 0.8 us sits at 8x DRAM and 5x *under*
RDMA, squarely in that band; jitter scales with the same ratio (a
shorter link has proportionally less queueing variance) and bandwidth
defaults to a CXL x8 link (~256 Gbps vs the 56 Gbps Infiniband
default).  Spike behaviour (probability, factor) is inherited from the
far link: congestion events are fabric-wide conditions, only their
scale changes with the link.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.common.constants import T_DRAM_HIT_US, T_RDMA_PAGE_US
from repro.net.rdma import FabricConfig

#: Memory-tier labels for cluster nodes.  (Distinct from the HoPP
#: SSP/LSP/RSP *prefetch* tiers — see the package docstring.)
TIER_POOL = "pool"
TIER_FAR = "far"

#: Default CXL-class page-read latency: 8x a DRAM hit, 5x under RDMA.
T_CXL_PAGE_US = 8 * T_DRAM_HIT_US


@dataclass(frozen=True)
class MemtierConfig:
    """Shape of the pooled CXL tier and the migration policy.

    Topology
    --------
    ``pool_nodes``            pooled CXL nodes.  When the cluster config
                              carries no explicit ``node_tiers``, this
                              many pool nodes are added *in front of*
                              the configured (far) nodes.
    ``pool_capacity_pages``   per-pool-node capacity; None reuses the
                              far nodes' per-node share.

    Link derivation (see module docstring)
    --------------------------------------
    ``cxl_latency_us``        base page-read latency of a pool link.
    ``cxl_jitter_us``         pool-link jitter; None scales the far
                              link's jitter by the latency ratio.
    ``cxl_gbps``              pool-link bandwidth (CXL x8 class).

    Migration policy
    ----------------
    ``promote_touches``       far-tier demand reads of one page before
                              it counts as hot (touch-driven promotion).
    ``hot_promote``           accept HPD hot-page hints as a promotion
                              signal (the HoPP co-design: the hardware
                              detector feeds tiering, not just
                              prefetch).
    ``pool_high_watermark``   pool-node fill fraction that triggers
                              demotion of its coldest pages ...
    ``pool_low_watermark``    ... down to this fill fraction.
    ``migrate_interval_us``   rate limit between migration page copies
                              (same shaping role as repair traffic).
    ``max_migration_retries`` re-queue budget per migration: bounds
                              retries after fabric timeouts and
                              promotions that find no pool room,
                              with or without a fault plan.
    ``hot_set_limit``         bound on the tracked hot-page set (oldest
                              entries age out first).
    """

    pool_nodes: int = 1
    pool_capacity_pages: Optional[int] = None
    cxl_latency_us: float = T_CXL_PAGE_US
    cxl_jitter_us: Optional[float] = None
    cxl_gbps: float = 256.0
    promote_touches: int = 2
    hot_promote: bool = True
    pool_high_watermark: float = 0.9
    pool_low_watermark: float = 0.75
    migrate_interval_us: float = 10.0
    max_migration_retries: int = 8
    hot_set_limit: int = 8192

    def __post_init__(self) -> None:
        if self.pool_nodes < 1:
            raise ValueError(f"pool_nodes must be >= 1, got {self.pool_nodes}")
        if self.pool_capacity_pages is not None and self.pool_capacity_pages < 1:
            raise ValueError("pool_capacity_pages must be >= 1")
        if self.cxl_latency_us <= 0:
            raise ValueError("cxl_latency_us must be positive")
        if self.cxl_latency_us >= T_RDMA_PAGE_US:
            raise ValueError(
                f"cxl_latency_us must be under the far-tier RDMA latency "
                f"({T_RDMA_PAGE_US} us), got {self.cxl_latency_us} — a pool "
                f"slower than the far tier inverts the hierarchy"
            )
        if self.cxl_jitter_us is not None and self.cxl_jitter_us < 0:
            raise ValueError("cxl_jitter_us must be >= 0")
        if self.cxl_gbps <= 0:
            raise ValueError("cxl_gbps must be positive")
        if self.promote_touches < 1:
            raise ValueError("promote_touches must be >= 1")
        if not 0.0 < self.pool_low_watermark <= self.pool_high_watermark <= 1.0:
            raise ValueError(
                f"watermarks must satisfy 0 < low <= high <= 1, got "
                f"low={self.pool_low_watermark}, high={self.pool_high_watermark}"
            )
        if self.migrate_interval_us < 0:
            raise ValueError("migrate_interval_us must be >= 0")
        if self.max_migration_retries < 0:
            raise ValueError("max_migration_retries must be >= 0")
        if self.hot_set_limit < 1:
            raise ValueError("hot_set_limit must be >= 1")

    def cxl_fabric_config(self, far: FabricConfig) -> FabricConfig:
        """Derive the pool link from the far link by the ratio method:
        latency is set directly, jitter scales by the latency ratio
        (unless overridden), bandwidth becomes the CXL-class figure, and
        spike behaviour is inherited (fabric-wide conditions)."""
        ratio = (
            self.cxl_latency_us / far.base_latency_us
            if far.base_latency_us > 0
            else 1.0
        )
        jitter = (
            self.cxl_jitter_us
            if self.cxl_jitter_us is not None
            else far.jitter_us * ratio
        )
        return replace(
            far,
            base_latency_us=self.cxl_latency_us,
            jitter_us=jitter,
            gbps=self.cxl_gbps,
        )


def derive_node_tiers(far_nodes: int, pool_nodes: int) -> Tuple[str, ...]:
    """Tier labels for a topology of ``pool_nodes`` pooled CXL nodes in
    front of ``far_nodes`` RDMA nodes (the CLI's ``--mem-tiers`` shape:
    node ids 0..pool-1 are the pool, the rest are the far tier)."""
    if far_nodes < 1:
        raise ValueError("a tiered cluster needs at least one far node")
    if pool_nodes < 1:
        raise ValueError("a tiered cluster needs at least one pool node")
    return (TIER_POOL,) * pool_nodes + (TIER_FAR,) * far_nodes
