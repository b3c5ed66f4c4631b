"""Adaptive Three-Tier Prefetching — Section III-D.

Tiers run in fixed priority order: SSP first (simple streams cover the
majority of patterns and are cheapest to identify), then LSP for ladder
streams, then RSP as the last resort for ripples.  Each tier can be
toggled off, which is how the Figure 18-20 tier-contribution study and
the revamped-majority baseline are built.

Vocabulary note: the "tiers" here are *prefetch-policy* tiers
(SSP/LSP/RSP priority levels inside the trainer).  They are unrelated
to the *memory* tiers of :mod:`repro.memtier` (local DRAM / pooled CXL
/ RDMA far), whose identifiers always carry a ``memtier_`` prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.types import Decision, StreamObservation
from repro.hopp import lsp, rsp, ssp


@dataclass
class TierConfig:
    enable_ssp: bool = True
    enable_lsp: bool = True
    enable_rsp: bool = True

    @classmethod
    def only(cls, *tiers: str) -> "TierConfig":
        names = set(tiers)
        unknown = names - {"ssp", "lsp", "rsp"}
        if unknown:
            raise ValueError(f"unknown tiers: {sorted(unknown)}")
        return cls(
            enable_ssp="ssp" in names,
            enable_lsp="lsp" in names,
            enable_rsp="rsp" in names,
        )


class ThreeTierTrainer:
    """Applies the tier cascade to one stream observation."""

    def __init__(self, config: Optional[TierConfig] = None) -> None:
        self.config = config or TierConfig()
        cfg = self.config
        #: The enabled tiers' ``train`` functions in priority order,
        #: bound once: the first decision wins.
        self._cascade = tuple(
            tier.train
            for tier, enabled in (
                (ssp, cfg.enable_ssp),
                (lsp, cfg.enable_lsp),
                (rsp, cfg.enable_rsp),
            )
            if enabled
        )
        self.decisions_by_tier: Dict[str, int] = {"ssp": 0, "lsp": 0, "rsp": 0}
        self.no_decision = 0

    def train(self, observation: StreamObservation) -> Optional[Decision]:
        for tier in self._cascade:
            decision = tier(observation)
            if decision is not None:
                self.decisions_by_tier[decision[0]] += 1
                return decision
        self.no_decision += 1
        return None
