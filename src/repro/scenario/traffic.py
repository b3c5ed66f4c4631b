"""Tenant fleet construction and arrival-pattern shaping.

A *tenant* is one workload instance (from the registry) running under
its own :class:`~repro.kernel.cgroup.MemoryCgroup` budget and service
tier, with an arrival pattern that scales how much of its trace it
replays per scenario round.  Patterns are pure functions of
``(tenant seed, round index)`` — no shared RNG stream — so adding or
removing a tenant never perturbs anyone else's traffic, and a fleet is
reproducible from its seed alone.

Intensity is a float in [0, 1]: the fraction of the tenant's base
per-round access quota it offers that round.  CXL-ClusterSim's traffic
model motivates the shapes: ``diurnal`` (sinusoidal day/night),
``bursty`` (seeded on/off), ``flash`` (ramp, spike, decay — the flash
crowd that admission control exists for), and ``steady``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.workloads import registry as workload_registry
from repro.workloads.base import Workload

#: Service tiers, in degradation order: best-effort tenants are shed
#: first, guaranteed tenants only after every softer rung is exhausted.
TIER_GUARANTEED = "guaranteed"
TIER_BEST_EFFORT = "best_effort"
TIERS = (TIER_GUARANTEED, TIER_BEST_EFFORT)

#: Pattern signature: (tenant_seed, round_index, total_rounds) -> [0, 1].
PatternFn = Callable[[int, int, int], float]

_PATTERNS: Dict[str, PatternFn] = {}


def register_pattern(name: str):
    def deco(fn: PatternFn) -> PatternFn:
        _PATTERNS[name] = fn
        return fn

    return deco


def pattern_names() -> List[str]:
    return sorted(_PATTERNS)


def intensity(pattern: str, tenant_seed: int, rnd: int, rounds: int) -> float:
    fn = _PATTERNS.get(pattern)
    if fn is None:
        raise KeyError(
            f"unknown arrival pattern {pattern!r} "
            f"(have: {', '.join(pattern_names())})"
        )
    value = fn(tenant_seed, rnd, max(rounds, 1))
    return min(max(value, 0.0), 1.0)


def _coin(tenant_seed: int, rnd: int) -> float:
    """A stable per-(tenant, round) uniform draw; independent streams."""
    return random.Random(tenant_seed * 1_000_003 + rnd).random()


@register_pattern("steady")
def _steady(tenant_seed: int, rnd: int, rounds: int) -> float:
    return 1.0


@register_pattern("diurnal")
def _diurnal(tenant_seed: int, rnd: int, rounds: int) -> float:
    """One full day per scenario, phase-shifted per tenant so fleets do
    not beat in lockstep; floor keeps night traffic non-zero."""
    phase = (tenant_seed % 17) / 17.0
    cycle = (rnd / rounds + phase) * 2.0 * math.pi
    return 0.25 + 0.75 * (0.5 + 0.5 * math.sin(cycle))


@register_pattern("bursty")
def _bursty(tenant_seed: int, rnd: int, rounds: int) -> float:
    """Seeded on/off: ~40% of rounds run hot, the rest idle-tick."""
    return 1.0 if _coin(tenant_seed, rnd) < 0.4 else 0.1


@register_pattern("flash")
def _flash(tenant_seed: int, rnd: int, rounds: int) -> float:
    """Flash crowd: quiet, a 2-round full-rate spike at a seeded
    position past mid-run, then exponential decay."""
    spike_at = rounds // 2 + tenant_seed % max(rounds // 4, 1)
    if rnd < spike_at:
        return 0.15
    if rnd < spike_at + 2:
        return 1.0
    return max(0.15, math.exp(-(rnd - spike_at - 1) / 2.0))


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's declarative description."""

    name: str
    workload: str = "stream-simple"
    seed: int = 1
    tier: str = TIER_GUARANTEED
    #: Cgroup budget as a fraction of the workload footprint.
    limit_fraction: float = 0.5
    pattern: str = "steady"
    #: Round at which the tenant asks to be admitted.
    start_round: int = 0
    #: Workload constructor overrides (footprint scaling etc).
    workload_kwargs: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise ValueError(f"tier must be one of {TIERS}, got {self.tier!r}")
        if not 0.0 < self.limit_fraction:
            raise ValueError("limit_fraction must be > 0")
        if self.start_round < 0:
            raise ValueError("start_round must be >= 0")
        if self.pattern not in _PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")

    def build_workload(self) -> Workload:
        return workload_registry.build(
            self.workload, seed=self.seed, **dict(self.workload_kwargs)
        )


def build_fleet(
    tenants: int,
    seed: int = 1,
    pattern: str = "mixed",
    best_effort_fraction: float = 0.5,
    staggered: bool = True,
    rounds: int = 8,
    pages_per_tenant: int = 600,
) -> List[TenantSpec]:
    """A deterministic fleet of small key-value-cache tenants.

    ``kv-cache`` is the shape that makes overload interesting: zipf
    reuse keeps re-touching pages the cgroup budget already evicted, so
    saturation shows up as demand-fault latency, not just reclaim.
    ``pattern='mixed'`` cycles through every registered arrival shape; a
    concrete name pins all tenants to it.  Tiers alternate so both
    tiers see every pattern; ``staggered`` spreads admissions over the
    first half of the run (the arrival process the admission controller
    gates)."""
    if tenants < 1:
        raise ValueError("need at least one tenant")
    shapes = pattern_names() if pattern == "mixed" else [pattern]
    specs: List[TenantSpec] = []
    for index in range(tenants):
        # Floor-accumulator interleave: best-effort tenants appear at
        # the requested fraction, evenly spread through the index order.
        tier = (
            TIER_BEST_EFFORT
            if math.floor((index + 1) * best_effort_fraction)
            > math.floor(index * best_effort_fraction)
            else TIER_GUARANTEED
        )
        start = (index % max(rounds // 2, 1)) if staggered and index else 0
        specs.append(
            TenantSpec(
                name=f"t{index:03d}",
                workload="kv-cache",
                seed=seed * 1000 + index,
                tier=tier,
                limit_fraction=0.5,
                pattern=shapes[index % len(shapes)],
                start_round=start,
                workload_kwargs=(
                    ("objects", pages_per_tenant),
                    ("operations", pages_per_tenant * 6),
                ),
            )
        )
    return specs
