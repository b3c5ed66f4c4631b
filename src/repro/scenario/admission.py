"""Admission control and the graceful-degradation ladder.

When cluster pressure crosses thresholds, load is shed in a strict
order — the softest, most reversible knob first:

====  ==============================================================
rung  action
====  ==============================================================
0     nothing: everyone runs at full service
1     **throttle prefetch** of best-effort tenants — each tenant owns
      a :class:`~repro.hopp.policy.CircuitBreaker` reused as its
      prefetch gate; the controller trips it for one pressure window
      and the machine's admission hook refuses issue while it is open
2     \\+ **defer/reject new admissions** — a tenant asking to start
      gets a typed :class:`AdmissionRejectedError`; the engine parks
      it and retries next round
3     \\+ **degrade best-effort tenants** — their demand reads drop to
      the bulk QP (queueing behind everyone's prefetch traffic) and
      their traffic slice is halved.  Guaranteed tenants are *never*
      degraded — that tier separation is exactly what the SLO bench
      must show
====  ==============================================================

The ladder climbs one rung per update when pressure is above
``enter``, and descends one rung only after ``calm_updates``
consecutive updates below ``exit`` (asymmetric hysteresis: shedding is
fast, un-shedding is cautious).  Nothing here ever raises past the
typed admission error, and every shed action is counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.hopp.policy import BreakerConfig, CircuitBreaker
from repro.scenario.traffic import TIER_BEST_EFFORT, TenantSpec

#: Ladder rungs, in shedding order.
LEVEL_NOMINAL = 0
LEVEL_THROTTLE = 1
LEVEL_REJECT = 2
LEVEL_DEGRADE = 3
LEVEL_NAMES = ("nominal", "throttle", "reject", "degrade")


class AdmissionRejectedError(RuntimeError):
    """A tenant's admission was refused under overload (rung >= 2)."""

    def __init__(self, tenant: str, level: int, pressure: float) -> None:
        super().__init__(
            f"admission of tenant {tenant!r} rejected: ladder at "
            f"{LEVEL_NAMES[level]} (pressure {pressure:.2f})"
        )
        self.tenant = tenant
        self.level = level
        self.pressure = pressure


@dataclass(frozen=True)
class LadderConfig:
    """Thresholds of the degradation ladder."""

    #: Pressure at/above which the ladder climbs one rung per update.
    enter: float = 1.0
    #: Pressure below which an update counts as calm.
    exit: float = 0.5
    #: Consecutive calm updates required to descend one rung.
    calm_updates: int = 2
    #: How long one trip of a tenant's prefetch breaker holds (us).
    throttle_hold_us: float = 5_000.0
    #: Traffic-slice multiplier for degraded best-effort tenants.
    degrade_slice_factor: float = 0.5

    def __post_init__(self) -> None:
        if self.enter <= self.exit:
            raise ValueError("enter threshold must exceed exit threshold")
        if self.calm_updates < 1:
            raise ValueError("calm_updates must be >= 1")
        if self.throttle_hold_us <= 0:
            raise ValueError("throttle_hold_us must be > 0")
        if not 0.0 < self.degrade_slice_factor <= 1.0:
            raise ValueError("degrade_slice_factor must be in (0, 1]")


class AdmissionController:
    """Owns the ladder level, the per-tenant prefetch breakers, and the
    degraded set.  The scenario engine calls :meth:`update` once per
    round with the measured pressure, :meth:`admit` for every arriving
    tenant, and installs :meth:`prefetch_gate` as the machine's
    ``prefetch_admission`` hook."""

    def __init__(self, config: LadderConfig = LadderConfig()) -> None:
        self.config = config
        self.level = LEVEL_NOMINAL
        self._calm = 0
        self._pressure = 0.0
        #: tenant index -> its prefetch breaker (created lazily).
        self._breakers: Dict[int, CircuitBreaker] = {}
        #: tenant index -> spec, registered at admission request time.
        self._specs: Dict[int, TenantSpec] = {}
        self._degraded: Set[int] = set()
        # Shed accounting.
        self.admissions = 0
        self.rejections = 0
        self.rejections_by_tenant: Dict[str, int] = {}
        self.throttle_trips = 0
        self.degradations = 0
        self.restorations = 0
        #: (update index, from level, to level) audit trail.
        self.transitions: List[Tuple[int, int, int]] = []
        self._updates = 0

    # -- registration -----------------------------------------------------------------

    def register(self, index: int, spec: TenantSpec) -> None:
        self._specs[index] = spec
        self._breakers[index] = CircuitBreaker(
            BreakerConfig(cooldown_us=self.config.throttle_hold_us)
        )

    # -- the ladder -------------------------------------------------------------------

    def update(self, pressure: float, now_us: float) -> int:
        """One control-loop step; returns the (possibly new) level."""
        self._updates += 1
        self._pressure = pressure
        old = self.level
        if pressure >= self.config.enter:
            self._calm = 0
            if self.level < LEVEL_DEGRADE:
                self.level += 1
        elif pressure < self.config.exit:
            self._calm += 1
            if self._calm >= self.config.calm_updates and self.level > 0:
                self.level -= 1
                self._calm = 0
        else:
            self._calm = 0
        if self.level != old:
            self.transitions.append((self._updates, old, self.level))
        self._apply(now_us)
        return self.level

    def _apply(self, now_us: float) -> None:
        """Enforce the current rung's actions."""
        if self.level >= LEVEL_THROTTLE:
            for index, spec in self._specs.items():
                if spec.tier == TIER_BEST_EFFORT:
                    self._breakers[index].trip(
                        now_us, self.config.throttle_hold_us
                    )
                    self.throttle_trips += 1
        if self.level >= LEVEL_DEGRADE:
            for index, spec in self._specs.items():
                if spec.tier == TIER_BEST_EFFORT and index not in self._degraded:
                    self._degraded.add(index)
                    self.degradations += 1
        elif self._degraded:
            self.restorations += len(self._degraded)
            self._degraded.clear()

    # -- admission --------------------------------------------------------------------

    def admit(self, index: int, spec: TenantSpec, now_us: float) -> None:
        """Admit ``spec`` or raise :class:`AdmissionRejectedError`.

        Registration happens on success only: a rejected tenant holds
        no breaker and sheds no one else's load."""
        if self.level >= LEVEL_REJECT:
            self.rejections += 1
            self.rejections_by_tenant[spec.name] = (
                self.rejections_by_tenant.get(spec.name, 0) + 1
            )
            raise AdmissionRejectedError(spec.name, self.level, self._pressure)
        self.register(index, spec)
        self.admissions += 1

    # -- machine hooks ----------------------------------------------------------------

    def prefetch_gate(self, pid: int, tier: str, now_us: float) -> bool:
        """The machine's ``prefetch_admission`` hook: PID -> tenant via
        the caller-supplied stride, then that tenant's breaker."""
        breaker = self._breakers.get(self._tenant_of(pid))
        if breaker is None:
            return True
        return breaker.allow(now_us)

    def degraded_tenants(self) -> Set[int]:
        return set(self._degraded)

    def slice_factor(self, index: int) -> float:
        """Traffic multiplier for a tenant this round (rung 3 action)."""
        if index in self._degraded:
            return self.config.degrade_slice_factor
        return 1.0

    def attach_pid_stride(self, stride: int) -> None:
        self._stride = stride

    def _tenant_of(self, pid: int) -> int:
        return pid // getattr(self, "_stride", 100)

    # -- export -----------------------------------------------------------------------

    def export(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "level_name": LEVEL_NAMES[self.level],
            "admissions": self.admissions,
            "rejections": self.rejections,
            "rejections_by_tenant": dict(
                sorted(self.rejections_by_tenant.items())
            ),
            "throttle_trips": self.throttle_trips,
            "degradations": self.degradations,
            "restorations": self.restorations,
            "transitions": [list(t) for t in self.transitions],
        }
