"""Prefetch Policy Engine — Section III-E.

Two knobs tune aggressiveness and timeliness per stream:

* **intensity** — pages prefetched per hot page received.  One page
  matches the stream's memory access rate; more than one compensates for
  a congested fabric.
* **offset** (``i``) — how far ahead along the identified pattern to
  prefetch.  HoPP measures T, the time a prefetched page sits in local
  memory before its first hit, and keeps it inside [T_min, T_max]:
  T < T_min means the page nearly arrived late, so prefetch further
  (i *= 1 + alpha); T > T_max wastes local memory, so prefetch closer
  (i *= 1 - alpha).

A third mechanism protects the fabric itself: the
:class:`CircuitBreaker` watches per-prefetch outcomes (drops, timeouts,
latency inflation) and suspends prefetch issue when the fabric turns
hostile, re-opening through a half-open probe phase after a cool-down —
demand faults keep their priority lane while speculative traffic backs
off.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro.common.constants import (
    POLICY_ALPHA,
    POLICY_DEFAULT_INTENSITY,
    POLICY_OFFSET_MAX,
    POLICY_T_MAX_US,
    POLICY_T_MIN_US,
)
from repro.common.types import Decision


@dataclass
class PolicyConfig:
    intensity: int = POLICY_DEFAULT_INTENSITY
    alpha: float = POLICY_ALPHA
    initial_offset: float = 1.0
    #: A float like the other offsets, so ``variant`` and the tuner's
    #: float dimension accept any value for it.
    offset_max: float = float(POLICY_OFFSET_MAX)
    t_min_us: float = POLICY_T_MIN_US
    t_max_us: float = POLICY_T_MAX_US
    #: When False the offset never adapts (the fixed-offset arms of
    #: Figure 22).
    adaptive: bool = True

    def __post_init__(self) -> None:
        if self.intensity < 1:
            raise ValueError(f"intensity must be >= 1, got {self.intensity!r}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha!r}")
        if not 1.0 <= self.initial_offset <= self.offset_max:
            raise ValueError(
                "initial_offset must be in [1, offset_max], got "
                f"initial_offset={self.initial_offset!r}, "
                f"offset_max={self.offset_max!r}"
            )
        if not 0.0 <= self.t_min_us < self.t_max_us:
            raise ValueError(
                "t_min_us must be in [0, t_max_us), got "
                f"t_min_us={self.t_min_us!r}, t_max_us={self.t_max_us!r}"
            )


@dataclass
class BreakerConfig:
    """Knobs of the prefetch circuit breaker.

    The breaker opens (suspends prefetch issue) when, over the last
    ``window`` recorded outcomes (with at least ``min_samples`` of
    them), the failure fraction reaches ``failure_threshold``.  A
    fetch that completes but takes longer than ``latency_threshold_us``
    counts as a failure too — that is how pure latency-degradation
    epochs (no drops) still trip the breaker.  After ``cooldown_us`` the
    breaker half-opens and lets ``probe_quota`` probes through: the
    first success closes it, a failure re-opens it.
    """

    enabled: bool = True
    window: int = 32
    min_samples: int = 8
    failure_threshold: float = 0.5
    latency_threshold_us: float = 200.0
    cooldown_us: float = 2_000.0
    probe_quota: int = 4

    def __post_init__(self) -> None:
        if self.window < 1 or self.min_samples < 1:
            raise ValueError("window and min_samples must be >= 1")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if self.cooldown_us <= 0 or self.probe_quota < 1:
            raise ValueError("cooldown_us must be > 0 and probe_quota >= 1")


class BreakerState:
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Failure-rate circuit breaker over the prefetch issue path."""

    def __init__(self, config: Optional[BreakerConfig] = None) -> None:
        self.config = config or BreakerConfig()
        self.state = BreakerState.CLOSED
        self._outcomes: Deque[bool] = deque(maxlen=self.config.window)
        self._opened_at_us = 0.0
        self._reopen_at_us = 0.0
        self._probes_left = 0
        self.opens = 0
        self.closes = 0
        self._degraded_total_us = 0.0

    # -- issue gate -------------------------------------------------------------------

    def allow(self, now_us: float) -> bool:
        """May this prefetch go out at ``now_us``?"""
        if self.state == BreakerState.CLOSED:
            return True
        if self.state == BreakerState.OPEN:
            if now_us < self._reopen_at_us:
                return False
            self.state = BreakerState.HALF_OPEN
            self._probes_left = self.config.probe_quota
        if self._probes_left > 0:
            self._probes_left -= 1
            return True
        return False

    # -- outcome feed -----------------------------------------------------------------

    def record_success(self, now_us: float, latency_us: Optional[float] = None) -> None:
        slow = (
            latency_us is not None
            and latency_us > self.config.latency_threshold_us
        )
        if self.state == BreakerState.HALF_OPEN:
            if slow:
                self._reopen(now_us)
            else:
                self._close(now_us)
            return
        self._record(now_us, ok=not slow)

    def record_failure(self, now_us: float) -> None:
        if self.state == BreakerState.HALF_OPEN:
            self._reopen(now_us)
            return
        self._record(now_us, ok=False)

    def refund_probe(self) -> None:
        """A granted probe produced no transfer at all (the backend had
        nothing to fetch).  That neither confirms nor refutes recovery,
        so return the slot — otherwise no-op probes exhaust the quota
        and the breaker wedges in HALF_OPEN forever."""
        if self.state == BreakerState.HALF_OPEN:
            self._probes_left += 1

    def trip(self, now_us: float, cooldown_us: Optional[float] = None) -> None:
        """Force the breaker OPEN regardless of the outcome window — the
        load-shedding entry point.  The scenario admission controller
        reuses the breaker as its per-tenant prefetch throttle: tripping
        suspends issue for ``cooldown_us`` (defaults to the configured
        cooldown), after which the normal half-open probe path decides
        recovery.  Tripping an already-OPEN breaker just extends the
        cooldown without counting another open."""
        hold = cooldown_us if cooldown_us is not None else self.config.cooldown_us
        if self.state == BreakerState.OPEN:
            self._reopen_at_us = max(self._reopen_at_us, now_us + hold)
            return
        self._open(now_us)
        self._reopen_at_us = now_us + hold

    # -- observability ----------------------------------------------------------------

    def time_degraded_us(self, now_us: float) -> float:
        """Total simulated time spent OPEN or HALF_OPEN so far."""
        total = self._degraded_total_us
        if self.state != BreakerState.CLOSED:
            total += max(now_us - self._opened_at_us, 0.0)
        return total

    @property
    def failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(1 for ok in self._outcomes if not ok) / len(self._outcomes)

    # -- transitions ------------------------------------------------------------------

    def _record(self, now_us: float, ok: bool) -> None:
        if self.state != BreakerState.CLOSED:
            return
        self._outcomes.append(ok)
        if (
            len(self._outcomes) >= self.config.min_samples
            and self.failure_rate >= self.config.failure_threshold
        ):
            self._open(now_us)

    def _open(self, now_us: float) -> None:
        self.state = BreakerState.OPEN
        self.opens += 1
        self._opened_at_us = now_us
        self._reopen_at_us = now_us + self.config.cooldown_us
        self._outcomes.clear()

    def _reopen(self, now_us: float) -> None:
        """A half-open probe failed: back to OPEN, degraded span continues."""
        self.state = BreakerState.OPEN
        self.opens += 1
        self._reopen_at_us = now_us + self.config.cooldown_us
        self._probes_left = 0

    def _close(self, now_us: float) -> None:
        self._degraded_total_us += max(now_us - self._opened_at_us, 0.0)
        self.state = BreakerState.CLOSED
        self.closes += 1
        self._outcomes.clear()
        self._probes_left = 0


class PolicyEngine:
    """Finalizes *what* to fetch and *when* (how far ahead)."""

    def __init__(self, config: PolicyConfig = None) -> None:
        self.config = config or PolicyConfig()
        #: Per-stream adaptive offset (float internally; applied rounded).
        self._offsets: Dict[int, float] = {}
        #: Each adapted stream's offset as applied: ``round`` of its
        #: float offset, which never drops below 1.
        self._applied: Dict[int, int] = {}
        self._initial_applied = round(self.config.initial_offset)
        #: When each stream's offset was last adjusted: further reports
        #: only count once they reflect prefetches issued *after* the
        #: adjustment (the control loop's feedback delay).
        self._adjusted_at: Dict[int, float] = {}
        self.requests_out = 0
        self.offset_increases = 0
        self.offset_decreases = 0

    # -- request finalization -----------------------------------------------------

    def offset_of(self, stream_id: int) -> float:
        return self._offsets.get(stream_id, self.config.initial_offset)

    def finalize(self, decision: Decision, stream_id: int) -> Tuple[int, ...]:
        """Apply offset + intensity to a tier decision for stream
        ``stream_id``; returns the target VPNs for
        :meth:`ExecutionEngine.submit`.

        Emits ``intensity`` consecutive targets starting at the stream's
        current offset: ``target_vpn(decision, i)`` for ``i`` in
        ``offset .. offset + intensity - 1``, an arithmetic progression
        with the decision's per-offset stride.  Targets with negative
        VPNs (streams walking down past zero) are dropped.
        """
        offset = self._applied.get(stream_id, self._initial_applied)
        _, base_vpn, stride, fixed_delta = decision
        vpn = base_vpn + fixed_delta + offset * stride
        intensity = self.config.intensity
        if intensity == 1:
            if vpn < 0:
                return ()
            self.requests_out += 1
            return (vpn,)
        if stride:
            targets = tuple(range(vpn, vpn + intensity * stride, stride))
        else:
            targets = (vpn,) * intensity
        if vpn < 0 or targets[-1] < 0:
            targets = tuple([target for target in targets if target >= 0])
        self.requests_out += len(targets)
        return targets

    # -- timeliness feedback (from the execution engine) ----------------------------

    def report_timeliness(
        self,
        stream_id: int,
        t_us: float,
        issued_us: float = 0.0,
        now_us: Optional[float] = None,
    ) -> None:
        """Adjust the stream's offset from one measured T.

        An adjustment only takes effect for prefetches issued after the
        previous adjustment (``issued_us`` gate) — without this the ramp
        keeps multiplying before its own effect is observable and
        overshoots wildly past the end of the stream.
        """
        config = self.config
        if not config.adaptive:
            return
        if issued_us < self._adjusted_at.get(stream_id, -1.0):
            return
        if t_us < config.t_min_us:
            factor = 1.0 + config.alpha
            self.offset_increases += 1
        elif t_us > config.t_max_us:
            factor = 1.0 - config.alpha
            self.offset_decreases += 1
        else:
            return
        offsets = self._offsets
        current = offsets.get(stream_id)
        if current is None:
            current = config.initial_offset
        offset = offsets[stream_id] = min(max(current * factor, 1.0), config.offset_max)
        self._applied[stream_id] = round(offset)
        self._adjusted_at[stream_id] = now_us if now_us is not None else issued_us
