"""Deterministic fault injection for the fabric and the remote node.

The paper's testbed rides real Infiniband, which loses completions,
flaps links, and stalls remote CPUs; the simulator's fabric used to
model only the happy path.  A :class:`FaultPlan` is a declarative,
seeded schedule of hostile fabric behaviour; a :class:`FaultInjector`
executes it against ``RdmaFabric`` and ``RemoteMemoryNode`` so the
swap path can be exercised under typed, reproducible failures:

* **per-transfer drops** — a READ/WRITE whose completion never arrives
  (:class:`TransferTimeout`), chosen by a seeded coin per transfer;
* **link-down windows** — flaps during which every transfer times out;
* **bulk-QP brownouts** — windows during which only prefetch reads are
  dropped while the priority (demand) QP stays up;
* **degraded epochs** — intervals where propagation latency is
  multiplied (incast, congestion collapse);
* **remote-node stalls** — intervals adding fixed service delay at the
  memory node;
* **remote-node restarts** — intervals where the node answers nothing
  (:class:`RemoteUnavailableError`);
* **node crashes** — ``node_crash`` timestamps after which the node is
  *permanently* dead (its stored pages are gone) until a paired
  ``node_rejoin`` timestamp, if any, re-admits it empty.  Crashes are
  what the cluster's health monitor and repair engine exist for
  (:mod:`repro.cluster.health`, :mod:`repro.cluster.repair`);
* **silent corruption** — ``bit_flip_read`` (transient wire flip on a
  READ payload), ``bit_flip_write`` (the stored copy lands corrupted),
  and ``media_error_rate`` (a stored copy silently rots at a later,
  deterministic strike time).  None of these raise at injection time:
  they poison *data*, not completions, and only checksum verification
  (:mod:`repro.integrity`) ever notices.

Everything is a pure function of (plan, seed, transfer sequence), so a
run under faults is exactly as reproducible as a clean run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple


# -- typed failures -------------------------------------------------------------------


class FaultError(RuntimeError):
    """Base of every injected-fault error."""


class TransferTimeout(FaultError):
    """A fabric transfer whose completion (CQE) never arrived.

    ``wasted_us`` is the time the issuer spent waiting before declaring
    the transfer dead — it is real elapsed time the caller must account.
    """

    def __init__(self, kind: str, at_us: float, wasted_us: float) -> None:
        super().__init__(f"{kind} transfer timed out at {at_us:.1f} us")
        self.kind = kind
        self.at_us = at_us
        self.wasted_us = wasted_us


class RemoteUnavailableError(TransferTimeout):
    """The remote node is restarting and answers nothing; from the
    issuer's side this is indistinguishable from a transfer timeout."""


class RemoteFetchFatalError(FaultError):
    """A demand fetch (or reclaim writeback) exhausted its retry budget."""

    def __init__(
        self, pid: int, vpn: int, attempts: int, waited_us: float = 0.0
    ) -> None:
        super().__init__(
            f"remote fetch of (pid={pid}, vpn={vpn}) failed after "
            f"{attempts} attempts"
        )
        self.pid = pid
        self.vpn = vpn
        self.attempts = attempts
        #: Elapsed time the issuer burned across every attempt — what an
        #: absorbing caller must still charge to the fault.
        self.waited_us = waited_us


# -- the declarative plan -------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """A half-open interval [start_us, end_us) of simulated time."""

    start_us: float
    end_us: float

    def __post_init__(self) -> None:
        if self.start_us < 0 or self.end_us < self.start_us:
            raise ValueError(
                f"invalid window [{self.start_us}, {self.end_us})"
            )

    def contains(self, t_us: float) -> bool:
        return self.start_us <= t_us < self.end_us


@dataclass(frozen=True)
class DegradedEpoch(Window):
    """A window during which propagation latency is multiplied."""

    factor: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1, got {self.factor}")


def _windows(raw: Sequence) -> Tuple[Window, ...]:
    out = []
    for item in raw:
        if isinstance(item, Window):
            out.append(item)
        else:
            out.append(Window(float(item[0]), float(item[1])))
    return tuple(out)


def _epochs(raw: Sequence) -> Tuple[DegradedEpoch, ...]:
    out = []
    for item in raw:
        if isinstance(item, DegradedEpoch):
            out.append(item)
        else:
            out.append(
                DegradedEpoch(float(item[0]), float(item[1]), float(item[2]))
            )
    return tuple(out)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative schedule of fabric and remote-node faults.

    An all-defaults plan injects nothing; ``Machine`` treats it exactly
    like no plan at all, so baseline numbers are untouched.
    """

    seed: int = 0
    #: Per-READ chance (demand and prefetch alike) of a dropped completion.
    timeout_probability: float = 0.0
    #: Per-WRITE chance (reclaim writeback) of a dropped completion.
    write_timeout_probability: float = 0.0
    #: Time the issuer waits before declaring a transfer dead (the CQE
    #: timeout); charged as wasted latency per drop.
    timeout_us: float = 50.0
    #: Link flaps: every transfer issued inside one of these times out.
    link_down: Tuple[Window, ...] = ()
    #: Bulk-QP brownouts: windows during which only *prefetch* reads are
    #: dropped — the priority (demand) QP and writebacks stay up.  This
    #: is the fault that exercises the prefetch circuit breaker without
    #: stalling the critical path.
    prefetch_down: Tuple[Window, ...] = ()
    #: Latency-degradation epochs (propagation multiplied by ``factor``).
    degraded: Tuple[DegradedEpoch, ...] = ()
    #: Remote-node stall windows (fixed extra service delay per access).
    remote_stall: Tuple[Window, ...] = ()
    remote_stall_extra_us: float = 20.0
    #: Remote-node restart windows (node answers nothing).
    remote_restart: Tuple[Window, ...] = ()
    #: Permanent-crash timestamps: from ``node_crash[i]`` on, the node
    #: struck by crash *i* answers nothing and its stored pages are lost.
    #: On a cluster, crash *i* lands on node ``i % nodes`` (like windows).
    node_crash: Tuple[float, ...] = ()
    #: Optional rejoin timestamps, paired by index with ``node_crash``:
    #: ``node_rejoin[i]`` re-admits the node struck by crash *i* — empty,
    #: as a fresh machine racked in to replace the dead one.  Fewer
    #: rejoins than crashes means the unpaired crashes are forever.
    node_rejoin: Tuple[float, ...] = ()
    #: Per-READ chance the payload arrives with a flipped bit.  Transient
    #: wire corruption: the stored copy is fine, a re-read from the same
    #: node comes back clean.
    bit_flip_read: float = 0.0
    #: Per-WRITE chance the payload lands corrupted.  Persistent: the
    #: stored copy is bad until it is overwritten or repaired.
    bit_flip_write: float = 0.0
    #: Per-stored-copy chance of a latent media error: the copy is clean
    #: at write time and silently rots at a deterministic later strike
    #: time, uniform in ``(write, write + media_error_latency_us)``.
    media_error_rate: float = 0.0
    media_error_latency_us: float = 20_000.0

    def __post_init__(self) -> None:
        for name in (
            "timeout_probability",
            "write_timeout_probability",
            "bit_flip_read",
            "bit_flip_write",
            "media_error_rate",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.timeout_us <= 0:
            raise ValueError(f"timeout_us must be > 0, got {self.timeout_us}")
        if self.remote_stall_extra_us < 0:
            raise ValueError("remote_stall_extra_us must be >= 0")
        if self.media_error_latency_us <= 0:
            raise ValueError(
                f"media_error_latency_us must be > 0, "
                f"got {self.media_error_latency_us}"
            )
        object.__setattr__(self, "link_down", _windows(self.link_down))
        object.__setattr__(self, "prefetch_down", _windows(self.prefetch_down))
        object.__setattr__(self, "degraded", _epochs(self.degraded))
        object.__setattr__(self, "remote_stall", _windows(self.remote_stall))
        object.__setattr__(self, "remote_restart", _windows(self.remote_restart))
        object.__setattr__(
            self, "node_crash", tuple(float(t) for t in self.node_crash)
        )
        object.__setattr__(
            self, "node_rejoin", tuple(float(t) for t in self.node_rejoin)
        )
        if len(self.node_rejoin) > len(self.node_crash):
            raise ValueError(
                f"{len(self.node_rejoin)} node_rejoin times for only "
                f"{len(self.node_crash)} node_crash times"
            )
        for index, rejoin in enumerate(self.node_rejoin):
            if rejoin <= self.node_crash[index]:
                raise ValueError(
                    f"node_rejoin[{index}]={rejoin} must come after "
                    f"node_crash[{index}]={self.node_crash[index]}"
                )
        for crash in self.node_crash:
            if crash < 0:
                raise ValueError(f"node_crash times must be >= 0, got {crash}")

    @property
    def is_empty(self) -> bool:
        """True when the plan can never inject anything."""
        return (
            self.timeout_probability == 0.0
            and self.write_timeout_probability == 0.0
            and not self.link_down
            and not self.prefetch_down
            and not self.degraded
            and not self.remote_stall
            and not self.remote_restart
            and not self.node_crash
            and not self.has_corruption
        )

    @property
    def has_corruption(self) -> bool:
        """True when the plan can silently corrupt data (which arms the
        checksum-verify machinery on the demand and migration paths)."""
        return (
            self.bit_flip_read > 0.0
            or self.bit_flip_write > 0.0
            or self.media_error_rate > 0.0
        )

    # -- construction helpers ---------------------------------------------------------

    @classmethod
    def none(cls) -> "FaultPlan":
        return cls()

    @classmethod
    def chaos(cls, seed: int = 1) -> "FaultPlan":
        """The standard hostile-fabric preset: probabilistic drops on
        both READ paths, one long degraded epoch, two short link flaps,
        a remote-CPU stall, and one remote restart."""
        return cls(
            seed=seed,
            timeout_probability=0.05,
            write_timeout_probability=0.02,
            timeout_us=50.0,
            link_down=((20_000.0, 20_500.0), (60_000.0, 60_400.0)),
            degraded=((30_000.0, 45_000.0, 4.0),),
            remote_stall=((50_000.0, 55_000.0),),
            remote_stall_extra_us=25.0,
            remote_restart=((70_000.0, 70_400.0),),
        )

    @classmethod
    def crash(cls, seed: int = 1, at_us: float = 30_000.0) -> "FaultPlan":
        """One permanent node crash mid-run and nothing else: the
        cleanest way to exercise detect -> repair -> (maybe) lose."""
        return cls(seed=seed, node_crash=(at_us,))

    @classmethod
    def crash_rejoin(
        cls,
        seed: int = 1,
        at_us: float = 30_000.0,
        rejoin_us: float = 80_000.0,
    ) -> "FaultPlan":
        """A crash whose node is replaced (empty) later in the run, so
        the full DOWN -> repair -> REJOINING -> UP lifecycle runs."""
        return cls(seed=seed, node_crash=(at_us,), node_rejoin=(rejoin_us,))

    @classmethod
    def corruption(cls, seed: int = 1) -> "FaultPlan":
        """Silent corruption only: wire flips on both transfer
        directions plus latent media errors, with no loud faults at all
        — every wrong page the run serves would be *undetected* without
        checksum verification."""
        return cls(
            seed=seed,
            bit_flip_read=0.01,
            bit_flip_write=0.005,
            media_error_rate=0.05,
            media_error_latency_us=15_000.0,
        )

    @classmethod
    def corruption_chaos(cls, seed: int = 1) -> "FaultPlan":
        """The hostile-fabric preset with silent corruption layered on
        top: drops, flaps and stalls racing wire flips and media rot."""
        chaos = cls.chaos(seed)
        return replace(
            chaos,
            bit_flip_read=0.01,
            bit_flip_write=0.005,
            media_error_rate=0.05,
            media_error_latency_us=15_000.0,
        )

    #: Field -> converter used by :meth:`from_dict` so a malformed JSON
    #: plan fails naming the offending field, not with a bare TypeError.
    _FIELD_PARSERS = {
        "seed": int,
        "timeout_probability": float,
        "write_timeout_probability": float,
        "timeout_us": float,
        "link_down": _windows,
        "prefetch_down": _windows,
        "degraded": _epochs,
        "remote_stall": _windows,
        "remote_stall_extra_us": float,
        "remote_restart": _windows,
        "node_crash": lambda raw: tuple(float(t) for t in raw),
        "node_rejoin": lambda raw: tuple(float(t) for t in raw),
        "bit_flip_read": float,
        "bit_flip_write": float,
        "media_error_rate": float,
        "media_error_latency_us": float,
    }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        unknown = set(data) - set(cls._FIELD_PARSERS)
        if unknown:
            raise ValueError(f"unknown fault-plan keys: {sorted(unknown)}")
        parsed = {}
        for key, value in data.items():
            try:
                parsed[key] = cls._FIELD_PARSERS[key](value)
            except (TypeError, ValueError, IndexError) as error:
                raise ValueError(
                    f"fault-plan field {key!r} is malformed "
                    f"({value!r}): {error}"
                ) from None
        return cls(**parsed)

    @classmethod
    def from_json_file(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "timeout_probability": self.timeout_probability,
            "write_timeout_probability": self.write_timeout_probability,
            "timeout_us": self.timeout_us,
            "link_down": [[w.start_us, w.end_us] for w in self.link_down],
            "prefetch_down": [
                [w.start_us, w.end_us] for w in self.prefetch_down
            ],
            "degraded": [
                [e.start_us, e.end_us, e.factor] for e in self.degraded
            ],
            "remote_stall": [[w.start_us, w.end_us] for w in self.remote_stall],
            "remote_stall_extra_us": self.remote_stall_extra_us,
            "remote_restart": [[w.start_us, w.end_us] for w in self.remote_restart],
            "node_crash": list(self.node_crash),
            "node_rejoin": list(self.node_rejoin),
            "bit_flip_read": self.bit_flip_read,
            "bit_flip_write": self.bit_flip_write,
            "media_error_rate": self.media_error_rate,
            "media_error_latency_us": self.media_error_latency_us,
        }


# -- the executor ---------------------------------------------------------------------


class FaultInjector:
    """Executes a :class:`FaultPlan` against the fabric and remote node.

    Holds its own seeded RNG (independent of the fabric's jitter RNG, so
    arming a plan does not perturb the clean latency sequence) and the
    injection counters surfaced into ``RunResult``.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        # Corruption coins come from their own stream so arming (or
        # re-tuning) corruption never perturbs the timeout/drop sequence
        # existing chaos results are pinned to.
        self._corrupt_rng = random.Random(plan.seed ^ 0xC0FFEE)
        self.timeouts_injected = 0
        self.drops_by_kind: Dict[str, int] = {}
        self.link_down_drops = 0
        self.prefetch_down_drops = 0
        self.degraded_transfers = 0
        self.remote_stalls = 0
        self.remote_unavailable = 0
        self.crash_refusals = 0
        self.bit_flips_injected = 0
        self.media_errors_injected = 0

    # -- fabric hooks -----------------------------------------------------------------

    def check_transfer(self, now_us: float, kind: str) -> None:
        """Raise :class:`TransferTimeout` when this transfer is dropped
        (dead node, link-down window, or the per-transfer seeded coin)."""
        if self.node_dead(now_us):
            self.crash_refusals += 1
            self._count_drop(kind)
            raise RemoteUnavailableError(kind, now_us, self.plan.timeout_us)
        for window in self.plan.link_down:
            if window.contains(now_us):
                self.link_down_drops += 1
                self._count_drop(kind)
                raise TransferTimeout(kind, now_us, self.plan.timeout_us)
        if kind == "prefetch":
            for window in self.plan.prefetch_down:
                if window.contains(now_us):
                    self.prefetch_down_drops += 1
                    self._count_drop(kind)
                    raise TransferTimeout(kind, now_us, self.plan.timeout_us)
        probability = (
            self.plan.write_timeout_probability
            if kind == "write"
            else self.plan.timeout_probability
        )
        if probability and self._rng.random() < probability:
            self._count_drop(kind)
            raise TransferTimeout(kind, now_us, self.plan.timeout_us)

    def latency_factor(self, now_us: float) -> float:
        """Propagation multiplier from any active degraded epoch."""
        factor = 1.0
        for epoch in self.plan.degraded:
            if epoch.contains(now_us):
                factor *= epoch.factor
        if factor > 1.0:
            self.degraded_transfers += 1
        return factor

    # -- silent-corruption hooks ------------------------------------------------------

    def corrupt_read(self, now_us: float) -> bool:
        """Seeded coin: did this READ payload arrive with a flipped bit?
        Transient — the stored copy is untouched."""
        p = self.plan.bit_flip_read
        if p and self._corrupt_rng.random() < p:
            self.bit_flips_injected += 1
            return True
        return False

    def corrupt_write(self, now_us: float) -> bool:
        """Seeded coin: did this WRITE land a corrupted stored copy?"""
        p = self.plan.bit_flip_write
        if p and self._corrupt_rng.random() < p:
            self.bit_flips_injected += 1
            return True
        return False

    def media_strike_us(
        self, slot: int, write_index: int, now_us: float
    ) -> Optional[float]:
        """The future time at which this freshly-written copy silently
        rots, or None if it never does.  A pure function of (plan seed,
        slot, write index) — independent of the shared coin streams —
        so identical writes rot identically regardless of interleaving.
        """
        rate = self.plan.media_error_rate
        if not rate:
            return None
        rng = random.Random(
            (self.plan.seed * 1_000_003 + slot) * 1_000_003 + write_index
        )
        if rng.random() >= rate:
            return None
        self.media_errors_injected += 1
        return now_us + rng.random() * self.plan.media_error_latency_us

    # -- remote-node hooks ------------------------------------------------------------

    def node_dead(self, now_us: float) -> bool:
        """True while a permanent crash holds: some ``node_crash[i]`` has
        struck and its paired ``node_rejoin[i]`` (if any) has not."""
        for index, crash in enumerate(self.plan.node_crash):
            if crash <= now_us:
                rejoins = self.plan.node_rejoin
                if index >= len(rejoins) or now_us < rejoins[index]:
                    return True
        return False

    def check_remote(self, now_us: float) -> None:
        """Raise :class:`RemoteUnavailableError` during restart windows
        and after a permanent crash (until its rejoin, if any)."""
        if self.node_dead(now_us):
            self.crash_refusals += 1
            raise RemoteUnavailableError("remote", now_us, self.plan.timeout_us)
        for window in self.plan.remote_restart:
            if window.contains(now_us):
                self.remote_unavailable += 1
                raise RemoteUnavailableError("remote", now_us, self.plan.timeout_us)

    def remote_delay_us(self, now_us: float) -> float:
        """Extra service delay while the remote node's CPU is stalled."""
        for window in self.plan.remote_stall:
            if window.contains(now_us):
                self.remote_stalls += 1
                return self.plan.remote_stall_extra_us
        return 0.0

    # -- bookkeeping ------------------------------------------------------------------

    def _count_drop(self, kind: str) -> None:
        self.timeouts_injected += 1
        self.drops_by_kind[kind] = self.drops_by_kind.get(kind, 0) + 1
