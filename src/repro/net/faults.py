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
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple


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


def _times(raw: Sequence) -> Tuple[float, ...]:
    return tuple(float(t) for t in raw)


def _dump_windows(windows: Tuple[Window, ...]) -> List[List[float]]:
    return [[w.start_us, w.end_us] for w in windows]


def _dump_epochs(epochs: Tuple[DegradedEpoch, ...]) -> List[List[float]]:
    return [[e.start_us, e.end_us, e.factor] for e in epochs]


def _json(default, parse: Callable, dump: Optional[Callable] = None, injects: bool = False):
    """A :class:`FaultPlan` field and its JSON form, declared once.

    ``parse`` reads the field's JSON value in :meth:`FaultPlan.from_dict`
    and also normalizes the field when the plan is built, so a plan
    writes the same bytes as its JSON round trip (``timeout_us=40`` is
    stored and written as ``40.0``).  ``dump`` writes a collection field
    back to JSON; a scalar (``dump`` None) is written as stored.
    ``injects`` marks a field whose non-default value arms the plan.
    """
    return field(
        default=default,
        metadata={"parse": parse, "dump": dump, "injects": injects},
    )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative schedule of fabric and remote-node faults.

    An all-defaults plan injects nothing; ``Machine`` treats it exactly
    like no plan at all, so baseline numbers are untouched.
    """

    seed: int = _json(0, int)
    #: Per-READ chance (demand and prefetch alike) of a dropped completion.
    timeout_probability: float = _json(0.0, float, injects=True)
    #: Per-WRITE chance (reclaim writeback) of a dropped completion.
    write_timeout_probability: float = _json(0.0, float, injects=True)
    #: Time the issuer waits before declaring a transfer dead (the CQE
    #: timeout); charged as wasted latency per drop.
    timeout_us: float = _json(50.0, float)
    #: Link flaps: every transfer issued inside one of these times out.
    link_down: Tuple[Window, ...] = _json((), _windows, _dump_windows, injects=True)
    #: Bulk-QP brownouts: windows during which only *prefetch* reads are
    #: dropped — the priority (demand) QP and writebacks stay up.  This
    #: is the fault that exercises the prefetch circuit breaker without
    #: stalling the critical path.
    prefetch_down: Tuple[Window, ...] = _json((), _windows, _dump_windows, injects=True)
    #: Latency-degradation epochs (propagation multiplied by ``factor``).
    degraded: Tuple[DegradedEpoch, ...] = _json((), _epochs, _dump_epochs, injects=True)
    #: Remote-node stall windows (fixed extra service delay per access).
    remote_stall: Tuple[Window, ...] = _json((), _windows, _dump_windows, injects=True)
    remote_stall_extra_us: float = _json(20.0, float)
    #: Remote-node restart windows (node answers nothing).
    remote_restart: Tuple[Window, ...] = _json((), _windows, _dump_windows, injects=True)
    #: Permanent-crash timestamps: from ``node_crash[i]`` on, the node
    #: struck by crash *i* answers nothing and its stored pages are lost.
    #: On a cluster, crash *i* lands on node ``i % nodes`` (like windows).
    node_crash: Tuple[float, ...] = _json((), _times, list, injects=True)
    #: Optional rejoin timestamps, paired by index with ``node_crash``:
    #: ``node_rejoin[i]`` re-admits the node struck by crash *i* — empty,
    #: as a fresh machine racked in to replace the dead one.  Fewer
    #: rejoins than crashes means the unpaired crashes are forever.
    node_rejoin: Tuple[float, ...] = _json((), _times, list)
    #: Per-READ chance the payload arrives with a flipped bit.  Transient
    #: wire corruption: the stored copy is fine, a re-read from the same
    #: node comes back clean.
    bit_flip_read: float = _json(0.0, float, injects=True)
    #: Per-WRITE chance the payload lands corrupted.  Persistent: the
    #: stored copy is bad until it is overwritten or repaired.
    bit_flip_write: float = _json(0.0, float, injects=True)
    #: Per-stored-copy chance of a latent media error: the copy is clean
    #: at write time and silently rots at a deterministic later strike
    #: time, uniform in ``(write, write + media_error_latency_us)``.
    media_error_rate: float = _json(0.0, float, injects=True)
    media_error_latency_us: float = _json(20_000.0, float)

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
        for spec in fields(self):
            value = spec.metadata["parse"](getattr(self, spec.name))
            object.__setattr__(self, spec.name, value)
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
        return all(
            getattr(self, spec.name) == spec.default
            for spec in fields(self)
            if spec.metadata["injects"]
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

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        """Read a plan's JSON form; a malformed field fails naming the
        field, not with a bare TypeError."""
        parsers = {spec.name: spec.metadata["parse"] for spec in fields(cls)}
        unknown = set(data) - set(parsers)
        if unknown:
            raise ValueError(f"unknown fault-plan keys: {sorted(unknown)}")
        parsed = {}
        for key, value in data.items():
            try:
                parsed[key] = parsers[key](value)
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
        out = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            dump = spec.metadata["dump"]
            out[spec.name] = value if dump is None else dump(value)
        return out


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
        self.link_down_drops = 0
        self.prefetch_down_drops = 0
        self.degraded_transfers = 0
        self.bit_flips_injected = 0
        self.media_errors_injected = 0

    # -- fabric hooks -----------------------------------------------------------------

    def check_transfer(self, now_us: float, kind: str) -> None:
        """Raise :class:`TransferTimeout` when this transfer is dropped
        (dead node, link-down window, or the per-transfer seeded coin)."""
        if self.node_dead(now_us):
            raise RemoteUnavailableError(kind, now_us, self.plan.timeout_us)
        for window in self.plan.link_down:
            if window.contains(now_us):
                self.link_down_drops += 1
                raise TransferTimeout(kind, now_us, self.plan.timeout_us)
        if kind == "prefetch":
            for window in self.plan.prefetch_down:
                if window.contains(now_us):
                    self.prefetch_down_drops += 1
                    raise TransferTimeout(kind, now_us, self.plan.timeout_us)
        probability = (
            self.plan.write_timeout_probability
            if kind == "write"
            else self.plan.timeout_probability
        )
        if probability and self._rng.random() < probability:
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
            raise RemoteUnavailableError("remote", now_us, self.plan.timeout_us)
        for window in self.plan.remote_restart:
            if window.contains(now_us):
                raise RemoteUnavailableError("remote", now_us, self.plan.timeout_us)

    def remote_delay_us(self, now_us: float) -> float:
        """Extra service delay while the remote node's CPU is stalled."""
        for window in self.plan.remote_stall:
            if window.contains(now_us):
                return self.plan.remote_stall_extra_us
        return 0.0
