"""Typed events and the bus that carries them.

The telemetry subsystem is event-sourced: instrumented components
(the machine's swap path, the HoPP execution engine, the cluster's
health monitor and repair engine, each node's RDMA fabric) emit small
typed events onto one :class:`EventBus` per run, and the consumers —
the windowed time-series engine and the trace-timeline recorder —
subscribe to it.  Producers never know who is listening, which is what
keeps the probe sites one guarded call each.

Overhead contract (docs/architecture.md §12): events fire only on the
*fault path* — demand faults, prefetch lifecycle steps, retries,
recovery — never per resident-hit access, so an enabled bus costs
O(remote traffic), not O(trace length).  With telemetry disabled no bus
exists at all: every probe site is a ``None`` check and the machine's
resident-hit fast path is untouched.

Event taxonomy
--------------

====================== ==============================================
kind                   emitted when / payload
====================== ==============================================
``demand_fault``       a major fault resolved over RDMA (or by
                       zero-fill); ``pid, vpn, wait_us, cost_us,
                       zero_filled``
``prefetch_issue``     a prefetch READ left the machine;
                       ``pid, vpn, tier, arrival_us`` (``arrival_us``
                       is -1 when the transfer was dropped; batch
                       drops carry ``n`` pages in one event)
``prefetch_land``      a prefetched page arrived; ``pid, vpn, tier``
``prefetch_hit``       first app touch of a prefetched page;
                       ``pid, vpn, tier, where`` (dram / swapcache /
                       inflight)
``prefetch_drop``      an injected fault dropped a prefetch READ;
                       ``tier, n``
``prefetch_unused``    a prefetched page was evicted without ever
                       being hit; ``pid, vpn, tier``
``prefetch_gate``      the circuit breaker suppressed a request
``retry``              a synchronous transfer re-issued after a
                       timeout; ``op`` (demand / writeback), ``node``
``fabric_read``        ``n`` page READs issued on a node's link;
                       ``n``
``fabric_write``       one page WRITE issued on a node's link
``fetch_latency``      a READ completed; ``latency_us`` (sampled into
                       the per-epoch latency histogram)
``timeliness``         a prefetch first-hit closed its lifecycle;
                       ``t_us`` = first hit - arrival
``node_state``         a health-monitor transition; ``node, frm, to``
``repair``             the repair engine finished one page copy;
                       ``task`` (replicate / evacuate), ``slot``
``cache_invalidate``   a swapcache entry was dropped by reclaim;
                       ``pid, vpn``
``memtier_pool_read``  a demand fault was served by a pooled CXL-tier
                       node; ``node, pid, vpn``
``memtier_far_read``   a demand fault was served by an RDMA far-tier
                       node; ``node, pid, vpn``
``memtier_promote``    the migration engine moved a hot page from the
                       far tier into the pool; ``slot, node, pid, vpn``
``memtier_demote``     the migration engine moved a cold pool page to
                       the far tier; ``slot, node, pid, vpn``
``corruption``         a copy failed checksum verification;
                       ``slot, node, source`` (demand / scrub /
                       migration / resolve)
``corrupt_repair``     ``n`` detected copies resolved from a clean
                       replica; ``slot, node, n``
``poison``             a slot with no clean copy was poisoned
                       (CXL poison semantics); ``slot, n`` condemned
                       copies
``scrub``              the patrol scrubber audited one stored copy;
                       ``slot, node``
====================== ==============================================

The ``memtier_*`` kinds describe *memory* tiers (where a page lives:
pool vs far — :mod:`repro.memtier`); the ``tier`` *field* on prefetch
events names a HoPP SSP/LSP/RSP *prefetch* tier
(:mod:`repro.hopp.three_tier`).  The prefix keeps the two vocabularies
apart in every exported series and counter.
"""

from __future__ import annotations

from typing import Callable, Dict, List

EV_DEMAND_FAULT = "demand_fault"
EV_PREFETCH_ISSUE = "prefetch_issue"
EV_PREFETCH_LAND = "prefetch_land"
EV_PREFETCH_HIT = "prefetch_hit"
EV_PREFETCH_DROP = "prefetch_drop"
EV_PREFETCH_UNUSED = "prefetch_unused"
EV_PREFETCH_GATE = "prefetch_gate"
EV_RETRY = "retry"
EV_FABRIC_READ = "fabric_read"
EV_FABRIC_WRITE = "fabric_write"
EV_FETCH_LATENCY = "fetch_latency"
EV_TIMELINESS = "timeliness"
EV_NODE_STATE = "node_state"
EV_REPAIR = "repair"
EV_CACHE_INVALIDATE = "cache_invalidate"
EV_MEMTIER_POOL_READ = "memtier_pool_read"
EV_MEMTIER_FAR_READ = "memtier_far_read"
EV_MEMTIER_PROMOTE = "memtier_promote"
EV_MEMTIER_DEMOTE = "memtier_demote"
EV_CORRUPTION = "corruption"
EV_CORRUPT_REPAIR = "corrupt_repair"
EV_POISON = "poison"
EV_SCRUB = "scrub"

#: The closed set of event kinds; the bus rejects anything else so a
#: typo'd probe fails loudly in tests instead of vanishing silently.
EVENT_KINDS = frozenset(
    {
        EV_DEMAND_FAULT,
        EV_PREFETCH_ISSUE,
        EV_PREFETCH_LAND,
        EV_PREFETCH_HIT,
        EV_PREFETCH_DROP,
        EV_PREFETCH_UNUSED,
        EV_PREFETCH_GATE,
        EV_RETRY,
        EV_FABRIC_READ,
        EV_FABRIC_WRITE,
        EV_FETCH_LATENCY,
        EV_TIMELINESS,
        EV_NODE_STATE,
        EV_REPAIR,
        EV_CACHE_INVALIDATE,
        EV_MEMTIER_POOL_READ,
        EV_MEMTIER_FAR_READ,
        EV_MEMTIER_PROMOTE,
        EV_MEMTIER_DEMOTE,
        EV_CORRUPTION,
        EV_CORRUPT_REPAIR,
        EV_POISON,
        EV_SCRUB,
    }
)

#: Subscriber signature: (kind, ts_us, fields).  The fields dict is
#: owned by the bus for the duration of the dispatch only — consumers
#: that retain it must copy.
Subscriber = Callable[[str, float, Dict[str, object]], None]


class EventBus:
    """One per instrumented run; producers emit, consumers subscribe."""

    __slots__ = ("_subscribers", "events_emitted")

    def __init__(self) -> None:
        self._subscribers: List[Subscriber] = []
        self.events_emitted = 0

    def subscribe(self, subscriber: Subscriber) -> None:
        self._subscribers.append(subscriber)

    def emit(self, kind: str, ts_us: float, **fields: object) -> None:
        """Dispatch one event to every subscriber, in subscribe order."""
        self.dispatch(kind, ts_us, fields)

    def dispatch(self, kind: str, ts_us: float, fields: Dict[str, object]) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        self.events_emitted += 1
        for subscriber in self._subscribers:
            subscriber(kind, ts_us, fields)
