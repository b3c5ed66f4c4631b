"""Page placement policies for the remote-memory cluster.

A placement policy decides which node receives the primary copy of a
page at writeback time (replicas, when configured, follow in ring order
after the primary — see :mod:`repro.cluster.cluster`).  Policies are
deterministic functions of (pid, vpn, slot) plus whatever state the
policy itself accumulates, so cluster runs stay exactly as reproducible
as single-node runs.

Three built-ins:

* ``interleave`` — round-robin in swap-slot order.  Slots are allocated
  monotonically in eviction order, so this spreads writeback batches
  evenly across every link; it is also the identity placement on a
  1-node cluster, which is what the single-node-equivalence invariant
  rests on.
* ``hash`` — a stateless mix of (pid, vpn), so a page that is evicted,
  faulted back, and evicted again lands on the same node every time.
* ``affinity`` — co-locate each process's pages on the fewest nodes: a
  pid gets the least-loaded node as its home on first writeback and
  sticks to it, spilling to the next node in ring order only when the
  home runs out of room.  Keeps scatter-gather prefetch batches on one
  link.

Plus the memory-tier policy (:mod:`repro.memtier`):

* ``tiered`` — on a cluster whose nodes carry memory-tier labels, hot
  pages (per the migration engine's hotness ledger) go to the
  least-loaded pooled CXL node with room; everything else prefers the
  pool up to its high watermark (the pool is the *near* tier) and
  spills to the far tier in interleave order.  On an untiered cluster
  it degrades to plain ``interleave``.

Registry errors are typed: :class:`UnknownPlacementError` for lookups
of unregistered names, :class:`DuplicatePlacementError` for
re-registrations — both list the available names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.cluster.cluster import RemoteMemoryCluster


class UnknownPlacementError(KeyError):
    """Lookup of a placement name that is not registered.

    Subclasses :class:`KeyError` so pre-existing ``except KeyError``
    callers keep working; carries the requested name and the sorted
    known names."""

    def __init__(self, name: str, known: Iterable[str]) -> None:
        known = tuple(sorted(known))
        super().__init__(
            f"unknown placement {name!r}; known: {', '.join(known)}"
        )
        self.name = name
        self.known = known


class DuplicatePlacementError(ValueError):
    """``register_placement`` of a name that is already taken."""

    def __init__(self, name: str, known: Iterable[str]) -> None:
        known = tuple(sorted(known))
        super().__init__(
            f"placement {name!r} is already registered; "
            f"known: {', '.join(known)}"
        )
        self.name = name
        self.known = known


class PlacementPolicy:
    """Maps a page being written back to the node holding its primary
    copy.  Instances may be stateful and belong to exactly one cluster."""

    name = "base"

    def place(
        self, pid: int, vpn: int, slot: int, cluster: "RemoteMemoryCluster"
    ) -> int:
        raise NotImplementedError


class InterleavePlacement(PlacementPolicy):
    """Round-robin in slot-allocation (i.e. eviction) order."""

    name = "interleave"

    def place(
        self, pid: int, vpn: int, slot: int, cluster: "RemoteMemoryCluster"
    ) -> int:
        return slot % cluster.node_count


class HashPlacement(PlacementPolicy):
    """Stateless deterministic hash of (pid, vpn): a page keeps its node
    across re-evictions regardless of slot churn."""

    name = "hash"

    def place(
        self, pid: int, vpn: int, slot: int, cluster: "RemoteMemoryCluster"
    ) -> int:
        # Knuth-style multiplicative mix; Python's builtin hash() is
        # avoided so placement never depends on PYTHONHASHSEED.
        mixed = (pid * 1_000_003) ^ (vpn * 2_654_435_761)
        return mixed % cluster.node_count


class AffinityPlacement(PlacementPolicy):
    """Co-locate a process's pages on the fewest nodes.

    The home node is chosen least-loaded-first when the pid writes back
    its first page; later pages follow the home and spill in ring order
    only when it has no free capacity.
    """

    name = "affinity"

    def __init__(self) -> None:
        self._home: Dict[int, int] = {}

    def place(
        self, pid: int, vpn: int, slot: int, cluster: "RemoteMemoryCluster"
    ) -> int:
        home = self._home.get(pid)
        if home is None:
            home = min(
                range(cluster.node_count),
                key=lambda n: (cluster.node_load(n), n),
            )
            self._home[pid] = home
        for hop in range(cluster.node_count):
            candidate = (home + hop) % cluster.node_count
            if cluster.has_room(candidate):
                return candidate
        # Every node is full; return home and let the node's own
        # capacity check raise, exactly like the single-node path.
        return home


class TieredPlacement(PlacementPolicy):
    """Memory-tier-aware placement (see :mod:`repro.memtier`).

    Hot pages — per the migration engine's ledger, exposed on the
    cluster as ``memtier_hot`` — take the least-loaded pooled node with
    hard room.  Cold pages also prefer the pool (it is the near tier)
    but only up to the high watermark, leaving headroom for hot pages;
    past it they interleave across the far tier.  When every node of
    the preferred tier is full the page spills to the other tier, and
    only a completely full cluster falls through to the far primary so
    the node's own capacity check raises, like the single-node path.
    """

    name = "tiered"

    def place(
        self, pid: int, vpn: int, slot: int, cluster: "RemoteMemoryCluster"
    ) -> int:
        tiers = cluster.node_tiers
        if not tiers:
            # Untiered cluster: behave exactly like interleave.
            return slot % cluster.node_count
        pool = [n for n, t in enumerate(tiers) if t == "pool"]
        far = [n for n, t in enumerate(tiers) if t == "far"]
        if not pool or not far:
            only = pool or far
            return only[slot % len(only)]
        hot_fn = cluster.memtier_hot
        if hot_fn is not None and hot_fn(pid, vpn):
            candidates = [n for n in pool if cluster.has_room(n)]
            if candidates:
                return min(candidates, key=lambda n: (cluster.node_load(n), n))
        high_fraction = cluster.memtier_config.pool_high_watermark
        start = slot % len(pool)
        for hop in range(len(pool)):
            node_id = pool[(start + hop) % len(pool)]
            remote = cluster.nodes[node_id].remote
            high = max(int(high_fraction * remote.capacity_pages), 1)
            if remote.pages_stored < high:
                return node_id
        start = slot % len(far)
        for hop in range(len(far)):
            node_id = far[(start + hop) % len(far)]
            if cluster.has_room(node_id):
                return node_id
        # Watermarked pool, full far tier: take any hard pool room left.
        for node_id in pool:
            if cluster.has_room(node_id):
                return node_id
        return far[slot % len(far)]


_PLACEMENTS: Dict[str, Type[PlacementPolicy]] = {
    InterleavePlacement.name: InterleavePlacement,
    HashPlacement.name: HashPlacement,
    AffinityPlacement.name: AffinityPlacement,
    TieredPlacement.name: TieredPlacement,
}


def build_placement(name: str) -> PlacementPolicy:
    """Instantiate a placement policy; raises with the known names."""
    cls = _PLACEMENTS.get(name)
    if cls is None:
        raise UnknownPlacementError(name, _PLACEMENTS)
    return cls()


def placement_names() -> list:
    return sorted(_PLACEMENTS)


def register_placement(cls: Type[PlacementPolicy]) -> None:
    """Extension point: add a custom placement policy.  Re-registering
    a taken name raises :class:`DuplicatePlacementError` — silently
    shadowing a built-in would corrupt every config that names it."""
    if cls.name in _PLACEMENTS:
        raise DuplicatePlacementError(cls.name, _PLACEMENTS)
    _PLACEMENTS[cls.name] = cls
