"""Runtime cross-layer invariant checking (opt-in).

The machine's correctness rests on its structures agreeing at all
times: the frame allocator, the per-process page tables, the swap-slot
space, the cluster's slot directory, the per-node page stores, each
cgroup's LRU list and HoPP's reverse page table.
Each layer keeps itself consistent; nothing verified that they agree
*with each other* — exactly the kind of drift that a crash-repair
cycle, a failover, or a re-route could silently introduce.

:class:`InvariantSanitizer` walks all of them and raises a
typed :class:`InvariantViolation` naming the **first** inconsistency
(like a kernel's ``CONFIG_DEBUG_VM``, it fails loudly at the point of
corruption instead of letting it surface as a wrong metric three
subsystems later).  ``Machine`` runs it at epoch boundaries (every
``SANITIZER_INTERVAL_ACCESSES`` references) and after every recovery
event when ``RunEnv.check_invariants`` is set; the CLI flag is
``--check-invariants``.

The checks (all must hold between accesses, never mid-fault):

1. **Frames <-> page tables** — every PTE in a frame-holding state
   (PRESENT / SWAPCACHE / INFLIGHT) owns exactly the frame the
   allocator says it does; no two PTEs share a frame; no allocated
   frame is orphaned; non-resident states hold no frame.
2. **Page tables <-> swap slots** — every REMOTE PTE names a live slot
   that maps back to the same (pid, vpn); every live slot maps to a
   PTE in a slot-holding state (REMOTE / SWAPCACHE / INFLIGHT) that
   names it.
3. **Swap slots <-> directory** — every live slot either has directory
   holders or is marked lost (and never both), and every lost mark
   names a live slot: a release path that forgot its mark would show
   here.  A stale poison mark is check 6's finding.
4. **Directory <-> stores** — every holder listed for a slot actually
   stores the page, and every page a node stores is listed in the
   directory (no phantom and no orphan copies), with a carve-out for
   holders on nodes whose permanent crash has not been *detected* yet
   (their store still answers, so they are consistent by construction).
5. **Residency accounting** — cgroup accounting agrees with the frame
   allocator: the cgroups' resident pages (charged plus uncharged
   prefetches) sum to the frames in use, and every node's slot
   accounting conserves.
6. **Integrity bookkeeping** — every poisoned slot still has directory
   holders (poison means the data *exists* but is known-bad; loss
   replaces the mark, so no slot is both); every deviant
   checksum-ledger entry names a slot its node actually stores; and the
   integrity controller's ledger arithmetic is closed (every detected
   corruption ended repaired, unresolved, or condemned by a poisoning).
7. **LRU <-> page tables** — every PRESENT or SWAPCACHE page is on the
   LRU of the cgroup its page table names, and nothing else is on any
   cgroup's LRU: the batch kernel's LRU touches and eviction's removal
   take no membership test.  A SWAPCACHE PTE is the page's swapcache
   membership; nothing else records it.
8. **RPT <-> page tables** — on a HoPP machine, whose RPT cache every
   page table writes through, each PRESENT page's frame resolves to its
   ``(pid, vpn)`` (from its RPT cache line, else the DRAM RPT), and no
   other frame resolves to a mapping.  The check reads the cache's sets
   and the DRAM RPT directly: no LRU order or lookup counter moves.
9. **Prefetch bookkeeping <-> page tables** — every pending prefetch
   arrival names an INFLIGHT page due at the arrival's time, each
   INFLIGHT page has exactly one, and every SWAPCACHE or INFLIGHT page
   carries ``prefetched``: landing takes no state test, and the first
   hit of a swapcache or in-flight page no ``prefetched`` test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.cluster import LOST, POISONED
from repro.kernel.page_table import PteState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.sim.machine import Machine

#: PTE states that hold a local frame.
_FRAME_STATES = (PteState.PRESENT, PteState.SWAPCACHE, PteState.INFLIGHT)
#: PTE states that keep a remote swap slot alive.
_SLOT_STATES = (PteState.REMOTE, PteState.SWAPCACHE, PteState.INFLIGHT)
#: PTE states whose pages sit on their cgroup's LRU.
_LRU_STATES = (PteState.PRESENT, PteState.SWAPCACHE)
#: PTE states only a prefetch not yet hit holds.
_PREFETCH_STATES = (PteState.SWAPCACHE, PteState.INFLIGHT)
#: Accesses between epoch sweeps (``RunEnv.check_invariants``).
SANITIZER_INTERVAL_ACCESSES = 2000


class InvariantViolation(AssertionError):
    """A cross-layer consistency check failed; the message names the
    first inconsistent structure and the page/slot/frame involved."""


def _fail(check: str, detail: str) -> None:
    raise InvariantViolation(f"[{check}] {detail}")


class InvariantSanitizer:
    """Stateless cross-checker over one machine's structures."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.checks_run = 0

    def check(self) -> None:
        """Run every invariant; raises :class:`InvariantViolation` on
        the first failure, returns quietly otherwise."""
        self.checks_run += 1
        self._check_frames_vs_page_tables()
        self._check_page_tables_vs_swap()
        self._check_swap_vs_directory()
        self._check_directory_vs_stores()
        self._check_residency()
        self._check_integrity()
        self._check_lru()
        self._check_rpt()
        self._check_prefetches()

    # -- 1: frames <-> page tables -----------------------------------------------------

    def _check_frames_vs_page_tables(self) -> None:
        machine = self.machine
        seen_frames = {}
        for pid, table in machine._page_tables.items():
            for vpn, pte in table._entries.items():
                if pte.state in _FRAME_STATES:
                    if pte.ppn < 0:
                        _fail(
                            "frames",
                            f"(pid={pid}, vpn={vpn}) is {pte.state.name} "
                            f"but holds no frame",
                        )
                    owner = machine.frames.owner(pte.ppn)
                    if owner != (pid, vpn):
                        _fail(
                            "frames",
                            f"frame {pte.ppn} mapped by (pid={pid}, "
                            f"vpn={vpn}) but allocator says owner is "
                            f"{owner}",
                        )
                    if pte.ppn in seen_frames:
                        _fail(
                            "frames",
                            f"frame {pte.ppn} shared by "
                            f"{seen_frames[pte.ppn]} and (pid={pid}, "
                            f"vpn={vpn})",
                        )
                    seen_frames[pte.ppn] = (pid, vpn)
                elif pte.ppn != -1:
                    _fail(
                        "frames",
                        f"(pid={pid}, vpn={vpn}) is {pte.state.name} but "
                        f"still references frame {pte.ppn}",
                    )
        if len(seen_frames) != machine.frames.used:
            _fail(
            "frames",
                f"{machine.frames.used} frames allocated but "
                f"{len(seen_frames)} referenced by page tables",
            )

    # -- 2: page tables <-> swap slots -------------------------------------------------

    def _check_page_tables_vs_swap(self) -> None:
        machine = self.machine
        swap = machine.swap_space
        for pid, table in machine._page_tables.items():
            for vpn, pte in table._entries.items():
                if pte.state is PteState.REMOTE:
                    if pte.swap_slot is None or pte.swap_slot < 0:
                        _fail(
                            "swap",
                            f"(pid={pid}, vpn={vpn}) is REMOTE with no "
                            f"swap slot",
                        )
                    page = swap.page_at(pte.swap_slot)
                    if page != (pid, vpn):
                        _fail(
                            "swap",
                            f"slot {pte.swap_slot} claimed by (pid={pid}, "
                            f"vpn={vpn}) but swap space maps it to {page}",
                        )
        for slot, (pid, vpn) in swap._slot_to_page.items():
            table = machine._page_tables.get(pid)
            pte = table.peek(vpn) if table is not None else None
            if pte is None or pte.state not in _SLOT_STATES:
                state = pte.state.name if pte is not None else "missing"
                _fail(
                    "swap",
                    f"slot {slot} maps to (pid={pid}, vpn={vpn}) whose "
                    f"PTE is {state}",
                )
            if pte.swap_slot != slot:
                _fail(
                    "swap",
                    f"slot {slot} maps to (pid={pid}, vpn={vpn}) but its "
                    f"PTE names slot {pte.swap_slot}",
                )

    # -- 3: swap slots <-> directory ---------------------------------------------------

    def _check_swap_vs_directory(self) -> None:
        machine = self.machine
        cluster = machine.cluster
        for slot in machine.swap_space._slot_to_page:
            has_holders = bool(cluster.holders_of(slot))
            lost = cluster.is_lost(slot)
            if has_holders and lost:
                _fail(
                    "directory",
                    f"slot {slot} is marked lost but still has holders "
                    f"{cluster.holders_of(slot)}",
                )
            if not has_holders and not lost:
                _fail(
                    "directory",
                    f"slot {slot} is live in swap space but has no "
                    f"directory entry and is not marked lost",
                )
        for slot in cluster.slots_in_directory():
            if machine.swap_space.page_at(slot) is None:
                _fail(
                    "directory",
                    f"directory lists slot {slot} which swap space does "
                    f"not know",
                )
        for slot, mark in cluster.unreadable.items():
            if mark == LOST and machine.swap_space.page_at(slot) is None:
                _fail(
                    "directory",
                    f"slot {slot} is marked lost but swap space does not "
                    f"know it",
                )

    # -- 4: directory <-> per-node stores ----------------------------------------------

    def _check_directory_vs_stores(self) -> None:
        cluster = self.machine.cluster
        for slot in cluster.slots_in_directory():
            for node_id in cluster.holders_of(slot):
                node = cluster.nodes[node_id]
                if not node.remote.holds(slot):
                    # A holder whose node crashed but whose crash the
                    # monitor has not detected yet is allowed: the wipe
                    # happens at detection.
                    injector = node.injector
                    if injector is not None and injector.node_dead(
                        self.machine.now_us
                    ):
                        continue
                    _fail(
                        "stores",
                        f"directory lists node {node_id} for slot {slot} "
                        f"but the node does not store it",
                    )
        for node in cluster.nodes:
            for slot in node.remote._slots:
                if node.node_id not in cluster.holders_of(slot):
                    _fail(
                        "stores",
                        f"node {node.node_id} stores slot {slot} which "
                        f"the directory does not credit to it",
                    )

    # -- 5: residency accounting -------------------------------------------------------

    def _check_residency(self) -> None:
        machine = self.machine
        resident = sum(cgroup.resident for cgroup in machine.cgroups)
        if resident != machine.frames.used:
            _fail(
                "residency",
                f"cgroups count {resident} resident pages but "
                f"{machine.frames.used} frames are allocated",
            )
        for node in machine.cluster.nodes:
            if not node.remote.conserved:
                _fail(
                    "residency",
                    f"node {node.node_id} slot accounting does not "
                    f"conserve: {node.stats_snapshot()['remote']}",
                )

    # -- 6: integrity bookkeeping ------------------------------------------------------

    def _check_integrity(self) -> None:
        machine = self.machine
        cluster = machine.cluster
        for slot, mark in cluster.unreadable.items():
            if mark == POISONED and not cluster.holders_of(slot):
                _fail(
                    "integrity",
                    f"slot {slot} is poisoned but has no directory "
                    f"holders (poisoned data must still exist)",
                )
        for node in cluster.nodes:
            for slot in node.remote.checksums.tracked_slots():
                if not node.remote.holds(slot):
                    _fail(
                        "integrity",
                        f"node {node.node_id} checksum ledger tracks "
                        f"slot {slot} which the node does not store",
                    )
        controller = machine.backend.integrity
        if controller is not None and not controller.balanced:
            _fail(
                "integrity",
                f"corruption ledger does not balance: "
                f"detected={controller.corruption_detected} != "
                f"repaired={controller.corruption_repaired} + "
                f"unresolved={controller.corruption_unresolved} + "
                f"condemned={controller.poisoned_copies}",
            )

    # -- 7: LRU <-> page tables --------------------------------------------------------

    def _check_lru(self) -> None:
        machine = self.machine
        for cgroup in machine.cgroups:
            name = cgroup.name
            for pid, vpn in cgroup.lru:
                table = machine._page_tables.get(pid)
                pte = table.peek(vpn) if table is not None else None
                if pte is None or pte.state not in _LRU_STATES:
                    state = pte.state.name if pte is not None else "missing"
                    _fail(
                        "lru",
                        f"cgroup {name}'s LRU lists (pid={pid}, vpn={vpn}) "
                        f"whose PTE is {state}",
                    )
                if table.cgroup is not cgroup:
                    _fail(
                        "lru",
                        f"(pid={pid}, vpn={vpn}) is on cgroup {name}'s LRU "
                        f"but belongs to cgroup {table.cgroup.name}",
                    )
        for pid, table in machine._page_tables.items():
            lru = table.cgroup.lru
            for vpn, pte in table._entries.items():
                if pte.state in _LRU_STATES and (pid, vpn) not in lru:
                    _fail(
                        "lru",
                        f"(pid={pid}, vpn={vpn}) is {pte.state.name} but "
                        f"not on its cgroup's LRU",
                    )

    # -- 8: RPT <-> page tables --------------------------------------------------------

    def _check_rpt(self) -> None:
        # A HoPP machine attaches its one RPT cache to every page table.
        hopp = self.machine.hopp
        if hopp is None:
            return
        rpt = hopp.rpt_cache
        lines = {}
        for cached in rpt._sets:
            lines.update(cached)
        dram = rpt.backing._entries
        mapped = set()
        for table in self.machine._page_tables.values():
            for vpn, pte in table._entries.items():
                if pte.state is not PteState.PRESENT:
                    continue
                ppn = pte.ppn
                entry = lines[ppn] if ppn in lines else dram.get(ppn)
                if entry is None or (entry[0], entry[1]) != (table.pid, vpn):
                    _fail(
                        "rpt",
                        f"frame {ppn} of (pid={table.pid}, vpn={vpn}) "
                        f"resolves to {entry}",
                    )
                mapped.add(ppn)
        for ppn, entry in lines.items():
            if entry is not None and ppn not in mapped:
                _fail(
                    "rpt",
                    f"RPT cache line of unmapped frame {ppn} holds {entry}",
                )
        for ppn, entry in dram.items():
            if ppn not in lines and ppn not in mapped:
                _fail(
                    "rpt",
                    f"DRAM RPT entry of unmapped frame {ppn} holds {entry}",
                )

    # -- 9: prefetch bookkeeping <-> page tables ---------------------------------------

    def _check_prefetches(self) -> None:
        machine = self.machine
        pending = set()
        for arrival_us, _, pid, vpn in machine._arrivals:
            table = machine._page_tables.get(pid)
            pte = table.peek(vpn) if table is not None else None
            if pte is None or pte.state is not PteState.INFLIGHT:
                state = pte.state.name if pte is not None else "missing"
                _fail(
                    "arrivals",
                    f"an arrival at {arrival_us} names (pid={pid}, "
                    f"vpn={vpn}) whose PTE is {state}",
                )
            if pte.arrival_us != arrival_us:
                _fail(
                    "arrivals",
                    f"(pid={pid}, vpn={vpn}) is due at {pte.arrival_us} "
                    f"but its arrival is queued at {arrival_us}",
                )
            if (pid, vpn) in pending:
                _fail(
                    "arrivals",
                    f"(pid={pid}, vpn={vpn}) has two pending arrivals",
                )
            pending.add((pid, vpn))
        for pid, table in machine._page_tables.items():
            for vpn, pte in table._entries.items():
                state = pte.state
                if state is PteState.INFLIGHT and (pid, vpn) not in pending:
                    _fail(
                        "arrivals",
                        f"(pid={pid}, vpn={vpn}) is INFLIGHT with no "
                        f"pending arrival",
                    )
                if state in _PREFETCH_STATES and not pte.prefetched:
                    _fail(
                        "prefetch",
                        f"(pid={pid}, vpn={vpn}) is {state.name} but "
                        f"does not carry prefetched",
                    )
