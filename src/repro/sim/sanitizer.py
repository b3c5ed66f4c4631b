"""Runtime cross-layer invariant checking (opt-in).

The machine's correctness rests on five structures agreeing at all
times: the frame allocator, the per-process page tables, the swap-slot
space, the cluster's slot directory, and the per-node page stores.
Each layer keeps itself consistent; nothing verified that they agree
*with each other* — exactly the kind of drift that a crash-repair
cycle, a failover, or a re-route could silently introduce.

:class:`InvariantSanitizer` walks all five structures and raises a
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
   holders or is marked lost (and never both).
4. **Directory <-> stores** — every holder listed for a slot actually
   stores the page, and every page a node stores is listed in the
   directory (no phantom and no orphan copies), with a carve-out for
   holders on nodes whose permanent crash has not been *detected* yet
   (their store still answers, so they are consistent by construction).
5. **Residency accounting** — the per-cgroup resident counters sum to
   the frames in use, and every node's slot accounting conserves.
6. **Integrity bookkeeping** — no slot is both lost and poisoned;
   every poisoned slot still has directory holders (poison means the
   data *exists* but is known-bad — loss drops the mark); every deviant
   checksum-ledger entry names a slot its node actually stores; and the
   integrity controller's ledger arithmetic is closed (every detected
   corruption ended repaired, unresolved, or condemned by a poisoning).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.page_table import PteState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.sim.machine import Machine

#: PTE states that hold a local frame.
_FRAME_STATES = (PteState.PRESENT, PteState.SWAPCACHE, PteState.INFLIGHT)
#: PTE states that keep a remote swap slot alive.
_SLOT_STATES = (PteState.REMOTE, PteState.SWAPCACHE, PteState.INFLIGHT)


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
        resident = sum(machine._resident.values())
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
                    f"conserve: {node.remote.stats_snapshot()}",
                )

    # -- 6: integrity bookkeeping ------------------------------------------------------

    def _check_integrity(self) -> None:
        machine = self.machine
        cluster = machine.cluster
        for slot in cluster._poisoned_slots:
            if cluster.is_lost(slot):
                _fail(
                    "integrity",
                    f"slot {slot} is marked both lost and poisoned",
                )
            if not cluster.holders_of(slot):
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
        controller = machine.integrity
        if controller is not None and not controller.balanced:
            _fail(
                "integrity",
                f"corruption ledger does not balance: "
                f"detected={controller.corruption_detected} != "
                f"repaired={controller.corruption_repaired} + "
                f"unresolved={controller.corruption_unresolved} + "
                f"condemned={controller.poisoned_copies}",
            )
