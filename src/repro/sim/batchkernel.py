"""Batch kernel for :meth:`Machine.run`'s fast path.

Between *barriers* the machine's event state is frozen: residency
cannot change (only faults, prefetch issue/arrival and eviction move
PTEs), and the HPD table only moves when it is fed.  So the kernel
buffers the trace in chunks and scans ahead into *same-page runs* —
maximal spans of consecutive accesses by one pid to one resident vpn —
bounded by the next barrier: the chunk edge, a residency miss (PTE
absent or not PRESENT), or an HPD extraction (which enters the HoPP
pipeline and may issue prefetches, evict pages and mutate the arrivals
heap).  Each run is retired with O(1) bookkeeping instead of O(run):

* HPD counters collapse via :meth:`HotPageDetector.process_run`;
* the LRU touch is applied once per run (touching an already-MRU key
  again is a no-op), straight through the LRU dict's bound
  ``move_to_end``: every PRESENT page is on its cgroup's LRU (sanitizer
  check 7);
* MC read/write counters accumulate in locals and flush at the chunk
  end (nothing reads them mid-run);
* ``now_us``, ``compute_us`` and ``dram_hit_us`` advance by *the same
  sequence of float additions* as the oracle: per access the oracle
  computes ``cost = T_DRAM_HIT_US`` then ``cost += compute``, so its
  ``now_us`` increment is ``T_DRAM_HIT_US + compute`` rounded once;
  :func:`_add_n` gives a long chain's result without the loop.

Only a residency miss — a fault — and a *due* access go through
:meth:`Machine.access` itself, with the kernel's locals flushed before
and reloaded after; its MC tap then feeds HPD exactly as in the oracle
loop.  An access is due when it starts at or after the remote backend's
next deadline (:meth:`RemoteBackend.due_us`), or when the sanitizer
sweeps at it; with nothing armed no access is ever due.  Two other
events are retired in the kernel, in the oracle's order:

* a prefetch arrival due at a run's first access is landed by
  ``Machine._process_arrivals(now)`` before the access reads its PTE,
  the oracle's own first step for that access; one due later in the run
  is landed once the run is retired (below);
* the first touch of an injected prefetch (a PRESENT PTE that still
  carries ``prefetched``) touches the LRU, then counts the hit with
  ``now_us`` flushed to the access's start time, and ends its run: the
  count may reorder the LRU or issue prefetches.

On a tap-free machine with nothing armed and no arrival pending, a
chunk of reads by one pid has no barrier but residency misses.  The
kernel then finds the chunk's runs once, with C-level passes over the
whole chunk, and retires windows of resident runs at a time: one
``dict.get`` and one LRU touch per run, each a C-level pass, and one
:func:`_add_n` per float chain.  A window stops at the first run that
is not resident; that access and the next ``MISS_SPAN`` take the per-run path
above, and the next window re-reads residency, because the slow path
may have moved any PTE.  This keeps most of a tap-free replay's host
time in builtins rather than in per-access bytecode, which also keeps
its speed steady when a shared host slows bytecode dispatch more than
it slows memory-bound work.

Arrivals due within a run: the oracle lands each one at the start of
the access it is due at, before that access touches the run's page.
Landing never reclaims, never touches the run's PRESENT page, reads
none of the kernel's locals, and ``_process_arrivals(t)`` lands in
heap order whatever ``t`` is.  So a run need not stop at the head
arrival: the kernel retires the run, lands everything due by the start
of its last access (its own fold of ``consumed - 1`` additions of
``cost0``, the oracle's clock at that access), and touches the run's
page again, which leaves the LRU order the oracle's (landed pages in
heap order, then the run's page).  An arrival due after that start
lands at the next access's start, as in the oracle.  A one-access run
lands nothing here: the top of the loop already landed what was due at
its start, and a first touch may issue a prefetch due at once, which
the oracle lands only at the next access.  An extraction's pipeline
runs after the landing, as the oracle's tap does.

Exactness of the deadline budget: an armed run must stop before the
access that starts at or after the backend's deadline.  Within a run
``now`` advances by the constant ``cost0`` per access, so the accesses
that fit have the closed form ``gap / cost0``; the kernel budgets
``int(gap / cost0) - 1``, whose slack (at least one full ``cost0``)
dwarfs the rounding error of a chunk-long float sum, but never less
than one: an access that starts before the deadline is not due.  The
budget only needs to be conservative, never tight.  The sanitizer's
sweep is budgeted by a plain access count.

Results are byte-identical to ``use_fast_path=False`` (pinned by
tests/test_fastpath.py and tests/data/goldens_v1.json).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress, count, islice, repeat
from math import frexp, inf, ldexp
from operator import attrgetter, itemgetter, ne, rshift

from repro.common.constants import PAGE_SHIFT, T_DRAM_HIT_US
from repro.kernel.page_table import Pte, PteState
from repro.sim.sanitizer import SANITIZER_INTERVAL_ACCESSES

#: Trace accesses buffered per chunk.  Also caps a run's float-addition
#: chain, which keeps the deadline-budget rounding analysis valid.
CHUNK = 4096

#: Runs in the first resident window of a chunk, and after a miss; a
#: window that retires all its runs doubles the next.
FIRST_WINDOW = 64
#: Accesses that take the per-run path after a window stops at a miss.
#: Misses cluster (a first-touch sweep faults once per page), and
#: windows among them would stop after a run or two.
MISS_SPAN = 256

_pid_of = itemgetter(0)
_vaddr_of = itemgetter(1)
_state_and_prefetched = attrgetter("state", "prefetched")
#: What a resident, not-prefetched PTE reads as.
_RESIDENT = (PteState.PRESENT, False)
#: Stands in for a missing PTE, which is never resident.
_NO_PTE = Pte()


def run(machine, trace, plane=None) -> None:
    """Replay ``trace`` on ``machine``.  ``plane`` is the HoPP data
    plane whose MC tap the kernel stands in for, or None on a tap-free
    machine."""
    it = iter(trace)
    while True:
        buf = list(islice(it, CHUNK))
        if not buf:
            return
        _replay_chunk(machine, plane, buf)


def _add_n(x: float, c: float, k: int) -> float:
    """``x`` after ``k`` additions of ``c``, rounded after each one,
    exactly as ``for _ in range(k): x += c``.

    While the running sum stays in the binade ``[2**(e-1), 2**e)`` of
    ``x >= 1``, every double in it is a multiple of ``u = 2**(e-53)``
    and ``x + c`` rounds to ``x + round(c / u) * u`` whatever ``x`` is,
    unless ``c / u`` sits exactly halfway between two integers (then
    ties-to-even depends on ``x``).  So ``k`` additions that end below
    ``2**e`` are ``x + k * round(c / u) * u``, which is exact.  Otherwise,
    and for chains too short to be worth the check, the additions are
    made one by one.
    """
    if k > 8 and 1.0 <= x and 0.0 < c < x:
        e = frexp(x)[1]
        q = ldexp(c, 53 - e)
        if q % 1.0 != 0.5:
            end = x + k * ldexp(round(q), e - 53)
            if end < ldexp(1.0, e):
                return end
    for _ in range(k):
        x += c
    return x


def _read_runs(buf):
    """``(pid, starts, vpns)`` when every access in ``buf`` is a
    ``(pid, vaddr)`` read by one pid: ``starts`` are the indices where
    same-page runs begin, closed by ``len(buf)``, and ``vpns[r]`` is
    run ``r``'s page.  None for any other chunk."""
    n = len(buf)
    pid = buf[0][0]
    if list(map(len, buf)).count(2) != n or list(map(_pid_of, buf)).count(pid) != n:
        return None
    vpns = list(map(rshift, map(_vaddr_of, buf), repeat(PAGE_SHIFT)))
    starts = [0]
    starts += compress(count(1), map(ne, vpns, islice(vpns, 1, None)))
    run_vpns = list(map(vpns.__getitem__, starts))
    starts.append(n)
    return pid, starts, run_vpns


def _resident_prefix(entries, vpns) -> int:
    """How many leading ``vpns`` map to PRESENT, not-prefetched PTEs."""
    ptes = map(entries.get, vpns, repeat(_NO_PTE))
    misses = map(ne, map(_state_and_prefetched, ptes), repeat(_RESIDENT))
    return next(compress(count(), misses), len(vpns))


def _reads_end(buf, start: int, reads: int) -> int:
    """Index just past the ``reads``-th read access from ``buf[start]``."""
    pos = start
    while reads:
        item = buf[pos]
        pos += 1
        if len(item) != 3 or not item[2]:
            reads -= 1
    return pos


def _replay_chunk(m, plane, buf) -> None:
    arrivals = m._arrivals
    tables = m._page_tables
    access = m.access
    process_arrivals = m._process_arrivals
    count_prefetch_hit = m._count_prefetch_hit
    breakdown = m.breakdown
    present = PteState.PRESENT
    compute = m.config.compute_us_per_access
    t_dram = T_DRAM_HIT_US
    cost0 = t_dram + compute
    page_shift = PAGE_SHIFT
    # An armed run's deadlines: the backend's next step (inf for good
    # when recovery is not armed) and the sanitizer's sweep interval.
    due_us = m.backend.due_us
    sweep = SANITIZER_INTERVAL_ACCESSES if m.sanitizer is not None else 0
    timed = due_us() != inf or sweep
    if plane is not None:
        hpd = plane.hpd
        process_run = hpd.process_run
        on_hot_page = plane.on_hot_page
        runs = None
    else:
        runs = None if timed else _read_runs(buf)
    if runs is not None:
        run_pid, starts, run_vpns = runs
        nruns = len(run_vpns)
        run_table = tables[run_pid]
        run_entries = run_table._entries
        run_lru = run_table.cgroup.lru
        window = FIRST_WINDOW
        bulk_from = 0

    # pid -> (page-table entry dict, its cgroup LRU's bound
    # ``move_to_end``); both are fixed once the process is registered.
    hot: dict = {}
    n = len(buf)
    i = 0
    now = m.now_us
    accesses = m.accesses
    compute_us = m.compute_us
    dram = breakdown.dram_hit_us
    mc_reads = 0
    mc_writes = 0
    while i < n:
        if runs is not None and i >= bulk_from and not arrivals:
            # -- resident window: runs r .. r + good - 1 in C-level passes --
            r = bisect_right(starts, i) - 1
            hi = r + window
            if hi > nruns:
                hi = nruns
            good = _resident_prefix(run_entries, run_vpns[r:hi])
            end = starts[r + good]
            k = end - i
            if k:
                run_lru.touch_each(run_pid, run_vpns[r:r + good])
                now = _add_n(now, cost0, k)
                dram = _add_n(dram, t_dram, k)
                compute_us = _add_n(compute_us, compute, k)
                accesses += k
                mc_reads += k
                i = end
            if r + good == hi:
                window += window
                continue
            window = FIRST_WINDOW
            bulk_from = i + MISS_SPAN
        item = buf[i]
        if len(item) == 3:
            pid, vaddr, is_write = item
        else:
            pid, vaddr = item
            is_write = False
        # -- barriers: land due arrivals, then check residency -----------
        if arrivals and arrivals[0][0] <= now:
            # The oracle's first step for this access; it reads none of
            # the kernel's locals.
            process_arrivals(now)
        budget = n
        if timed:
            # -- an armed run: budget 0 marks this access due ------------
            due = due_us()
            if sweep:
                left = sweep - 1 - accesses % sweep
                if left < budget:
                    budget = left
            if now >= due:
                budget = 0
            elif budget and due != inf:
                cap = int((due - now) / cost0) - 1
                if cap < budget:
                    budget = cap if cap > 1 else 1
        cached = hot.get(pid)
        if cached is None:
            table = tables[pid]
            cached = hot[pid] = (
                table._entries, table.cgroup.lru._pages.move_to_end
            )
        vpn = vaddr >> page_shift
        pte = cached[0].get(vpn)
        if pte is None or pte.state is not present or not budget:
            # -- residency miss or due access: through the oracle ---------
            m.now_us = now
            m.accesses = accesses
            m.compute_us = compute_us
            breakdown.dram_hit_us = dram
            access(pid, vaddr, is_write)
            now = m.now_us
            accesses = m.accesses
            compute_us = m.compute_us
            dram = breakdown.dram_hit_us
            i += 1
            continue
        writes = 1 if is_write else 0
        if pte.prefetched:
            # -- first touch of an injected prefetch, in the oracle's
            # order: LRU touch, then the hit count at the access's start
            # time.  The count may reorder the LRU or issue prefetches,
            # so the run ends with this access.
            cached[1]((pid, vpn))
            m.now_us = now
            count_prefetch_hit(pid, vpn, pte, "dram")
            j = i + 1
        else:
            # -- scan the same-page run -----------------------------------
            limit = i + budget
            if limit > n:
                limit = n
            if runs is not None:
                # The chunk's runs are known; every access is a read.
                j = starts[bisect_right(starts, i)]
                if j > limit:
                    j = limit
            else:
                j = i + 1
                while j < limit:
                    nxt = buf[j]
                    if nxt[0] != pid or nxt[1] >> page_shift != vpn:
                        break
                    if len(nxt) == 3 and nxt[2]:
                        writes += 1
                    j += 1
            cached[1]((pid, vpn))
        consumed = j - i
        fired = False
        if plane is not None:
            # HPD ignores writes; a run that fires is cut after the
            # firing read, and the rest re-enters after the pipeline.
            if writes < consumed:
                used, fired = process_run(pte.ppn, consumed - writes)
                if fired:
                    consumed = _reads_end(buf, i, used) - i if writes else used
                    writes = consumed - used
            if writes:
                hpd.writes_ignored += writes
        # -- retire the consumed accesses ---------------------------------
        mc_writes += writes
        mc_reads += consumed - writes
        accesses += consumed
        i += consumed
        start = now
        if consumed > 8:
            now = _add_n(now, cost0, consumed)
            dram = _add_n(dram, t_dram, consumed)
            compute_us = _add_n(compute_us, compute, consumed)
        else:
            for _ in range(consumed):
                now += cost0
                dram += t_dram
                compute_us += compute
        if arrivals and consumed > 1 and arrivals[0][0] <= now:
            # -- arrivals due within the run: the oracle lands each one
            # before the access it is due at, and that access touches
            # the run's page again; the last access leaves it MRU.  Only
            # a head due by the run's end needs its last access's start,
            # the fold of ``consumed - 1`` additions.
            last = _add_n(start, cost0, consumed - 1)
            if arrivals[0][0] <= last:
                process_arrivals(last)
                cached[1]((pid, vpn))
        if fired:
            # -- barrier: the extraction pipeline re-enters the machine --
            m.now_us = now
            m.accesses = accesses
            m.compute_us = compute_us
            breakdown.dram_hit_us = dram
            on_hot_page(now, pte.ppn)
            now = m.now_us
            accesses = m.accesses
            compute_us = m.compute_us
            dram = breakdown.dram_hit_us
    m.now_us = now
    m.accesses = accesses
    m.compute_us = compute_us
    breakdown.dram_hit_us = dram
    controller = m.controller
    controller.reads += mc_reads
    controller.writes += mc_writes
