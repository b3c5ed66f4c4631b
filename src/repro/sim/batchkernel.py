"""Batch kernel for :meth:`Machine.run`'s fast path.

Between *barriers* the machine's event state is frozen: no prefetch
arrival is due, residency cannot change (only faults, prefetch
issue/arrival and eviction move PTEs), and the HPD table only moves
when it is fed.  So the kernel buffers the trace in chunks and scans
ahead into *same-page runs* — maximal spans of consecutive accesses by
one pid to one resident vpn — bounded by the next barrier: the chunk
edge, a due prefetch arrival, a residency miss, or an HPD extraction
(which enters the HoPP pipeline and may issue prefetches, evict pages
and mutate the arrivals heap).  Each run is retired with O(1)
bookkeeping instead of O(run):

* HPD counters collapse via :meth:`HotPageDetector.process_run`;
* the LRU touch is applied once per run (touching an already-MRU key
  again is a no-op);
* MC read/write counters accumulate in locals and flush at the chunk
  end (nothing reads them mid-run);
* ``now_us``, ``compute_us`` and ``dram_hit_us`` advance by *the same
  sequence of float additions* as the oracle: per access the oracle
  computes ``cost = T_DRAM_HIT_US`` then ``cost += compute``, so its
  ``now_us`` increment is ``T_DRAM_HIT_US + compute`` rounded once;
  :func:`_add_n` gives a long chain's result without the loop.

Every other access — a missing, non-PRESENT or prefetched PTE, or one
past the arrival budget — goes through :meth:`Machine.access` itself,
with the kernel's locals flushed before and reloaded after; its MC tap
then feeds HPD exactly as in the oracle loop.

On a tap-free machine with no arrival pending, a chunk of reads by one
pid has no barrier but residency misses.  The kernel then finds the
chunk's runs once, with C-level passes over the whole chunk, and
retires windows of resident runs at a time: one ``dict.get`` and one
LRU touch per run, each a C-level pass, and one :func:`_add_n` per
float chain.  A window stops at the first run that is not
resident; that access and the next ``MISS_SPAN`` take the per-run path
above, and the next window re-reads residency, because the slow path
may have moved any PTE.  This keeps most of a tap-free replay's host
time in builtins rather than in per-access bytecode, which also keeps
its speed steady when a shared host slows bytecode dispatch more than
it slows memory-bound work.

Exactness of the arrival barrier: the oracle takes the resident path
while ``arrivals[0][0] > now``.  Within a run ``now`` advances by the
constant ``cost0`` per access, so the accesses that fit before the
deadline have the closed form ``gap / cost0``; the kernel budgets
``int(gap / cost0) - 1``, whose slack (at least one full ``cost0``)
dwarfs the rounding error of a chunk-long float sum.  The budget only needs to be
conservative, never tight.

Results are byte-identical to ``use_fast_path=False`` (pinned by
tests/test_fastpath.py and tests/data/goldens_v1.json).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress, count, islice, repeat
from math import frexp, ldexp
from operator import attrgetter, itemgetter, ne, rshift

from repro.common.constants import BLOCK_SIZE, PAGE_SHIFT, T_DRAM_HIT_US
from repro.kernel.page_table import Pte, PteState

#: Trace accesses buffered per chunk.  Also caps a run's float-addition
#: chain, which keeps the arrival-budget rounding analysis valid.
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
    lru_of_pid = m._lru_of_pid
    access = m.access
    breakdown = m.breakdown
    present = PteState.PRESENT
    compute = m.config.compute_us_per_access
    t_dram = T_DRAM_HIT_US
    cost0 = t_dram + compute
    page_shift = PAGE_SHIFT
    if plane is not None:
        hpd = plane.hpd
        process_run = hpd.process_run
        on_hot_page = plane.on_hot_page
        runs = None
    else:
        runs = _read_runs(buf)
    if runs is not None:
        run_pid, starts, run_vpns = runs
        nruns = len(run_vpns)
        run_entries = tables[run_pid]._entries
        run_lru = lru_of_pid(run_pid)
        window = FIRST_WINDOW
        bulk_from = 0

    # pid -> (page-table entry dict, cgroup LRU); both are fixed once
    # the process is registered.
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
        # -- barrier checks: due/imminent arrival, residency ------------
        pte = None
        if arrivals:
            gap = arrivals[0][0] - now
            budget = int(gap / cost0) - 1 if gap > 0.0 else 0
        else:
            budget = n
        if budget > 0:
            cached = hot.get(pid)
            if cached is None:
                cached = hot[pid] = (tables[pid]._entries, lru_of_pid(pid))
            vpn = vaddr >> page_shift
            pte = cached[0].get(vpn)
            if pte is not None and (pte.state is not present or pte.prefetched):
                pte = None
        if pte is None:
            # -- slow path: this one access goes through the oracle ------
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
        # -- scan the same-page run ---------------------------------------
        limit = i + budget
        if limit > n:
            limit = n
        writes = 1 if is_write else 0
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
        if consumed > 8:
            now = _add_n(now, cost0, consumed)
            dram = _add_n(dram, t_dram, consumed)
            compute_us = _add_n(compute_us, compute, consumed)
        else:
            for _ in range(consumed):
                now += cost0
                dram += t_dram
                compute_us += compute
        cached[1].touch(pid, vpn)
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
    controller.bytes_transferred += (mc_reads + mc_writes) * BLOCK_SIZE
