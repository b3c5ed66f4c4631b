"""Differential tests for the resident-hit fast path in Machine.run.

``Machine.run(use_fast_path=False)`` is the oracle: the plain
per-access loop with no local batching or specialized dispatch.  The
fast path must be *invisible* — byte-identical counters, latencies and
per-component breakdowns on every system, including mixed read/write
traces (writes dirty pages and change writeback traffic) and prefetch
taps (which re-enter the machine mid-loop).
"""

from __future__ import annotations

import random

import pytest

from repro.common.constants import BLOCK_SHIFT, PAGE_SHIFT
from repro.sim import batchkernel, runner
from repro.sim.runner import collect, make_machine
from repro.workloads import build
from tests.conftest import quiet_fabric

SYSTEMS = ["noprefetch", "fastswap", "leap", "hopp", "hopp-evict"]


def run_both(workload_name, system, fraction, seed=3, trace=None,
             **workload_kwargs):
    """One run through the fast dispatcher, one through the oracle loop,
    on the same materialized trace."""
    results = []
    workload = build(workload_name, seed=seed, **workload_kwargs)
    if trace is None:
        trace = list(workload.trace())
    for fast in (True, False):
        machine = make_machine(workload, system, fraction, quiet_fabric(seed))
        machine.run(trace, use_fast_path=fast)
        machine.flush_recovery()
        results.append(collect(machine, system, workload_name))
    return results


def with_writes(trace, every=3):
    """Mark every ``every``-th access as a write (3-tuple form)."""
    return [
        (item[0], item[1], True) if i % every == 0 else item
        for i, item in enumerate(trace)
    ]


class TestFastPathEquivalence:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_stream_workload(self, system):
        fast, slow = run_both("stream-simple", system, 0.5,
                              npages=128, passes=2)
        assert fast.to_dict(full=True) == slow.to_dict(full=True)

    @pytest.mark.parametrize("system", ["fastswap", "hopp"])
    def test_mixed_read_write_trace(self, system):
        # Writes dirty resident pages (changing eviction writeback
        # traffic) and land on the MC write counter — the fast path must
        # account both identically.  No stock workload emits the
        # 3-tuple form, so mark every third access a write explicitly.
        trace = with_writes(list(build("kv-cache", seed=3).trace()))
        assert any(len(item) > 2 and item[2] for item in trace)
        fast, slow = run_both("kv-cache", system, 0.5, trace=trace)
        assert fast.mc_reads > 0
        assert fast.to_dict(full=True) == slow.to_dict(full=True)

    @pytest.mark.parametrize("fraction", [0.25, 1.0, 4.0])
    def test_across_memory_pressure(self, fraction):
        # 4.0 = everything resident (pure fast path); 0.25 = constant
        # reclaim (fast path mostly falls through to access()).
        fast, slow = run_both("stream-ladder", "hopp", fraction)
        assert fast.to_dict(full=True) == slow.to_dict(full=True)

    def test_multi_process_workload(self):
        fast, slow = run_both("omp-kmeans", "hopp", 0.5)
        assert fast.to_dict(full=True) == slow.to_dict(full=True)

    def test_runner_uses_fast_path_result(self):
        # runner.run (the production entry) must equal the oracle too.
        workload = build("stream-simple", seed=3, npages=128, passes=2)
        via_runner = runner.run(workload, "hopp", 0.5, quiet_fabric(3))
        _, slow = run_both("stream-simple", "hopp", 0.5,
                           npages=128, passes=2)
        assert via_runner.to_dict(full=True) == slow.to_dict(full=True)


def page_sweep_trace(workload, npages=48, sweeps=3, run_len=64):
    """Page-sequential full-page sweeps: same-page runs of exactly
    ``run_len`` accesses, so chunk sizes that divide (or just miss) the
    run length put chunk edges exactly on run and extraction
    boundaries."""
    proc = workload.processes[0]
    start_vpn, vma_pages, _ = proc.vmas[0]
    npages = min(npages, vma_pages)
    trace = []
    for _ in range(sweeps):
        for vpn in range(start_vpn, start_vpn + npages):
            base = vpn << PAGE_SHIFT
            for block in range(run_len):
                trace.append((proc.pid, base | (block << BLOCK_SHIFT)))
    return trace


class TestBatchKernelAdversarial:
    """Batched kernel == oracle under adversarial barrier placement.

    The kernel's barriers are chunk edges, due prefetch arrivals, and
    HPD extractions; these tests pin traces and chunk sizes chosen so
    those barriers collide (arrival due exactly at a chunk edge,
    extraction at the last access of a chunk, chunk_size=1 degenerating
    every run to a single access)."""

    def _oracle(self, workload, trace, **machine_kwargs):
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3),
                               **machine_kwargs)
        machine.run(trace, use_fast_path=False)
        machine.flush_recovery()
        return collect(machine, "hopp", "adv").to_dict(full=True)

    @pytest.mark.parametrize("chunk", [1, 2, 7, 63, 64, 65, 4096])
    def test_chunk_edges_on_run_and_extraction_boundaries(self, chunk):
        # Runs of exactly 64 accesses: chunk 64 puts every chunk edge on
        # a run boundary (and the HPD extraction for a fresh page fires
        # threshold accesses in — mid-chunk, last-access, first-access
        # depending on chunk phase); 63/65 walk the edge through every
        # phase; 1 degenerates the scan entirely.  At fraction 0.5 the
        # sweeps fault, prefetch, and evict, so due arrivals land on
        # those edges too.
        workload = build("stream-simple", seed=3)
        trace = page_sweep_trace(workload)
        want = self._oracle(workload, trace)
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3))
        machine.run(trace, chunk_size=chunk)
        machine.flush_recovery()
        got = collect(machine, "hopp", "adv").to_dict(full=True)
        assert got == want

    def test_chunk_size_one_with_writes(self):
        workload = build("stream-simple", seed=3)
        trace = with_writes(page_sweep_trace(workload, npages=24, sweeps=2))
        want = self._oracle(workload, trace)
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3))
        machine.run(trace, chunk_size=1)
        machine.flush_recovery()
        assert collect(machine, "hopp", "adv").to_dict(full=True) == want

    def test_telemetry_armed(self):
        from repro.telemetry import TelemetryConfig

        workload = build("stream-simple", seed=3)
        trace = page_sweep_trace(workload)
        want = self._oracle(workload, trace, telemetry=TelemetryConfig())
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3),
                               telemetry=TelemetryConfig())
        machine.run(trace)
        machine.flush_recovery()
        assert collect(machine, "hopp", "adv").to_dict(full=True) == want

    def test_chaos_fault_plan(self):
        from repro.net.faults import FaultPlan

        workload = build("stream-simple", seed=3)
        trace = page_sweep_trace(workload)
        want = self._oracle(workload, trace, fault_plan=FaultPlan.chaos(seed=3))
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3),
                               fault_plan=FaultPlan.chaos(seed=3))
        machine.run(trace)
        machine.flush_recovery()
        assert collect(machine, "hopp", "adv").to_dict(full=True) == want

    def test_memtier_active(self):
        from repro.memtier import MemtierConfig

        workload = build("stream-simple", seed=3)
        trace = page_sweep_trace(workload)
        want = self._oracle(workload, trace, memtier=MemtierConfig())
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3),
                               memtier=MemtierConfig())
        machine.run(trace)
        machine.flush_recovery()
        assert collect(machine, "hopp", "adv").to_dict(full=True) == want

    def test_legacy_kernel_matches_batched(self):
        workload = build("stream-simple", seed=3)
        trace = page_sweep_trace(workload)
        a = make_machine(workload, "hopp", 0.5, quiet_fabric(3))
        a.run(trace)
        b = make_machine(workload, "hopp", 0.5, quiet_fabric(3))
        b.run(trace, kernel="legacy")
        assert collect(a, "hopp", "adv").to_dict(full=True) == \
            collect(b, "hopp", "adv").to_dict(full=True)


class TestBatchPrimitives:
    """The kernel's building blocks against their per-access originals."""

    def test_seq_add_chains_bit_identical(self):
        # The deferred-retirement replay must perform the same float
        # additions as the oracle's per-access loop, through both the
        # Python fold and the cumsum branches.
        import numpy as np

        rng = random.Random(7)
        seq_buf = np.empty(5001)
        buf3 = np.empty((3, 5001))
        for _ in range(200):
            k = rng.choice([0, 1, 31, 32, 33, 64, 1000, 4096])
            consts = [rng.uniform(0.001, 3.0) for _ in range(3)]
            starts = [rng.uniform(0.0, 1e7) for _ in range(3)]
            want = []
            for x, c in zip(starts, consts):
                for _ in range(k):
                    x += c
                want.append(x)
            got1 = [
                batchkernel._seq_add(x, c, k, seq_buf, np.cumsum)
                for x, c in zip(starts, consts)
            ]
            got3 = list(batchkernel._seq_add3(
                starts[0], starts[1], starts[2],
                consts[0], consts[1], consts[2], k, buf3,
            ))
            assert got1 == want
            assert got3 == want

    def test_hpd_process_run_equivalence(self):
        from repro.hopp.hpd import HotPageDetector

        rng = random.Random(11)
        a = HotPageDetector()
        b = HotPageDetector()
        for _ in range(400):
            ppn = rng.randrange(40)
            reads = rng.randrange(1, 20)
            # Oracle: per-access process, stopping at the extraction.
            want_used, want_hot = reads, None
            for idx in range(reads):
                hot = a.process(ppn << PAGE_SHIFT, False)
                if hot is not None:
                    want_used, want_hot = idx + 1, hot
                    break
            used, fired = b.process_run(ppn, reads)
            assert (used, fired) == (want_used, want_hot is not None)
        assert a.accesses == b.accesses
        assert a.dropped_after_send == b.dropped_after_send
        assert a.hot_pages == b.hot_pages
        assert a._table.hits == b._table.hits
        assert a._table.misses == b._table.misses

    def test_multichannel_process_batch_equivalence(self):
        from repro.hopp.hpd import MultiChannelHpd

        rng = random.Random(13)
        a = MultiChannelHpd(channels=2)
        b = MultiChannelHpd(channels=2)
        for _ in range(200):
            paddrs = [rng.randrange(30) << PAGE_SHIFT for _ in range(rng.randrange(1, 12))]
            writes = [rng.random() < 0.2 for _ in paddrs]
            want_used, want_hot = len(paddrs), None
            for idx, (paddr, w) in enumerate(zip(paddrs, writes)):
                hot = a.process(paddr, w)
                if hot is not None:
                    want_used, want_hot = idx + 1, hot
                    break
            assert b.process_batch(paddrs, writes) == (want_used, want_hot)

    def test_stt_feed_batch_equivalence(self):
        from repro.hopp.stt import StreamTrainingTable

        rng = random.Random(17)
        a = StreamTrainingTable()
        b = StreamTrainingTable()
        pages = [
            (rng.randrange(3), rng.randrange(200))
            for _ in range(600)
        ]
        # feed returns live views; keeping them past the stream's next
        # hot page needs detach, which feed_batch does itself.
        want = [
            obs.detach() for obs in (a.feed(pid, vpn, 5.0) for pid, vpn in pages)
            if obs is not None
        ]
        got = b.feed_batch(pages, 5.0)
        assert [(o.pid, o.vpn, o.stride, o.vpn_history, o.stride_history)
                for o in got] == \
            [(o.pid, o.vpn, o.stride, o.vpn_history, o.stride_history)
             for o in want]
        assert len(a) == len(b)

    def test_ssp_counts_equivalence(self):
        from repro.hopp import ssp

        rng = random.Random(19)
        for _ in range(500):
            strides = [rng.choice([-3, -1, 0, 1, 2, 64]) for _ in
                       range(rng.randrange(1, 15))]
            counts = {}
            for s in strides:
                if s:
                    counts[s] = counts.get(s, 0) + 1
            for min_count in (1, 2, len(strides) // 2):
                assert ssp.dominant_stride_from_counts(
                    counts, strides, min_count
                ) == ssp.dominant_stride(strides, min_count)


class TestFastPathGating:
    def test_sanitizer_forces_slow_loop(self):
        # With the invariant sanitizer armed the dispatcher must take
        # the per-access loop (the sanitizer sweeps every N accesses,
        # so the trace must be long enough to cross that interval).
        workload = build("stream-simple", seed=3, npages=256, passes=10)
        trace = list(workload.trace())
        assert len(trace) >= 2000
        a = make_machine(workload, "hopp", 0.5, quiet_fabric(3),
                         check_invariants=True)
        a.run(trace)
        b = make_machine(workload, "hopp", 0.5, quiet_fabric(3),
                         check_invariants=True)
        b.run(trace, use_fast_path=False)
        assert collect(a, "hopp", "s").to_dict(full=True) == \
            collect(b, "hopp", "s").to_dict(full=True)
        assert a.sanitizer.checks_run > 0
