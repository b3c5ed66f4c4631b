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
from repro.sim.machine import RunEnv
from repro.sim.runner import collect, make_machine
from repro.workloads import build
from tests.conftest import quiet_fabric

SYSTEMS = ["noprefetch", "fastswap", "leap", "hopp", "hopp-evict"]


def run_both(workload_name, system, fraction, seed=3, trace=None,
             attach=None, **workload_kwargs):
    """One run through the fast dispatcher, one through the oracle loop,
    on the same materialized trace.  ``attach(machine)`` runs on each
    machine before its replay."""
    results = []
    workload = build(workload_name, seed=seed, **workload_kwargs)
    if trace is None:
        trace = list(workload.trace())
    for fast in (True, False):
        machine = make_machine(workload, system, fraction, quiet_fabric(seed))
        if attach is not None:
            attach(machine)
        machine.run(trace, use_fast_path=fast)
        machine.flush_recovery()
        results.append(
            collect(machine, getattr(system, "name", system), workload_name)
        )
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
    extraction at the last access of a chunk, a one-access chunk
    degenerating every run to a single access)."""

    def _oracle(self, workload, trace, env=None):
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3), env=env)
        machine.run(trace, use_fast_path=False)
        machine.flush_recovery()
        return collect(machine, "hopp", "adv").to_dict(full=True)

    @pytest.mark.parametrize("chunk", [1, 2, 7, 63, 64, 65, 4096])
    def test_chunk_edges_on_run_and_extraction_boundaries(self, chunk,
                                                          monkeypatch):
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
        monkeypatch.setattr(batchkernel, "CHUNK", chunk)
        machine.run(trace)
        machine.flush_recovery()
        got = collect(machine, "hopp", "adv").to_dict(full=True)
        assert got == want

    def test_chunk_size_one_with_writes(self, monkeypatch):
        workload = build("stream-simple", seed=3)
        trace = with_writes(page_sweep_trace(workload, npages=24, sweeps=2))
        want = self._oracle(workload, trace)
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3))
        monkeypatch.setattr(batchkernel, "CHUNK", 1)
        machine.run(trace)
        machine.flush_recovery()
        assert collect(machine, "hopp", "adv").to_dict(full=True) == want

    def test_telemetry_armed(self):
        from repro.telemetry import TelemetryConfig

        env = RunEnv(telemetry=TelemetryConfig())
        workload = build("stream-simple", seed=3)
        trace = page_sweep_trace(workload)
        want = self._oracle(workload, trace, env)
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3), env=env)
        machine.run(trace)
        machine.flush_recovery()
        assert collect(machine, "hopp", "adv").to_dict(full=True) == want

    def test_chaos_fault_plan(self):
        from repro.net.faults import FaultPlan

        env = RunEnv(fault_plan=FaultPlan.chaos(seed=3))
        workload = build("stream-simple", seed=3)
        trace = page_sweep_trace(workload)
        want = self._oracle(workload, trace, env)
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3), env=env)
        machine.run(trace)
        machine.flush_recovery()
        assert collect(machine, "hopp", "adv").to_dict(full=True) == want

    def test_memtier_active(self):
        from repro.memtier import MemtierConfig

        env = RunEnv(memtier=MemtierConfig())
        workload = build("stream-simple", seed=3)
        trace = page_sweep_trace(workload)
        want = self._oracle(workload, trace, env)
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3), env=env)
        machine.run(trace)
        machine.flush_recovery()
        assert collect(machine, "hopp", "adv").to_dict(full=True) == want


def random_run_trace(workload, npages=40, runs=3000, seed=5):
    """Runs of 1-12 accesses to random pages of the first VMA: residency
    misses and, under memory pressure, evictions land between and
    inside the kernel's resident windows."""
    rng = random.Random(seed)
    proc = workload.processes[0]
    start_vpn, vma_pages, _ = proc.vmas[0]
    npages = min(npages, vma_pages)
    trace = []
    for _ in range(runs):
        base = (start_vpn + rng.randrange(npages)) << PAGE_SHIFT
        for _ in range(rng.randrange(1, 13)):
            trace.append((proc.pid, base | (rng.randrange(64) << BLOCK_SHIFT)))
    return trace


class TestResidentWindows:
    """Tap-free machines retire resident runs in windows of C-level
    passes; a window ends at a residency miss, and the slow path that
    follows may evict pages or queue prefetch arrivals."""

    @pytest.mark.parametrize("chunk", [1, 7, 65, 4096])
    @pytest.mark.parametrize("fraction", [0.5, 4.0])
    @pytest.mark.parametrize("system", ["noprefetch", "fastswap", "depth-16"])
    def test_random_runs_match_oracle(self, system, fraction, chunk,
                                      monkeypatch):
        # depth-16 injects the PTEs of its prefetches, so windows meet
        # PRESENT pages that still carry prefetch bookkeeping.
        workload = build("stream-simple", seed=3)
        trace = random_run_trace(workload)
        machines = []
        for fast in (True, False):
            machine = make_machine(workload, system, fraction, quiet_fabric(3))
            monkeypatch.setattr(batchkernel, "CHUNK", chunk)
            machine.run(trace, use_fast_path=fast)
            machine.flush_recovery()
            machines.append(collect(machine, system, "adv").to_dict(full=True))
        assert machines[0] == machines[1]

    @pytest.mark.parametrize("workload_name,system", [
        ("omp-kmeans", "noprefetch"),
        ("stream-simple", "noprefetch"),
        ("stream-simple", "depth-16"),
    ])
    def test_workloads_match_oracle(self, workload_name, system):
        # Later stream passes major-fault; depth-16's injected
        # prefetches arrive between faults, so windows with no arrival
        # pending meet pages that carry prefetch bookkeeping.
        fast, slow = run_both(workload_name, system, 0.5,
                              **({"npages": 128, "passes": 3}
                                 if workload_name == "stream-simple" else {}))
        assert fast.to_dict(full=True) == slow.to_dict(full=True)
        assert fast.prefetch_hits > 0 or system == "noprefetch"

    @pytest.mark.parametrize("fraction", [0.5, 4.0])
    def test_two_processes_on_the_same_pages(self, fraction):
        # A chunk with two pids takes the per-run path; their pages
        # share vpns, so a window that ignored the pid would retire
        # the second process's accesses against the first's table.
        workload = build("stream-simple", seed=3)
        one = random_run_trace(workload, seed=7)
        two = [(2, vaddr) for _, vaddr in random_run_trace(workload, seed=8)]
        trace = []
        for start in range(0, len(one), 500):
            trace += one[start:start + 500] + two[start:start + 500]
        start_vpn, vma_pages, _ = workload.processes[0].vmas[0]
        results = []
        for fast in (True, False):
            machine = make_machine(workload, "noprefetch", fraction,
                                   quiet_fabric(3))
            machine.register_process(2)
            machine.add_vma(2, start_vpn, vma_pages)
            machine.run(trace, use_fast_path=fast)
            results.append(collect(machine, "noprefetch", "adv").to_dict(full=True))
        assert results[0] == results[1]

    def test_tap_free_machine_takes_the_windows(self):
        # touch_each has no caller but the windows: a slip to the
        # per-run path everywhere leaves it uncalled.
        workload = build("stream-simple", seed=3, npages=128, passes=2)
        calls = []

        def attach(machine):
            lru = machine._lru_of_pid(workload.processes[0].pid)
            touch_each = lru.touch_each

            def counting(pid, vpns):
                calls.append(len(vpns))
                touch_each(pid, vpns)

            lru.touch_each = counting

        fast, slow = run_both("stream-simple", "noprefetch", 4.0,
                              attach=attach, npages=128, passes=2)
        assert fast.to_dict(full=True) == slow.to_dict(full=True)
        assert sum(calls) > 0

    def test_add_n_matches_sequential_additions(self):
        rng = random.Random(23)
        cases = [
            (0.0, 0.45, 40),
            (0.75, 0.45, 40),      # x below 1: one by one
            (1023.5, 0.6, 4000),   # crosses 1024
            (1024.0, 3 * 2.0 ** -43, 50),  # c / ulp ends in .5: a tie
            (1024.0, 2.0 ** -43, 50),      # half an ulp: a tie at zero
            (1.0, 1.5, 20),        # c above x
            (5e5, 0.1 + 0.35, 4096),
        ]
        for _ in range(3000):
            x = rng.choice([rng.uniform(1.0, 2.0), rng.uniform(1.0, 1e6),
                            float(rng.randrange(1, 1 << 30))])
            c = rng.choice([0.1, 0.25, 0.3 + 0.1, rng.random(),
                            2.0 ** rng.randrange(-50, 2),
                            (2 * rng.randrange(1, 9) + 1) * 2.0 ** rng.randrange(-60, -30)])
            cases.append((x, c, rng.randrange(0, 5000)))
        for x, c, k in cases:
            want = x
            for _ in range(k):
                want += c
            assert batchkernel._add_n(x, c, k) == want, (x, c, k)


class TestBatchPrimitives:
    """The kernel's building blocks against their per-access originals."""

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
        env = RunEnv(check_invariants=True)
        a = make_machine(workload, "hopp", 0.5, quiet_fabric(3), env=env)
        a.run(trace)
        b = make_machine(workload, "hopp", 0.5, quiet_fabric(3), env=env)
        b.run(trace, use_fast_path=False)
        assert collect(a, "hopp", "s").to_dict(full=True) == \
            collect(b, "hopp", "s").to_dict(full=True)
        assert a.sanitizer.checks_run > 0

    def test_stock_hopp_machine_takes_the_kernel(self):
        # process_run has no caller but the kernel: a dispatch slip to
        # the oracle loop leaves it uncalled.
        workload = build("stream-simple", seed=3, npages=128, passes=2)
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3))
        hpd = machine.hopp.hpd
        process_run = hpd.process_run
        calls = []

        def counting(ppn, reads):
            calls.append(reads)
            return process_run(ppn, reads)

        hpd.process_run = counting
        machine.run(list(workload.trace()))
        assert calls

    def test_tracer_machine_matches_oracle(self):
        # An HMTT tracer is a second tap the kernel cannot stand in for,
        # so the machine takes the oracle loop and the tracer sees every
        # MC access.
        from repro.trace.hmtt import HmttTracer

        tapped = []

        def attach(machine):
            tracer = HmttTracer()
            tracer.attach(machine.controller)
            tapped.append((tracer, machine.controller))

        fast, slow = run_both("stream-simple", "hopp", 0.5, attach=attach,
                              npages=128, passes=2)
        assert fast.to_dict(full=True) == slow.to_dict(full=True)
        tracer, controller = tapped[0]
        assert tracer.ring.produced == controller.accesses > 0

    def test_starved_prototype_plane_matches_oracle(self):
        # The Section V prototype's tap only enqueues into a trace ring
        # that a rate-limited consumer drains; feeding its HPD straight
        # from the kernel would skip the lag and the dropped records.
        from repro.baselines.fastswap import FastswapPrefetcher
        from repro.hopp.prototype import PrototypeDataPlane
        from repro.sim.machine import Machine
        from repro.sim.systems import SystemSpec

        def builder(config):
            machine = Machine(config, fault_prefetcher=FastswapPrefetcher())
            plane = PrototypeDataPlane(machine, consume_rate_per_us=1.0,
                                       ring_capacity=256)
            machine.hopp = plane
            machine.controller.add_tap(plane.on_mc_access)
            return machine

        planes = []
        fast, slow = run_both(
            "stream-simple", SystemSpec(name="hopp-proto", builder=builder),
            0.5, attach=lambda machine: planes.append(machine.hopp),
            npages=128, passes=2,
        )
        assert fast.to_dict(full=True) == slow.to_dict(full=True)
        assert planes[0].records_dropped == planes[1].records_dropped > 0
        assert planes[0].records_consumed == planes[1].records_consumed

    def test_multichannel_hpd_machine_matches_oracle(self):
        from repro.hopp.hpd import MultiChannelHpd
        from repro.sim.systems import variant

        detectors = []
        fast, slow = run_both(
            "stream-simple", variant("hopp", {"mc_channels": 2}), 0.5,
            attach=lambda machine: detectors.append(machine.hopp.hpd),
            npages=128, passes=2,
        )
        assert isinstance(detectors[0], MultiChannelHpd)
        assert fast.extra["hpd_hot_page_ratio"] > 0
        assert fast.to_dict(full=True) == slow.to_dict(full=True)
