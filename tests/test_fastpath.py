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

from repro.baselines.depthn import DepthNPrefetcher
from repro.cluster.cluster import ClusterConfig
from repro.common.constants import BLOCK_SHIFT, PAGE_SHIFT, T_DRAM_HIT_US
from repro.integrity import ScrubConfig
from repro.kernel.page_table import PteState
from repro.memtier import MemtierConfig
from repro.net.faults import FaultPlan
from repro.net.rdma import FabricConfig
from repro.sim import batchkernel, runner, systems
from repro.sim.machine import Machine, MachineConfig, RunEnv
from repro.sim.runner import collect, make_machine
from repro.sim.sanitizer import SANITIZER_INTERVAL_ACCESSES
from repro.workloads import build
from tests.conftest import quiet_fabric, ssp_histogram_stride

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
        env = RunEnv(fault_plan=FaultPlan.chaos(seed=3))
        workload = build("stream-simple", seed=3)
        trace = page_sweep_trace(workload)
        want = self._oracle(workload, trace, env)
        machine = make_machine(workload, "hopp", 0.5, quiet_fabric(3), env=env)
        machine.run(trace)
        machine.flush_recovery()
        assert collect(machine, "hopp", "adv").to_dict(full=True) == want

    def test_memtier_active(self):
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
            lru = machine.page_table(workload.processes[0].pid).cgroup.lru
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
        assert a.hits == b.hits
        assert a.misses == b.misses

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
                assert ssp_histogram_stride(
                    strides, counts, min_count
                ) == ssp.dominant_stride(strides, min_count)


class TestFastPathGating:
    def test_sanitizer_armed_kernel_matches_oracle(self):
        # The kernel sends every SANITIZER_INTERVAL_ACCESSES-th access
        # through Machine.access, whose sweep then runs where the
        # oracle's does (the trace must cross that interval).
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


def page_visit_writes(trace, ratio=0.1, seed=5):
    """Mark a seeded ``ratio`` of page visits as writes, every cacheline
    of the visit."""
    rng = random.Random(seed)
    last = None
    write = False
    out = []
    for pid, vaddr in trace:
        page = (pid, vaddr >> PAGE_SHIFT)
        if page != last:
            last = page
            write = rng.random() < ratio
        out.append((pid, vaddr, write))
    return out


def machine_state(machine, system_name):
    """What the differentials below compare: the full RunResult and
    every cgroup's LRU order."""
    return (
        collect(machine, system_name, "adv").to_dict(full=True),
        {cgroup.name: list(cgroup.lru) for cgroup in machine.cgroups},
    )


class TestDispatchContract:
    """The kernel calls :meth:`Machine.access` only for an access that
    faults: due arrivals, accesses just ahead of an arrival and first
    touches of injected prefetches all stay in the kernel."""

    @pytest.mark.parametrize("writes", [False, True], ids=["reads", "writes"])
    @pytest.mark.parametrize("system", ["hopp", "fastswap", "depth-16", "leap",
                                        "noprefetch"])
    @pytest.mark.parametrize("workload_name,kwargs", [
        ("omp-kmeans", {}),
        ("stream-simple", {"npages": 256, "passes": 3}),
        ("kv-cache", {"operations": 4000}),
    ], ids=["omp-kmeans", "stream-simple", "kv-cache"])
    def test_access_is_called_once_per_fault(self, workload_name, kwargs,
                                             system, writes):
        workload = build(workload_name, seed=3, **kwargs)
        trace = list(workload.trace())
        if writes:
            trace = page_visit_writes(trace)
        machine = make_machine(workload, system, 0.5, quiet_fabric(3))
        access = machine.access
        calls = []

        def counting(pid, vaddr, is_write=False):
            calls.append(pid)
            return access(pid, vaddr, is_write)

        machine.access = counting
        machine.run(trace)
        faults = (machine.minor_faults + machine.remote_demand_reads
                  + machine.prefetch_hit_swapcache
                  + machine.prefetch_hit_inflight)
        assert len(calls) == faults
        assert machine.accesses == len(trace)


#: Local pages of a scheduled-arrival machine; its warm-up touches 96,
#: so the first 32 and more end up remote.
SCHEDULED_LOCAL_PAGES = 64
#: First resident page of the scheduled traces' runs.
FIRST_RESIDENT_VPN = 70


def scheduled_machine(system, gbps, env=None):
    """A machine on a link with no propagation delay: a prefetch issued
    at ``t`` on an idle link lands at exactly ``t``, and each one queued
    behind it one ``page_service_us`` later.  Pages 0-95 are touched
    once, so pages 0-31 are remote and 70-95 resident."""
    config = MachineConfig(
        local_memory_pages=SCHEDULED_LOCAL_PAGES,
        fabric=FabricConfig(base_latency_us=0.0, jitter_us=0.0,
                            spike_probability=0.0, gbps=gbps, seed=3),
        watermark_slack=4,
        compute_us_per_access=0.3,
        env=env or RunEnv(),
    )
    machine = systems.build(system).build(config)
    machine.register_process(1)
    machine.add_vma(1, 0, 4096, "test")
    machine.run([(1, vpn << PAGE_SHIFT) for vpn in range(96)],
                use_fast_path=False)
    return machine


def start_times(now, trace, cost):
    """Each access's start time when every access costs ``cost``: the
    oracle's own float additions."""
    out = []
    for _ in trace:
        out.append(now)
        now += cost
    return out


def replay_scheduled(system, trace, schedule, chunk, monkeypatch, gbps,
                     inject=True, env=None):
    """Schedule prefetches ``(vpn, access index, copies)`` to land at
    that access's start time (``copies`` extra requests queued behind
    each, one service time apart), then replay ``trace`` through the
    kernel and the oracle.  Returns both machines' states and the
    oracle's landing log ``(head arrival, now)`` per landing call."""
    states = []
    landings = []
    for fast in (True, False):
        machine = scheduled_machine(system, gbps, env)
        cost = T_DRAM_HIT_US + machine.config.compute_us_per_access
        times = start_times(machine.now_us, trace, cost)
        for vpn, index, copies in schedule:
            for extra in range(copies + 1):
                target = vpn + extra
                assert machine.prefetch_page(1, target, times[index], inject,
                                             "test") is not None
        if not fast:
            process_arrivals = machine._process_arrivals

            def logged(upto_us, machine=machine, real=process_arrivals):
                landings.append((machine._arrivals[0][0], upto_us))
                real(upto_us)

            machine._process_arrivals = logged
        monkeypatch.setattr(batchkernel, "CHUNK", chunk)
        machine.run(trace, use_fast_path=fast)
        states.append(machine_state(machine, system))
    return states[0], states[1], landings


def resident_runs(lengths, first=FIRST_RESIDENT_VPN):
    """Runs of the given lengths, each on its own resident page, so the
    LRU order a landing leaves behind lasts to the end of the trace."""
    trace = []
    for index, length in enumerate(lengths):
        vpn = first + index
        trace += [(1, (vpn << PAGE_SHIFT) | (k << BLOCK_SHIFT))
                  for k in range(length)]
    return trace


#: Run lengths that put scheduled arrivals at run starts, mid-run and
#: on a run's last access.
RUN_LENGTHS = (3, 1, 4, 2, 5, 1, 2, 6, 1, 3, 2, 4, 1, 1, 5, 3, 2, 2, 4, 1)
#: Runs starting at accesses 0, 6, 15, 17, 29, 34, 42, 43, 53, 60, 63
#: and 74: long enough for arrivals due mid-run.
MID_RUN_LENGTHS = (6, 9, 2, 12, 5, 8, 1, 10, 7, 3, 11, 4)


class TestKernelLandsArrivals:
    """The kernel lands due arrivals itself, as the oracle's first step
    for the access, and lets an access run while the next arrival is
    still ahead of its start.  Each case compares the kernel with the
    oracle, LRU order included, at chunk sizes that put chunk edges
    everywhere."""

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_arrival_due_exactly_at_now(self, chunk, monkeypatch):
        trace = resident_runs(RUN_LENGTHS)
        schedule = [(vpn, index, 0) for vpn, index in
                    zip(range(0, 16, 2), (2, 3, 7, 11, 16, 24, 31, 40))]
        fast, slow, landings = replay_scheduled(
            "noprefetch", trace, schedule, chunk, monkeypatch, gbps=1e4)
        assert fast == slow
        assert sum(head == now for head, now in landings) == len(schedule)

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize("system", ["noprefetch", "hopp"])
    def test_arrivals_closer_than_one_access_cost(self, system, chunk,
                                                  monkeypatch):
        # At 300 Gb/s a page occupies the link for 0.11 us, against
        # 0.4 us per access: every batch lands over two accesses, and
        # the access between its landings has a budget of one.
        trace = resident_runs(RUN_LENGTHS)
        schedule = [(0, 2, 5), (8, 13, 5), (16, 30, 5)]
        fast, slow, landings = replay_scheduled(
            system, trace, schedule, chunk, monkeypatch, gbps=300.0)
        assert fast == slow
        assert len(landings) >= 2 * len(schedule)

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize("inject", [True, False],
                             ids=["injected", "swapcache"])
    def test_arrival_on_the_page_being_accessed(self, inject, chunk,
                                                monkeypatch):
        # Page 0 lands at the start of its own first access: injected,
        # that access is the page's first touch (a DRAM prefetch hit);
        # otherwise it is a swapcache hit through the oracle.  The
        # telemetry trace records the hit at the machine's clock.
        from repro.telemetry import TelemetryConfig

        trace = resident_runs((3, 2))
        trace += [(1, k << BLOCK_SHIFT) for k in range(4)]
        trace += resident_runs((2, 3, 1), first=FIRST_RESIDENT_VPN + 2)
        fast, slow, landings = replay_scheduled(
            "noprefetch", trace, [(0, 5, 0)], chunk, monkeypatch,
            gbps=1e4, inject=inject,
            env=RunEnv(telemetry=TelemetryConfig(trace=True)))
        assert fast == slow
        result = fast[0]
        assert result["prefetch_hit_dram" if inject
                      else "prefetch_hit_swapcache"] == 1
        assert landings and landings[0][0] == landings[0][1]

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize("case", ["hopp", "fastswap", "hopp-telemetry"])
    def test_arrivals_due_mid_run(self, case, chunk, monkeypatch):
        # Runs of up to 12 accesses, with arrivals due mid-run, at a
        # run's last access and at the next run's first access.  The
        # kernel retires each run whole, lands what was due by the
        # start of its last access and touches the run's page again.
        # Hopp's extractions fire on the longer runs, after the landing.
        from repro.telemetry import TelemetryConfig

        system = "fastswap" if case == "fastswap" else "hopp"
        env = RunEnv(telemetry=TelemetryConfig()) if case.endswith(
            "telemetry") else None
        trace = resident_runs(MID_RUN_LENGTHS)
        schedule = [(vpn, index, copies) for vpn, index, copies in zip(
            range(0, 32, 3),
            (2, 5, 6, 9, 14, 20, 28, 29, 31, 46, 53),
            (0, 1, 0, 2, 0, 0, 1, 0, 0, 1, 0),
        )]
        fast, slow, landings = replay_scheduled(
            system, trace, schedule, chunk, monkeypatch, gbps=1e4, env=env)
        assert fast == slow
        assert len(landings) >= len(schedule)


class DemotingDepthN(DepthNPrefetcher):
    """Depth-16 whose hit feedback sends the page just hit to the cold
    end of the LRU: the kernel must touch the page before counting the
    hit, as the oracle does, or its touch would undo the demotion."""

    def on_prefetch_hit(self, pid, vpn, now_us, machine=None):
        machine.demote_page(pid, vpn)


DEMOTING = systems.SystemSpec(
    name="depth-16-demote",
    builder=lambda config: Machine(config, fault_prefetcher=DemotingDepthN(16)),
)


class TestKernelFirstTouches:
    """The first touch of an injected prefetch (a PRESENT page that
    still carries its prefetch bookkeeping) is retired in the kernel:
    LRU touch, then the hit count at the access's start time."""

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize("case", ["hopp", "depth-16", "hopp-telemetry"])
    def test_injected_first_touches_match_oracle(self, case, chunk,
                                                 monkeypatch):
        from repro.telemetry import TelemetryConfig

        system = "depth-16" if case == "depth-16" else "hopp"
        env = RunEnv(telemetry=TelemetryConfig()) if case.endswith(
            "telemetry") else None
        # Zipf-skewed short visits: first touches fall between flushes
        # of the kernel's clock, and arrivals land among short runs.
        workload = build("kv-cache", seed=3, operations=4000)
        trace = list(workload.trace())
        states = []
        for fast in (True, False):
            machine = make_machine(workload, system, 0.5, quiet_fabric(3),
                                   env=env)
            monkeypatch.setattr(batchkernel, "CHUNK", chunk)
            machine.run(trace, use_fast_path=fast)
            states.append(machine_state(machine, system))
        assert states[0] == states[1]
        assert states[0][0]["prefetch_hit_dram"] > 0

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_hit_feedback_that_demotes_the_page(self, chunk, monkeypatch):
        # One access per page visit: a demoted page stays at the cold
        # end until reclaim takes it.
        workload = build("stream-simple", seed=3, npages=160, passes=3,
                         blocks_per_page=1)
        trace = list(workload.trace())
        states = []
        for fast in (True, False):
            machine = make_machine(workload, DEMOTING, 0.5, quiet_fabric(3))
            monkeypatch.setattr(batchkernel, "CHUNK", chunk)
            machine.run(trace, use_fast_path=fast)
            states.append(machine_state(machine, DEMOTING.name))
        assert states[0] == states[1]
        assert states[0][0]["prefetch_hit_dram"] > 0


#: Run environments arming each remote-side component the CLI can arm,
#: alone and combined; armed runs take the batch kernel too.
ARMED_ENVS = {
    "empty-plan": RunEnv(fault_plan=FaultPlan.none()),
    "chaos": RunEnv(fault_plan=FaultPlan.chaos(7)),
    "crash-3-nodes": RunEnv(fault_plan=FaultPlan.crash(7),
                            cluster=ClusterConfig(nodes=3, replication=2)),
    "crash-rejoin": RunEnv(fault_plan=FaultPlan.crash_rejoin(7),
                           cluster=ClusterConfig(nodes=3, replication=2)),
    "corruption": RunEnv(fault_plan=FaultPlan.corruption(7),
                         cluster=ClusterConfig(nodes=3, replication=2)),
    "corruption-chaos-scrub": RunEnv(
        fault_plan=FaultPlan.corruption_chaos(7),
        cluster=ClusterConfig(nodes=3, replication=2), scrub=ScrubConfig()),
    "scrub": RunEnv(scrub=ScrubConfig()),
    "chaos-sanitizer": RunEnv(fault_plan=FaultPlan.chaos(7),
                              check_invariants=True),
    "sanitizer": RunEnv(check_invariants=True),
    "memtier-chaos": RunEnv(fault_plan=FaultPlan.chaos(7),
                            memtier=MemtierConfig()),
    # One copy per page, and a crash that a demand read detects between
    # heartbeats: it loses pages and queues no repair, so only the
    # post-recovery sweep makes the next access due.
    "crash-sanitizer": RunEnv(fault_plan=FaultPlan.crash(7, at_us=30_200.0),
                              cluster=ClusterConfig(nodes=3),
                              check_invariants=True),
}

#: (workload, system) pairs whose simulated run outlasts the plans'
#: crash times: hopp takes the tapped kernel, fastswap the tap-free one.
ARMED_PAIRS = [("npb-cg", "fastswap"), ("omp-kmeans", "hopp")]

_TRACES = {}
_ORACLE = {}


def armed_run(workload_name, system, env_name, fast, attach=None):
    """One replay under ``ARMED_ENVS[env_name]``, flushed the way the
    runner flushes it.  Returns the machine and the ``(accesses,
    now_us)`` of each sanitizer sweep."""
    if workload_name not in _TRACES:
        workload = build(workload_name, seed=7)
        _TRACES[workload_name] = (workload, list(workload.trace()))
    workload, trace = _TRACES[workload_name]
    machine = make_machine(workload, system, 0.5, FabricConfig(seed=7),
                           env=ARMED_ENVS[env_name])
    sweeps = []
    if machine.sanitizer is not None:
        check = machine.sanitizer.check

        def counting():
            sweeps.append((machine.accesses, machine.now_us))
            check()

        machine.sanitizer.check = counting
    if attach is not None:
        attach(machine)
    machine.run(trace, use_fast_path=fast)
    machine.flush_memtier()
    machine.flush_recovery()
    return machine, sweeps


def armed_state(machine, sweeps, system, workload_name):
    return collect(machine, system, workload_name).to_dict(full=True), sweeps


def armed_oracle(workload_name, system, env_name):
    """The oracle's result and sweeps, and how many accesses started on
    a resident page when a backend step or a sweep was due."""
    key = (workload_name, system, env_name)
    if key not in _ORACLE:
        due_resident = []

        def judge(machine):
            access = machine.access

            def judging(pid, vaddr, is_write=False):
                if machine._arrivals and machine._arrivals[0][0] <= machine.now_us:
                    machine._process_arrivals(machine.now_us)
                pte = machine.page_table(pid).peek(vaddr >> PAGE_SHIFT)
                sweep = machine.sanitizer is not None and (
                    (machine.accesses + 1) % SANITIZER_INTERVAL_ACCESSES == 0)
                if (pte is not None and pte.state is PteState.PRESENT and (
                        sweep or machine.now_us >= machine.backend.due_us())):
                    due_resident.append(machine.accesses)
                return access(pid, vaddr, is_write)

            machine.access = judging

        machine, sweeps = armed_run(workload_name, system, env_name, False,
                                    judge)
        _ORACLE[key] = (armed_state(machine, sweeps, system, workload_name),
                        len(due_resident))
    return _ORACLE[key]


class TestArmedRunsTakeTheKernel:
    """Fault plans, recovery, integrity, the CXL tier and the sanitizer
    replay through the batch kernel: it cuts its runs at the backend's
    next deadline and the sanitizer's next sweep, and sends the due
    access through Machine.access.  The result and every sweep's place
    must be the oracle's."""

    @pytest.mark.parametrize("env_name", sorted(ARMED_ENVS))
    @pytest.mark.parametrize("workload_name,system", ARMED_PAIRS,
                             ids=["/".join(p) for p in ARMED_PAIRS])
    def test_matches_oracle(self, workload_name, system, env_name):
        machine, sweeps = armed_run(workload_name, system, env_name, True)
        fast = armed_state(machine, sweeps, system, workload_name)
        slow, _ = armed_oracle(workload_name, system, env_name)
        assert fast == slow
        if machine.sanitizer is not None:
            assert len(sweeps) > 2

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize("env_name", ["chaos-sanitizer", "crash-3-nodes",
                                          "corruption-chaos-scrub"])
    def test_chunk_edges(self, env_name, chunk, monkeypatch):
        slow, _ = armed_oracle("npb-cg", "fastswap", env_name)
        monkeypatch.setattr(batchkernel, "CHUNK", chunk)
        machine, sweeps = armed_run("npb-cg", "fastswap", env_name, True)
        assert armed_state(machine, sweeps, "fastswap", "npb-cg") == slow

    @pytest.mark.parametrize("env_name", ["chaos-sanitizer", "crash-3-nodes",
                                          "corruption-chaos-scrub",
                                          "crash-sanitizer"])
    def test_access_is_called_per_fault_and_due_step(self, env_name):
        # The oracle counts the accesses that start on a resident page
        # when a backend step or a sweep is due; the kernel must send
        # exactly those, plus its faults, through Machine.access.
        calls = []
        runs = []

        def count(machine):
            access = machine.access
            process_run = machine.hopp.hpd.process_run

            def counting(pid, vaddr, is_write=False):
                calls.append(pid)
                return access(pid, vaddr, is_write)

            def counting_runs(ppn, reads):
                runs.append(reads)
                return process_run(ppn, reads)

            machine.access = counting
            machine.hopp.hpd.process_run = counting_runs

        machine, _ = armed_run("omp-kmeans", "hopp", env_name, True, count)
        _, due_resident = armed_oracle("omp-kmeans", "hopp", env_name)
        faults = (machine.minor_faults + machine.remote_demand_reads
                  + machine.prefetch_hit_swapcache
                  + machine.prefetch_hit_inflight)
        assert runs
        assert due_resident
        assert len(calls) == faults + due_resident
