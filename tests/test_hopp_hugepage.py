"""Tests for the Section IV huge-page batch prefetching extension."""

import random

import pytest

from repro.hopp.hugepage import HugePageBatcher
from repro.kernel.page_table import PteState
from repro.net.faults import FaultPlan
from repro.sim import runner, systems
from repro.sim.machine import Machine, MachineConfig, RunEnv
from repro.sim.multiprogram import build_corun_machine, interleave_traces
from repro.workloads import build
from tests.conftest import quiet_fabric, touch_pages


class RecordingBatchBackend:
    def __init__(self, respond=True):
        self.respond = respond
        self.batches = []

    def prefetch_batch(self, pid, start_vpn, npages, now_us, inject_pte, tier):
        self.batches.append((pid, start_vpn, npages, inject_pte, tier))
        return now_us + 100.0 if self.respond else None


class TestHugePageBatcher:
    def feed_stream(self, batcher, count, start=0, stride=1, stream_id=0):
        absorbed = []
        vpn = start
        for i in range(count):
            absorbed.append(batcher.observe(stream_id, 1, vpn, stride, float(i)))
            vpn += stride
        return absorbed

    def test_no_batching_before_stream_len(self):
        backend = RecordingBatchBackend()
        batcher = HugePageBatcher(backend, stream_len=50, batch_pages=64)
        absorbed = self.feed_stream(batcher, 49)
        assert not any(absorbed)
        assert backend.batches == []

    def test_batches_after_graduation(self):
        backend = RecordingBatchBackend()
        batcher = HugePageBatcher(backend, stream_len=10, batch_pages=64)
        absorbed = self.feed_stream(batcher, 20, start=1000)
        assert any(absorbed)
        assert backend.batches
        # Batch starts are region-aligned.
        for _, start, npages, inject, tier in backend.batches:
            assert start % 64 == 0
            assert npages == 64
            assert inject is True
            assert tier == "huge"

    def test_one_attempt_per_region(self):
        backend = RecordingBatchBackend()
        batcher = HugePageBatcher(backend, stream_len=4, batch_pages=64)
        self.feed_stream(batcher, 60, start=0)
        # Regions entered: 0 (graduation at vpn ~4); attempts cover
        # region 0 (step 0) and region 1 (step 1) exactly once.
        starts = [start for _, start, _, _, _ in backend.batches]
        assert len(starts) == len(set(starts))

    def test_failed_batches_not_absorbed(self):
        backend = RecordingBatchBackend(respond=False)
        batcher = HugePageBatcher(backend, stream_len=4, batch_pages=64)
        absorbed = self.feed_stream(batcher, 30)
        # Nothing was fetchable: the single-page path must stay active.
        assert not any(absorbed)
        assert batcher.batches_issued == 0

    def test_non_unit_stride_resets(self):
        backend = RecordingBatchBackend()
        batcher = HugePageBatcher(backend, stream_len=8, batch_pages=64)
        for i in range(6):
            batcher.observe(0, 1, i, 1, 0.0)
        batcher.observe(0, 1, 100, 8, 0.0)  # big jump, stride 8
        assert batcher._progress[0].consecutive_unit == 0

    def test_descending_stream_batches_backward(self):
        backend = RecordingBatchBackend()
        batcher = HugePageBatcher(backend, stream_len=4, batch_pages=64)
        self.feed_stream(batcher, 20, start=1000, stride=-1)
        assert backend.batches
        # Region ahead of a descending stream is below the current one.
        current_region = (1000 // 64) * 64
        starts = {start for _, start, _, _, _ in backend.batches}
        assert any(start < current_region for start in starts)

    def test_negative_regions_skipped(self):
        backend = RecordingBatchBackend()
        batcher = HugePageBatcher(backend, stream_len=2, batch_pages=64)
        self.feed_stream(batcher, 10, start=10, stride=-1)
        assert all(start >= 0 for _, start, _, _, _ in backend.batches)

    def test_validation(self):
        with pytest.raises(ValueError):
            HugePageBatcher(RecordingBatchBackend(), stream_len=0)
        with pytest.raises(ValueError):
            HugePageBatcher(RecordingBatchBackend(), batch_pages=0)


class TestMachineBatchPrefetch:
    def make(self, limit=64):
        machine = Machine(
            MachineConfig(local_memory_pages=limit, fabric=quiet_fabric(),
                          watermark_slack=4)
        )
        machine.register_process(1)
        return machine

    def test_batch_fetches_only_remote_pages(self):
        machine = self.make(limit=8)
        touch_pages(machine, 1, range(16))  # 0..7 remote now
        arrival = machine.prefetch_batch(1, 0, 8, machine.now_us, True, "huge")
        assert arrival is not None
        assert machine.issued_by_tier["huge"] > 0
        # Untouched pages beyond the footprint are not fetched.
        before = machine.prefetch_issued
        assert machine.prefetch_batch(1, 1000, 8, machine.now_us, True, "huge") is None
        assert machine.prefetch_issued == before

    def test_batch_pages_injected_on_arrival(self):
        machine = self.make(limit=8)
        touch_pages(machine, 1, range(16))
        arrival = machine.prefetch_batch(1, 0, 4, machine.now_us, True, "huge")
        machine.now_us = arrival + 1.0
        machine.access(1, 200 << 12)  # drain arrivals
        remote_left = [
            vpn for vpn in range(4)
            if machine.page_state(1, vpn) == PteState.REMOTE
        ]
        assert remote_left == []

    def test_batch_arrivals_progressive(self):
        machine = self.make(limit=8)
        touch_pages(machine, 1, range(16))
        machine.prefetch_batch(1, 0, 4, machine.now_us, True, "huge")
        arrivals = sorted(a for a, _, _, _ in machine._arrivals)
        assert arrivals == sorted(set(arrivals))  # strictly increasing
        # Pages stream at link rate after one propagation delay.
        gap = arrivals[1] - arrivals[0]
        assert gap == pytest.approx(
            machine.cluster.nodes[0].fabric.page_service_us
        )

    def test_single_fabric_request_counts_pages(self):
        machine = self.make(limit=8)
        touch_pages(machine, 1, range(16))
        fabric = machine.cluster.nodes[0].fabric
        reads_before = fabric.reads
        machine.prefetch_batch(1, 0, 8, machine.now_us, True, "huge")
        fetched = fabric.reads - reads_before
        assert fetched > 0

    def test_unknown_pid_rejected(self):
        machine = self.make()
        assert machine.prefetch_batch(99, 0, 8, 0.0, True, "huge") is None


class TestHoppHugeSystem:
    def test_hopp_huge_graduates_on_long_stream(self):
        import repro
        from tests.conftest import quiet_fabric

        wl = repro.workloads.build("stream-simple", npages=1500, passes=2)
        result = repro.run(wl, "hopp-huge", 0.75, quiet_fabric())
        assert result.issued_by_tier.get("huge", 0) > 0
        # Batch requests replace most single-page SSP requests.
        assert result.issued_by_tier.get("huge", 0) > result.issued_by_tier.get("ssp", 0)

    def test_hopp_huge_matches_hopp_with_headroom(self):
        import repro
        from tests.conftest import quiet_fabric

        wl = repro.workloads.build("stream-simple", npages=3000, passes=2)
        hopp = repro.run(wl, "hopp", 0.75, quiet_fabric())
        huge = repro.run(wl, "hopp-huge", 0.75, quiet_fabric())
        assert huge.completion_time_us <= hopp.completion_time_us * 1.05
        assert huge.prefetch_wasted <= hopp.prefetch_wasted + 32


class TestBatchRefusals:
    """hopp-huge runs that reach each way ``Machine.prefetch_batch``
    turns pages away, with the sanitizer armed throughout."""

    def _stream(self):
        return build("stream-simple", npages=1500, passes=2)

    def _hostile(self, system):
        # Every prefetch READ loses its completion for the whole run.
        plan = FaultPlan(prefetch_down=((0.0, 1e12),))
        return runner.make_machine(
            self._stream(), system, 0.75, quiet_fabric(),
            env=RunEnv(fault_plan=plan, check_invariants=True),
        )

    def test_dropped_batches_are_counted_and_unwound(self):
        # With the breaker off every batch is issued and dropped.
        machine = self._hostile(
            systems.variant("hopp-huge", {"breaker.enabled": False})
        )
        machine.run(self._stream().trace())
        machine.flush_recovery()
        dropped = machine.dropped_by_tier.get("huge", 0)
        assert dropped == 1158
        assert machine.issued_by_tier["huge"] == dropped
        assert "huge" not in machine.hits_by_tier
        assert machine.sanitizer.checks_run > 0

    def test_the_breaker_refuses_batches_on_a_hostile_fabric(self):
        # hopp-huge's breaker opens on the SSP tier's drops, then turns
        # away every 2 MB request: the huge tier drops nothing.
        machine = self._hostile("hopp-huge")
        executor = machine.hopp.executor
        requests = []
        gate = executor.prefetch_batch

        def counted(*args, **kwargs):
            requests.append(args)
            return gate(*args, **kwargs)

        executor.prefetch_batch = counted
        passed = []
        batch = machine.prefetch_batch

        def reached(*args, **kwargs):
            passed.append(args)
            return batch(*args, **kwargs)

        machine.prefetch_batch = reached
        machine.run(self._stream().trace())
        machine.flush_recovery()
        assert machine.dropped_by_tier.get("huge", 0) == 0
        assert "huge" not in machine.issued_by_tier
        # Half the requests met an open breaker; the rest went out as
        # probes or while it was closed and found nothing remote.
        assert (len(requests), len(passed)) == (12, 6)
        assert executor.suppressed == 1478 + 6
        assert executor.breaker.opens == 8
        assert machine.sanitizer.checks_run > 0

    def test_admission_gate_refuses_whole_batches(self):
        workload = self._stream()
        machine = runner.make_machine(
            workload, "hopp-huge", 0.75, quiet_fabric(),
            env=RunEnv(check_invariants=True),
        )
        machine.prefetch_admission = lambda pid, tier, now_us: tier != "huge"
        machine.run(workload.trace())
        machine.flush_recovery()
        # Only the batch path asks for tier "huge": every throttled page
        # is one of its pages, and none was issued.
        assert machine.prefetch_throttled > 0
        assert "huge" not in machine.issued_by_tier
        assert machine.sanitizer.checks_run > 0

    def test_strict_co_run_refuses_batch_pages_past_the_budget(self):
        apps = [build("stream-simple", seed=s, npages=600, passes=2)
                for s in (1, 2)]
        config = MachineConfig(
            local_memory_pages=sum(app.footprint_pages for app in apps),
            fabric=quiet_fabric(),
            strict_cgroup_prefetch=True,
            env=RunEnv(check_invariants=True),
        )
        machine, traces = build_corun_machine(
            apps, systems.build("hopp-huge"), 0.5, config
        )
        batch = machine.prefetch_batch
        refused_in_batches = 0
        read_in_batches = 0
        landed_in_batches = 0

        def counted_batch(*args, **kwargs):
            # The strict refusals the cgroups count inside one batch, and
            # the pages it reads over the fabric and lands.
            nonlocal refused_in_batches, read_in_batches, landed_in_batches
            refused = sum(group.overlimit_rejects for group in machine.cgroups)
            reads = machine.cluster.fabric_reads
            landed = machine.issued_by_tier.get("huge", 0)
            arrival = batch(*args, **kwargs)
            refused_in_batches += (
                sum(group.overlimit_rejects for group in machine.cgroups)
                - refused
            )
            read_in_batches += machine.cluster.fabric_reads - reads
            landed_in_batches += machine.issued_by_tier.get("huge", 0) - landed
            return arrival

        machine.prefetch_batch = counted_batch
        machine.run(interleave_traces(traces, random.Random(5)))
        machine.flush_recovery()
        assert refused_in_batches == 768
        # A refused page is turned away before the READ: every page the
        # batches read landed.
        assert read_in_batches == landed_in_batches == 14
        assert machine.issued_by_tier["huge"] > 0
        for group in machine.cgroups:
            assert group.charged <= group.limit_pages
        assert machine.sanitizer.checks_run > 0
