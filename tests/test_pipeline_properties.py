"""Property-based tests over the *full* HoPP pipeline: for arbitrary
access patterns, the machine + data plane must preserve the global
invariants the metrics depend on."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.runner import collect, make_machine
from repro.workloads import build
from tests.conftest import quiet_fabric

# Strategy: short segments of (base, length, stride) walks — enough to
# produce streams, jumps, and revisits without huge traces.
segments = st.lists(
    st.tuples(
        st.integers(0, 300),          # base vpn (offset from 1<<20)
        st.integers(1, 40),           # pages
        st.sampled_from([-2, -1, 1, 2, 3]),  # stride
    ),
    min_size=1,
    max_size=12,
)


def trace_from_segments(segs, blocks=8):
    base_vpn = 1 << 20
    for start, npages, stride in segs:
        vpn = base_vpn + start
        for _ in range(npages):
            if vpn >= base_vpn:
                for block in range(blocks):
                    yield 1, (vpn << 12) | (block << 6)
            vpn += stride


class TestPipelineInvariants:
    @given(segments)
    @settings(max_examples=25, deadline=None)
    def test_metric_bounds_and_conservation(self, segs):
        workload = build("stream-simple", npages=64)  # only for sizing
        machine = make_machine(workload, "hopp", 0.3, quiet_fabric())
        machine.run(trace_from_segments(segs))
        result = collect(machine, "hopp", "property")

        # Bounds.
        assert 0.0 <= result.accuracy <= 1.0
        assert 0.0 <= result.coverage <= 1.0
        assert result.prefetch_hits <= result.prefetch_issued
        assert result.prefetch_wasted <= result.prefetch_issued
        # Every access resolved exactly one way.
        classified = (
            result.minor_faults
            + result.remote_demand_reads
            + result.prefetch_hit_swapcache
            + result.prefetch_hit_inflight
        )
        assert classified <= result.accesses
        # Fabric reads = demand reads + issued prefetch pages.
        assert result.fabric_reads == (
            result.remote_demand_reads + result.prefetch_issued
        )
        # Residency never exceeds the cgroup limit.
        limit = machine.cgroups.get("default").limit_pages
        assert machine.resident_pages("default") <= limit
        assert machine.frames.used == machine.resident_pages("default")

    @given(segments)
    @settings(max_examples=15, deadline=None)
    def test_hopp_never_slower_than_noprefetch_by_much(self, segs):
        """Prefetching may waste bandwidth but must not catastrophically
        regress the access-path costs (its issue path is off the
        critical path; only pollution can hurt, bounded here)."""
        times = {}
        for system in ("noprefetch", "hopp"):
            workload = build("stream-simple", npages=64)
            machine = make_machine(workload, system, 0.3, quiet_fabric())
            machine.run(trace_from_segments(segs))
            times[system] = machine.now_us
        assert times["hopp"] <= times["noprefetch"] * 1.35 + 100.0

    @given(segments, st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_determinism(self, segs, seed):
        results = []
        for _ in range(2):
            workload = build("stream-simple", npages=64, seed=seed)
            machine = make_machine(workload, "hopp", 0.3, quiet_fabric(seed))
            machine.run(trace_from_segments(segs))
            results.append(
                (machine.now_us, machine.prefetch_issued,
                 machine.remote_demand_reads)
            )
        assert results[0] == results[1]
