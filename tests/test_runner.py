"""Tests for the runner, system registry, metrics, and multiprogram."""

import pytest

from repro.memtier import MemtierConfig
from repro.net.faults import FaultPlan
from repro.sim import runner, systems
from repro.sim.machine import RunEnv
from repro.sim.metrics import RunResult
from repro.sim.multiprogram import run_corun
from repro.telemetry import TelemetryConfig
from repro.workloads import build
from tests.conftest import quiet_fabric


def small_stream(**kwargs):
    return build("stream-simple", npages=200, passes=2, **kwargs)


class TestSystemsRegistry:
    def test_known_names(self):
        listed = systems.names()
        for expected in ("hopp", "fastswap", "leap", "depth-16", "depth-32",
                         "vma-readahead", "noprefetch", "majority-full"):
            assert expected in listed

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown system"):
            systems.build("bogus")

    def test_hopp_machine_has_data_plane(self):
        machine = runner.make_machine(small_stream(), "hopp", 0.5, quiet_fabric())
        assert machine.hopp is not None
        assert machine.fault_prefetcher.name == "fastswap"

    def test_fastswap_machine_has_no_plane_and_no_charging(self):
        machine = runner.make_machine(small_stream(), "fastswap", 0.5, quiet_fabric())
        assert machine.hopp is None
        assert machine.config.charge_prefetch is False

    def test_hopp_offset_variants(self):
        machine = runner.make_machine(small_stream(), "hopp-offset-20k", 0.5)
        assert machine.hopp.policy.config.adaptive is False
        assert machine.hopp.policy.config.initial_offset == 20_000.0

    def test_hopp_tier_variants(self):
        machine = runner.make_machine(small_stream(), "hopp-ssp", 0.5)
        tiers = machine.hopp.trainer.config
        assert tiers.enable_ssp and not tiers.enable_lsp and not tiers.enable_rsp

    def test_majority_full_is_swapcache_ssp(self):
        machine = runner.make_machine(small_stream(), "majority-full", 0.5)
        assert machine.hopp.config.inject_pte is False
        assert not machine.hopp.trainer.config.enable_lsp


class TestRunner:
    def test_run_returns_populated_result(self):
        result = runner.run(small_stream(), "fastswap", 0.5, quiet_fabric())
        assert isinstance(result, RunResult)
        assert result.system == "fastswap"
        assert result.workload == "stream-simple"
        assert result.completion_time_us > 0
        assert result.accesses == 200 * 2 * 8

    def test_deterministic_across_runs(self):
        a = runner.run(small_stream(seed=5), "hopp", 0.5, quiet_fabric())
        b = runner.run(small_stream(seed=5), "hopp", 0.5, quiet_fabric())
        assert a.completion_time_us == b.completion_time_us
        assert a.prefetch_issued == b.prefetch_issued
        assert a.remote_demand_reads == b.remote_demand_reads

    def test_local_fraction_means_no_remote(self):
        result = runner.run(small_stream(), "noprefetch", runner.LOCAL_FRACTION)
        assert result.remote_demand_reads == 0
        assert result.fabric_reads == 0

    def test_local_completion_time_is_lower_bound(self):
        wl = small_stream()
        ct_local = runner.local_completion_time(wl, quiet_fabric())
        remote = runner.run(wl, "fastswap", 0.3, quiet_fabric())
        assert 0 < ct_local < remote.completion_time_us

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            runner.run(small_stream(), "fastswap", 0.0)

    def test_hopp_extra_stats_populated(self):
        result = runner.run(small_stream(), "hopp", 0.5, quiet_fabric())
        assert "hpd_hot_page_ratio" in result.extra
        assert "rpt_cache_hit_rate" in result.extra
        assert 0 < result.extra["rpt_cache_hit_rate"] <= 1.0

    def test_compare_shares_baseline(self):
        comparison = runner.compare(
            small_stream(), ["fastswap", "hopp"], 0.5, quiet_fabric()
        )
        assert set(comparison.results) == {"fastswap", "hopp"}
        np_fast = comparison.normalized_performance("fastswap")
        np_hopp = comparison.normalized_performance("hopp")
        assert 0 < np_fast < 1
        assert np_hopp > np_fast
        assert comparison.speedup("hopp") > 0

    def test_compare_applies_env_to_systems_not_ct_local(self):
        wl = small_stream()
        fabric = quiet_fabric()
        env = RunEnv(memtier=MemtierConfig(), telemetry=TelemetryConfig())
        comparison = runner.compare(wl, ["fastswap", "hopp"], 0.5, fabric, env=env)
        for name in ("fastswap", "hopp"):
            result = comparison.results[name]
            assert result.memtier is not None
            assert result.telemetry is not None
            alone = runner.run(wl, name, 0.5, fabric, env=env)
            assert result.to_dict(full=True) == alone.to_dict(full=True)
        # CT_local stays the clean single-node yardstick.
        assert comparison.ct_local_us == runner.local_completion_time(wl, fabric)

    def test_env_is_keyword_only(self):
        # A stale positional call must not bind a fault plan to env.
        with pytest.raises(TypeError):
            runner.run(small_stream(), "hopp", 0.5, quiet_fabric(),
                       FaultPlan.chaos(1))


class TestMetrics:
    def test_accuracy_coverage_bounds(self):
        result = runner.run(small_stream(), "hopp", 0.5, quiet_fabric())
        assert 0.0 <= result.accuracy <= 1.0
        assert 0.0 <= result.coverage <= 1.0
        assert result.dram_hit_coverage <= result.coverage

    def test_prefetch_hits_sum(self):
        result = runner.run(small_stream(), "hopp", 0.5, quiet_fabric())
        assert result.prefetch_hits == (
            result.prefetch_hit_swapcache
            + result.prefetch_hit_inflight
            + result.prefetch_hit_dram
        )

    def test_speedup_vs_self_is_zero(self):
        result = runner.run(small_stream(), "fastswap", 0.5, quiet_fabric())
        assert result.speedup_vs(result) == pytest.approx(0.0)

    def test_tier_metrics(self):
        result = runner.run(small_stream(), "hopp", 0.5, quiet_fabric())
        assert result.tier_accuracy("ssp") > 0.5
        assert 0 <= result.tier_coverage("ssp") <= 1.0
        assert result.tier_coverage("nonexistent") == 0.0

    def test_remote_accesses_counts_all_fabric_reads(self):
        result = runner.run(small_stream(), "depth-16", 0.5, quiet_fabric())
        assert result.remote_accesses >= result.remote_demand_reads


class TestMultiprogram:
    def test_corun_two_apps(self):
        apps = [small_stream(seed=1), small_stream(seed=2)]
        result = run_corun(apps, "fastswap", 0.5, quiet_fabric())
        assert result.workload == "stream-simple+stream-simple"
        assert result.accesses == sum(200 * 2 * 8 for _ in apps)

    def test_corun_cgroup_isolation(self):
        from repro.sim import systems as sysmod

        apps = [small_stream(seed=1), small_stream(seed=2)]
        spec = sysmod.build("fastswap")
        # Build manually to introspect the machine.
        from repro.sim.multiprogram import run_corun as rc
        result = rc(apps, spec, 0.4, quiet_fabric())
        assert result.remote_demand_reads > 0  # both thrash their cgroups

    def test_corun_hopp_separates_by_pid(self):
        apps = [small_stream(seed=1), small_stream(seed=2)]
        hopp = run_corun(apps, "hopp", 0.5, quiet_fabric(), seed=3)
        fast = run_corun(apps, "fastswap", 0.5, quiet_fabric(), seed=3)
        assert hopp.completion_time_us < fast.completion_time_us
        assert hopp.accuracy > 0.9

    def test_empty_corun_rejected(self):
        with pytest.raises(ValueError):
            run_corun([], "fastswap")
