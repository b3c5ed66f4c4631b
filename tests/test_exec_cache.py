"""Tests for the content-addressed result cache and its key discipline.

The cache's one job is to never serve a result for inputs that differ
from the ones that produced it.  These tests attack that from every
side: every RunSpec and RunEnv field must perturb the key, the
code-schema version must perturb the key, the default key is pinned,
and uncacheable specs must be refused rather than mis-keyed.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.exec import cache as cache_mod
from repro.exec.cache import ResultCache, TraceCache, cache_key, cacheability
from repro.exec.pool import execute, run_spec
from repro.exec.spec import RunSpec
from repro.integrity import ScrubConfig
from repro.memtier import MemtierConfig
from repro.net.faults import FaultPlan
from repro.net.rdma import FabricConfig
from repro.sim import systems as systems_mod
from repro.sim.machine import RunEnv
from repro.sim.systems import SystemSpec
from repro.telemetry import TelemetryConfig
from repro.workloads import registry as workload_registry
from repro.workloads.base import Workload
from tests.conftest import quiet_fabric


def small_spec(**overrides) -> RunSpec:
    base = dict(
        workload="stream-simple",
        system="fastswap",
        fraction=0.5,
        seed=3,
        workload_kwargs={"npages": 64, "passes": 1},
        fabric=quiet_fabric(3),
    )
    base.update(overrides)
    return RunSpec(**base)


class TestCacheKey:
    def test_identical_specs_share_a_key(self):
        assert cache_key(small_spec()) == cache_key(small_spec())

    @pytest.mark.parametrize(
        "override",
        [
            dict(workload="stream-ladder"),
            dict(system="hopp"),
            dict(fraction=0.25),
            dict(seed=4),
            dict(workload_kwargs={"npages": 65, "passes": 1}),
            dict(fabric=FabricConfig(seed=9)),
            dict(env=RunEnv(fault_plan=FaultPlan())),
            dict(env=RunEnv(fault_plan=FaultPlan.chaos(3))),
            dict(env=RunEnv(cluster=ClusterConfig(nodes=3))),
            dict(env=RunEnv(check_invariants=True)),
            dict(env=RunEnv(telemetry=TelemetryConfig())),
            dict(env=RunEnv(telemetry=TelemetryConfig(epoch_us=500.0))),
            dict(env=RunEnv(memtier=MemtierConfig())),
            dict(env=RunEnv(memtier=MemtierConfig(pool_nodes=2))),
            dict(env=RunEnv(memtier=MemtierConfig(pool_capacity_pages=128))),
            dict(env=RunEnv(memtier=MemtierConfig(cxl_latency_us=1.6))),
            dict(env=RunEnv(memtier=MemtierConfig(promote_touches=3))),
            dict(env=RunEnv(memtier=MemtierConfig(pool_high_watermark=0.8))),
            dict(env=RunEnv(scrub=ScrubConfig())),
            dict(env=RunEnv(scrub=ScrubConfig(rate_pages_per_s=1000.0))),
            dict(env=RunEnv(fault_plan=FaultPlan(bit_flip_read=0.01))),
            dict(env=RunEnv(fault_plan=FaultPlan(media_error_rate=0.05))),
            dict(system_kwargs={"hpd_threshold": 16}),
            dict(system_kwargs={"policy.alpha": 0.4}),
        ],
    )
    def test_every_field_perturbs_the_key(self, override):
        assert cache_key(small_spec(**override)) != cache_key(small_spec())

    def test_none_fabric_equals_default_fabric(self):
        # runner.run(fabric=None) constructs FabricConfig(); the two run
        # identically, so they must hash identically.
        assert cache_key(small_spec(fabric=None)) == cache_key(
            small_spec(fabric=FabricConfig())
        )

    def test_none_cluster_equals_default_cluster(self):
        # The default env's single-node cluster keys like an explicit
        # ClusterConfig() (they run identically).
        assert cache_key(small_spec()) == cache_key(
            small_spec(env=RunEnv(cluster=ClusterConfig()))
        )

    def test_empty_fault_plan_differs_from_none(self):
        # FaultPlan() arms the recovery machinery even with nothing in
        # it; None leaves it unbuilt.  They are different runs.
        assert cache_key(small_spec(env=RunEnv(fault_plan=FaultPlan()))) != cache_key(
            small_spec(env=RunEnv(fault_plan=None))
        )

    def test_default_telemetry_differs_from_none(self):
        # Probes never change simulator counters, but an instrumented
        # RunResult carries the telemetry blob — a different artifact.
        assert cache_key(
            small_spec(env=RunEnv(telemetry=TelemetryConfig()))
        ) != cache_key(small_spec(env=RunEnv(telemetry=None)))

    def test_default_key_is_pinned(self):
        # A drift here orphans every on-disk cache entry: change this
        # digest only together with a SCHEMA_VERSION bump.
        assert cache_mod.SCHEMA_VERSION == 6
        assert cache_key(small_spec()) == (
            "bb232eb6594d69b3124c25874057b5b6c287af0c7d84a2d4190c21499b814228"
        )

    def test_schema_version_perturbs_the_key(self, monkeypatch):
        before = cache_key(small_spec())
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION", cache_mod.SCHEMA_VERSION + 1)
        assert cache_key(small_spec()) != before

    def test_workload_kwargs_order_does_not_matter(self):
        a = small_spec(workload_kwargs={"npages": 64, "passes": 1})
        b = small_spec(workload_kwargs={"passes": 1, "npages": 64})
        assert cache_key(a) == cache_key(b)


#: A non-default value for every RunEnv field.
_NON_DEFAULT_ENV = {
    "fault_plan": FaultPlan(),
    "cluster": ClusterConfig(nodes=3),
    "check_invariants": True,
    "telemetry": TelemetryConfig(),
    "memtier": MemtierConfig(),
    "scrub": ScrubConfig(),
}


class TestRunnerSignatureAudit:
    @pytest.mark.parametrize("name", [f.name for f in fields(RunEnv)])
    def test_every_env_field_perturbs_the_key(self, name):
        """Every RunEnv field must reach the key, or the cache would
        serve one condition's result for another."""
        env = RunEnv(**{name: _NON_DEFAULT_ENV[name]})
        assert cache_key(small_spec(env=env)) != cache_key(small_spec())

    def test_spec_fields_map_onto_key_dict(self):
        key = small_spec().key_dict()
        assert set(key) == {
            "workload", "workload_kwargs", "seed", "system",
            "system_kwargs", "fraction", "fabric", "fault_plan", "cluster",
            "check_invariants", "telemetry", "memtier", "scrub",
        }
        # The projection must be JSON-stable (the hash input).
        json.dumps(key, sort_keys=True)


class _ForeignWorkload(Workload):
    pass


def _foreign_builder(config):  # pragma: no cover - never actually built
    raise AssertionError("should not run")


class TestCacheabilityRefusal:
    def test_repro_spec_is_cacheable(self):
        ok, why = cacheability(small_spec())
        assert ok and why == ""

    def test_unknown_workload_refused(self):
        ok, why = cacheability(small_spec(workload="no-such-workload"))
        assert not ok and "unknown workload" in why

    def test_unknown_system_refused(self):
        ok, why = cacheability(small_spec(system="no-such-system"))
        assert not ok and "unknown system" in why

    def test_user_registered_workload_refused(self, monkeypatch):
        _ForeignWorkload.__module__ = "userland.workloads"
        monkeypatch.setitem(
            workload_registry._REGISTRY, "foreign-wl", _ForeignWorkload
        )
        ok, why = cacheability(small_spec(workload="foreign-wl"))
        assert not ok and "user-registered" in why

    def test_user_registered_system_refused(self, monkeypatch):
        _foreign_builder.__module__ = "userland.systems"
        spec = SystemSpec(name="foreign-sys", builder=_foreign_builder)
        monkeypatch.setitem(systems_mod._REGISTRY, "foreign-sys", spec)
        ok, why = cacheability(small_spec(system="foreign-sys"))
        assert not ok and "user-registered" in why

    def test_refused_specs_never_touch_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec(workload="no-such-workload")
        assert cache.get(spec) is None
        assert cache.stats()["refused"] == 1
        assert list(tmp_path.rglob("*.json")) == []


class TestResultCacheRoundTrip:
    def test_miss_then_hit_is_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        assert cache.get(spec) is None
        fresh = run_spec(spec)
        cache.put(spec, fresh)
        cached = cache.get(spec)
        assert cached is not None
        assert cached.to_dict(full=True) == fresh.to_dict(full=True)
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1, "refused": 0}

    def test_execute_cached_equals_fresh(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec(system="hopp")
        cold = execute([spec], cache=cache)[0]
        warm = execute([spec], cache=cache)[0]
        uncached = execute([spec])[0]
        assert warm.to_dict(full=True) == cold.to_dict(full=True)
        assert warm.to_dict(full=True) == uncached.to_dict(full=True)
        assert cache.hits == 1 and cache.stores == 1

    def test_schema_bump_invalidates_stored_entry(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        cache.put(spec, run_spec(spec))
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION", cache_mod.SCHEMA_VERSION + 1)
        assert cache.get(spec) is None

    def test_tampered_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        path = cache.put(spec, run_spec(spec))
        payload = json.loads(path.read_text())
        payload["key"]["seed"] = 999  # key no longer matches the spec
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None


class TestTraceCache:
    def test_materialized_trace_matches_generator(self):
        traces = TraceCache()
        from repro.workloads import build

        workload = build("stream-simple", seed=3, npages=64, passes=1)
        assert traces.get("stream-simple", 3, {"npages": 64, "passes": 1}) == list(
            workload.trace()
        )
        assert traces.misses == 1
        traces.get("stream-simple", 3, {"npages": 64, "passes": 1})
        assert traces.hits == 1

    def test_capacity_bound_evicts_oldest(self):
        traces = TraceCache(capacity=1)
        traces.get("stream-simple", 3, {"npages": 16, "passes": 1})
        traces.get("stream-simple", 4, {"npages": 16, "passes": 1})
        traces.get("stream-simple", 3, {"npages": 16, "passes": 1})
        assert traces.misses == 3 and traces.hits == 0
