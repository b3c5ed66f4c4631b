"""Tests for the parallel fan-out engine.

The engine's contract is bit-level determinism: every RunSpec is a pure
function of its fields, so serial, parallel, cached, and trace-cached
execution must produce byte-identical RunResults, returned in input
order regardless of completion order.
"""

from __future__ import annotations

import pytest

from repro.analysis.sweeps import SweepPoint, sweep
from repro.exec.cache import ResultCache, TraceCache
from repro.exec.pool import execute, local_ct_spec, run_spec
from repro.exec.spec import RunSpec
from repro.sim import runner
from repro.sim.machine import RunEnv
from repro.telemetry import TelemetryConfig
from tests.conftest import quiet_fabric

SMALL = {"npages": 64, "passes": 1}


def grid(systems=("fastswap", "hopp"), fractions=(0.25, 0.5)):
    return [
        RunSpec(
            workload="stream-simple",
            system=system,
            fraction=fraction,
            seed=3,
            workload_kwargs=dict(SMALL),
            fabric=quiet_fabric(3),
        )
        for system in systems
        for fraction in fractions
    ]


def dicts(results):
    return [r.to_dict(full=True) for r in results]


class TestExecute:
    def test_parallel_equals_serial(self):
        specs = grid()
        serial = execute(specs, jobs=1)
        parallel = execute(specs, jobs=2)
        assert dicts(parallel) == dicts(serial)

    def test_results_are_input_ordered(self):
        specs = grid()
        results = execute(specs, jobs=2)
        for spec, result in zip(specs, results):
            assert result.system == spec.system

    def test_trace_cache_does_not_change_results(self):
        specs = grid()
        without = [run_spec(s) for s in specs]
        with_cache = execute(specs, trace_cache=TraceCache())
        assert dicts(with_cache) == dicts(without)

    def test_mixed_cache_hits_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = grid()
        execute(specs[:2], cache=cache)
        results = execute(specs, jobs=2, cache=cache)
        assert cache.hits == 2
        assert dicts(results) == dicts(execute(specs))

    def test_on_result_fires_in_input_order(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = grid()
        execute(specs[1:2], cache=cache)
        seen = []
        execute(
            specs,
            cache=cache,
            on_result=lambda i, spec, result, was_cached: seen.append(
                (i, spec.system, was_cached)
            ),
        )
        assert [i for i, _, _ in seen] == [0, 1, 2, 3]
        assert [cached for _, _, cached in seen] == [False, True, False, False]

    def test_local_ct_spec_matches_runner_reference(self):
        from repro.workloads import build

        spec = local_ct_spec("stream-simple", 3, quiet_fabric(3), SMALL)
        engine_ct = run_spec(spec).completion_time_us
        workload = build("stream-simple", seed=3, **SMALL)
        assert engine_ct == runner.local_completion_time(workload, quiet_fabric(3))


class TestWorkerClamp:
    def test_jobs_clamped_to_cpu_count_with_warning(self, monkeypatch, caplog):
        import logging

        import repro.exec.pool as pool_mod

        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 1)
        specs = grid()
        with caplog.at_level(logging.WARNING, logger="repro.exec.pool"):
            clamped = execute(specs, jobs=8)
        assert any("clamping jobs=8 to 1" in rec.getMessage()
                   for rec in caplog.records)
        # Clamping changes worker count, never results.
        assert dicts(clamped) == dicts(execute(specs, jobs=1))

    def test_jobs_within_cpu_count_does_not_warn(self, monkeypatch, caplog):
        import logging

        import repro.exec.pool as pool_mod

        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 64)
        specs = grid()
        with caplog.at_level(logging.WARNING, logger="repro.exec.pool"):
            execute(specs, jobs=2)
        assert not caplog.records

    def test_cpu_count_none_falls_back_to_one_worker(self, monkeypatch):
        import repro.exec.pool as pool_mod

        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: None)
        specs = grid()
        assert dicts(execute(specs, jobs=4)) == dicts(execute(specs, jobs=1))


class TestTelemetryOnPool:
    def telemetry_grid(self, **telemetry_kwargs):
        specs = grid()
        for spec in specs:
            spec.env = RunEnv(telemetry=TelemetryConfig(**telemetry_kwargs))
        return specs

    def test_timeseries_rides_the_worker_wire(self):
        # Per-run time-series telemetry serializes through the worker
        # wire format: parallel results must be byte-identical to
        # serial, telemetry blob included.
        specs = self.telemetry_grid(epoch_us=500.0)
        serial = execute(specs, jobs=1)
        parallel = execute(specs, jobs=2)
        assert dicts(parallel) == dicts(serial)
        for result in parallel:
            assert result.telemetry is not None
            assert result.telemetry["timeseries"]["epochs"] >= 1

    def test_trace_telemetry_refused_in_parallel(self):
        specs = self.telemetry_grid(trace=True)
        with pytest.raises(ValueError, match="trace-timeline"):
            execute(specs, jobs=2)

    def test_trace_telemetry_allowed_serially(self):
        # Two passes so evicted pages are re-faulted: a single pass
        # never revisits a page and leaves nothing on the timeline.
        spec = RunSpec(
            workload="stream-simple",
            system="hopp",
            fraction=0.25,
            seed=3,
            workload_kwargs={"npages": 64, "passes": 2},
            fabric=quiet_fabric(3),
            env=RunEnv(telemetry=TelemetryConfig(trace=True)),
        )
        result = execute([spec], jobs=1)[0]
        assert result.telemetry is not None
        assert result.telemetry["trace_events"]

    def test_refusal_names_the_offending_specs(self):
        specs = grid()
        specs[2].env = RunEnv(telemetry=TelemetryConfig(trace=True))
        with pytest.raises(ValueError, match=specs[2].label()):
            execute(specs, jobs=2)


class TestSweepOnEngine:
    def test_parallel_sweep_equals_serial_sweep(self):
        kwargs = dict(
            workloads=["stream-simple"],
            systems=["fastswap", "hopp"],
            fractions=[0.25, 0.5],
            seed=3,
            fabric=quiet_fabric(3),
            workload_kwargs={"stream-simple": dict(SMALL)},
        )
        serial = sweep(**kwargs)
        parallel = sweep(jobs=2, **kwargs)
        assert serial.points == parallel.points
        for point in serial.points:
            assert (
                parallel.results[point].to_dict(full=True)
                == serial.results[point].to_dict(full=True)
            )
        assert serial.ct_local == parallel.ct_local

    def test_cached_sweep_equals_fresh_sweep(self, tmp_path):
        cache = ResultCache(tmp_path)
        kwargs = dict(
            workloads=["stream-simple"],
            systems=["fastswap"],
            fractions=[0.5],
            seed=3,
            fabric=quiet_fabric(3),
            workload_kwargs={"stream-simple": dict(SMALL)},
        )
        fresh = sweep(**kwargs)
        sweep(cache=cache, **kwargs)  # populate
        warm = sweep(cache=cache, **kwargs)
        assert cache.hits > 0
        point = SweepPoint("stream-simple", "fastswap", 0.5, 3)
        assert (
            warm.results[point].to_dict(full=True)
            == fresh.results[point].to_dict(full=True)
        )
