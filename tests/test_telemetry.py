"""Tests for the telemetry subsystem: event bus, windowed time-series,
and the trace/Prometheus exporters.

The two load-bearing contracts:

* **Null-object when disabled** — a run without telemetry emits no
  events and its RunResult is byte-identical to the same run with
  telemetry enabled, minus the ``telemetry`` blob (probes observe, they
  never perturb).
* **Reconciliation** — every per-epoch counter series sums exactly to
  the matching aggregate RunResult counter.  Telemetry is a
  re-bucketing of the same increments, never a second bookkeeping that
  can drift.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import replace

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.integrity import ScrubConfig
from repro.memtier import MemtierConfig
from repro.net.faults import FaultPlan
from repro.net.rdma import FabricConfig, RdmaFabric
from repro.sim import runner
from repro.sim.machine import RunEnv
from repro.telemetry import (
    Telemetry,
    TelemetryConfig,
    TimeSeriesEngine,
    TraceRecorder,
    chrome_trace,
    prometheus_snapshot,
)
from repro.telemetry.events import (
    EV_DEMAND_FAULT,
    EV_FABRIC_READ,
    EV_FABRIC_WRITE,
    EV_FETCH_LATENCY,
    EV_PREFETCH_HIT,
    EV_PREFETCH_ISSUE,
    EVENT_KINDS,
    EventBus,
)
from repro.telemetry.exporters import TRACE_PID
from repro.sim.metrics import RunResult
from repro.workloads import build

SEED = 7

#: name -> (workload, system, fraction, env).  Spans the probe surface:
#: prefetch lifecycle (hopp), retry/drop traffic (chaos), and node
#: transitions + repair (crash on a replicated cluster).
_CASES = {
    "prefetch": ("quicksort", "hopp", 0.5, RunEnv()),
    "chaos": ("kv-cache", "hopp", 0.5, RunEnv(fault_plan=FaultPlan.chaos(SEED))),
    "crash": (
        "quicksort", "noprefetch", 0.5,
        RunEnv(fault_plan=FaultPlan.crash(SEED),
               cluster=ClusterConfig(nodes=3, replication=2)),
    ),
}


@functools.lru_cache(maxsize=None)
def run_pair(case: str):
    """(disabled, enabled) RunResults for one case, computed once."""
    workload_name, system, fraction, env = _CASES[case]
    outs = []
    for telemetry in (None, TelemetryConfig(epoch_us=500.0, trace=True)):
        outs.append(
            runner.run(
                build(workload_name, seed=SEED),
                system,
                fraction,
                FabricConfig(seed=SEED),
                env=replace(env, telemetry=telemetry),
            )
        )
    return tuple(outs)


class TestEventBus:
    def test_unknown_kind_rejected(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="unknown event kind"):
            bus.emit("not_a_kind", 0.0)

    def test_counts_and_dispatch_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda kind, ts, fields: seen.append(("a", kind, ts)))
        bus.subscribe(lambda kind, ts, fields: seen.append(("b", kind, ts)))
        bus.emit(EV_DEMAND_FAULT, 1.0, pid=1, vpn=2)
        assert bus.events_emitted == 1
        assert seen == [("a", EV_DEMAND_FAULT, 1.0), ("b", EV_DEMAND_FAULT, 1.0)]

    def test_every_constant_is_in_the_closed_set(self):
        assert EV_DEMAND_FAULT in EVENT_KINDS
        assert len(EVENT_KINDS) == 23

    def test_fabric_emits_its_traffic_on_the_bus(self):
        fabric = RdmaFabric(FabricConfig(seed=SEED))
        bus = EventBus()
        seen = []
        bus.subscribe(lambda kind, ts, fields: seen.append((kind, ts, dict(fields))))
        fabric.bus = bus
        done = fabric.read_page(0.0)
        fabric.write_page(1.0)
        assert seen == [
            (EV_FABRIC_READ, 0.0, {"n": 1}),
            (EV_FETCH_LATENCY, done, {"latency_us": done}),
            (EV_FABRIC_WRITE, 1.0, {}),
        ]


class TestDisabledTelemetry:
    """``RunEnv(telemetry=None)`` builds no bus, so every probe site is
    a ``None`` check that never fires.  Every probe-bearing component is
    armed here: the swap path and HoPP engine, a 3-node replicated
    cluster's fabrics, recovery and integrity under a corruption-chaos
    plan, the memtier pool and the patrol scrubber.  Building an
    EventBus raises, so a probe that leaked onto the disabled path
    would fail the run, on the fast path or on the oracle."""

    def test_no_bus_is_built_with_every_component_armed(self, monkeypatch):
        def refuse(self):
            raise AssertionError("an EventBus was built with telemetry off")

        monkeypatch.setattr(EventBus, "__init__", refuse)
        env = RunEnv(
            fault_plan=FaultPlan.corruption_chaos(SEED),
            cluster=ClusterConfig(nodes=3, replication=2),
            memtier=MemtierConfig(),
            scrub=ScrubConfig(),
        )
        workload = build("quicksort", seed=SEED)
        trace = list(workload.trace())
        results = []
        for fast in (True, False):
            machine = runner.make_machine(
                workload, "hopp", 0.5, FabricConfig(seed=SEED), env=env
            )
            assert machine.telemetry is None
            machine.run(trace, use_fast_path=fast)
            machine.flush_memtier()
            machine.flush_recovery()
            results.append(runner.collect(machine, "hopp", "quicksort"))
        fast, oracle = results
        assert fast.to_dict(full=True) == oracle.to_dict(full=True)
        # Each component did work, so its probe sites were reached.
        assert fast.timeouts > 0 and fast.prefetch_issued > 0
        assert fast.integrity["corruption_detected"] > 0
        assert fast.integrity["scrub_detected"] > 0
        assert fast.memtier["pool_demand_reads"] > 0
        assert fast.memtier["far_demand_reads"] > 0


class TestEpochBucketing:
    def test_floor_and_boundary(self):
        engine = TimeSeriesEngine(epoch_us=100.0)
        assert engine.epoch_of(0.0) == 0
        assert engine.epoch_of(99.999) == 0
        # A timestamp exactly on a boundary opens the next epoch.
        assert engine.epoch_of(100.0) == 1
        assert engine.epoch_of(250.0) == 2

    def test_negative_timestamp_clamped_to_epoch_zero(self):
        engine = TimeSeriesEngine(epoch_us=100.0)
        assert engine.epoch_of(-0.5) == 0

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            TimeSeriesEngine(epoch_us=0.0)

    def test_events_bucket_into_their_epochs(self):
        engine = TimeSeriesEngine(epoch_us=100.0)
        engine.on_event(EV_DEMAND_FAULT, 50.0, {})
        engine.on_event(EV_DEMAND_FAULT, 100.0, {})
        engine.on_event(EV_FABRIC_READ, 150.0, {"n": 4})
        out = engine.export(end_us=250.0)
        assert out["epochs"] == 3
        assert out["series"]["demand_faults"] == [1, 1, 0]
        assert out["series"]["remote_reads"] == [0, 4, 0]

    def test_export_covers_events_past_end(self):
        engine = TimeSeriesEngine(epoch_us=100.0)
        engine.on_event(EV_DEMAND_FAULT, 950.0, {})
        out = engine.export(end_us=100.0)
        assert out["epochs"] == 10
        assert sum(out["series"]["demand_faults"]) == 1

    def test_derived_per_epoch_ratios(self):
        engine = TimeSeriesEngine(epoch_us=100.0)
        engine.on_event(EV_PREFETCH_ISSUE, 10.0, {"n": 4})
        for _ in range(3):
            engine.on_event(EV_PREFETCH_HIT, 20.0, {})
        engine.on_event(EV_DEMAND_FAULT, 30.0, {})
        out = engine.export(end_us=99.0)
        assert out["derived"]["accuracy"] == [pytest.approx(3 / 4)]
        assert out["derived"]["coverage"] == [pytest.approx(3 / 4)]

    def test_latency_block_has_none_for_empty_epochs(self):
        engine = TimeSeriesEngine(epoch_us=100.0)
        engine.on_event(EV_FETCH_LATENCY, 150.0, {"latency_us": 8.0})
        out = engine.export(end_us=299.0)
        block = out["fetch_latency_us"]
        assert block["count"] == [0, 1, 0]
        assert block["p50"][0] is None and block["p99"][0] is None
        assert block["p50"][1] is not None
        assert block["mean"][1] == pytest.approx(8.0)


class TestConfigValidation:
    def test_epoch_width_validated(self):
        with pytest.raises(ValueError):
            TelemetryConfig(epoch_us=-1.0)

    def test_trace_limit_validated(self):
        with pytest.raises(ValueError):
            TelemetryConfig(trace_limit=0)


@pytest.mark.parametrize("case", sorted(_CASES))
class TestProbesDoNotPerturb:
    def test_enabled_equals_disabled_modulo_blob(self, case):
        disabled, enabled = run_pair(case)
        assert enabled.telemetry is not None
        stripped = enabled.to_dict(full=True)
        del stripped["telemetry"]
        assert stripped == disabled.to_dict(full=True)

    def test_disabled_result_has_no_telemetry_key(self, case):
        disabled, _ = run_pair(case)
        assert disabled.telemetry is None
        assert "telemetry" not in disabled.to_dict(full=True)
        assert "telemetry" not in disabled.to_dict()


@pytest.mark.parametrize("case", sorted(_CASES))
class TestReconciliation:
    """Per-epoch sums must equal the aggregate counters *exactly*."""

    def series(self, case):
        _, enabled = run_pair(case)
        return enabled, enabled.telemetry["timeseries"]["series"]

    def test_demand_faults(self, case):
        result, series = self.series(case)
        assert sum(series["demand_faults"]) == result.remote_demand_reads

    def test_prefetch_lifecycle(self, case):
        result, series = self.series(case)
        assert sum(series["prefetch_issued"]) == result.prefetch_issued
        assert sum(series["prefetch_dropped"]) == result.dropped_prefetches
        assert sum(series["prefetch_hits"]) == (
            result.prefetch_hit_dram
            + result.prefetch_hit_swapcache
            + result.prefetch_hit_inflight
        )
        assert sum(series["prefetch_wasted"]) == result.prefetch_wasted
        assert sum(series["prefetch_suppressed"]) == result.prefetch_suppressed
        # Landings close issue spans: never more than delivered pages.
        assert sum(series["prefetch_landed"]) <= (
            result.prefetch_issued - result.dropped_prefetches
        )

    def test_fabric_traffic_includes_every_attempt(self, case):
        # Counts are emitted before the injector check, so timed-out
        # attempts and repair traffic reconcile with fabric counters.
        result, series = self.series(case)
        assert sum(series["remote_reads"]) == result.fabric_reads
        assert sum(series["remote_writes"]) == result.fabric_writes

    def test_retries(self, case):
        result, series = self.series(case)
        assert sum(series["retries"]) == result.retries

    def test_recovery_events(self, case):
        result, series = self.series(case)
        assert sum(series["repairs"]) == result.repair_writes
        if result.node_crashes:
            # A crash is at least one transition (UP -> DOWN).
            assert sum(series["node_transitions"]) >= result.node_crashes

    def test_timeliness_samples_match_histogram(self, case):
        result, series = self.series(case)
        expected = result.timeliness.stat.count if result.timeliness else 0
        block = result.telemetry["timeseries"]["timeliness_us"]
        assert sum(block["count"]) == expected

    def test_epoch_axis_is_dense_and_monotone(self, case):
        result, series = self.series(case)
        ts = result.telemetry["timeseries"]
        assert ts["epochs"] >= 1
        for name, values in series.items():
            assert len(values) == ts["epochs"], name


class TestChromeTrace:
    def trace(self):
        _, enabled = run_pair("prefetch")
        return enabled, chrome_trace(enabled.telemetry["trace_events"])

    def test_serializes_and_has_metadata(self):
        _, doc = self.trace()
        parsed = json.loads(json.dumps(doc))
        events = parsed["traceEvents"]
        names = [ev["name"] for ev in events if ev["ph"] == "M"]
        assert "process_name" in names
        assert names.count("thread_name") == 4

    def test_prefetch_lifecycle_spans_present(self):
        result, doc = self.trace()
        spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert any(ev["name"].startswith("prefetch:") for ev in spans)
        assert any(ev["name"] == "demand_fault" for ev in spans)
        hits = [
            ev for ev in doc["traceEvents"]
            if ev["ph"] == "i" and ev["name"].startswith("hit:")
        ]
        assert hits

    def test_events_are_well_formed(self):
        result, doc = self.trace()
        for ev in doc["traceEvents"]:
            assert ev["pid"] == TRACE_PID
            if ev["ph"] == "M":
                continue
            assert 0.0 <= ev["ts"] <= result.completion_time_us
            if ev["ph"] == "X":
                assert ev["dur"] >= 0

    def test_trace_limit_bounds_memory(self):
        workload = build("quicksort", seed=SEED)
        result = runner.run(
            workload, "hopp", 0.5, FabricConfig(seed=SEED),
            env=RunEnv(telemetry=TelemetryConfig(trace=True, trace_limit=5)),
        )
        blob = result.telemetry
        assert len(blob["trace_events"]) == 5
        assert blob["trace_truncated"] is True
        assert blob["trace_dropped"] > 0

    def test_recorder_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            TraceRecorder(EventBus(), limit=0)


_SAMPLE_RE = re.compile(
    r"^[a-z_][a-z0-9_]*(\{[a-z0-9_]+=\"[^\"]*\"(,[a-z0-9_]+=\"[^\"]*\")*\})? "
    r"-?[0-9][0-9a-z+-.]*$"
)


class TestPrometheus:
    def test_exposition_format(self):
        _, enabled = run_pair("prefetch")
        text = prometheus_snapshot(enabled)
        assert text.endswith("\n")
        families = {}
        for line in text.splitlines():
            if line.startswith("# TYPE"):
                _, _, name, kind = line.split()
                families[name] = kind
            elif not line.startswith("#"):
                assert _SAMPLE_RE.match(line), line
        # The _total suffix convention drives counter vs gauge.
        for name, kind in families.items():
            assert kind == ("counter" if name.endswith("_total") else "gauge")
        assert families["repro_accesses_total"] == "counter"
        assert families["repro_coverage_ratio"] == "gauge"

    def test_per_node_families_from_unified_snapshots(self):
        _, enabled = run_pair("crash")
        text = prometheus_snapshot(enabled)
        for node in range(3):
            assert f'node="{node}"' in text
        assert "repro_fabric_reads_total{" in text
        assert "repro_remote_pages_stored{" in text

    def test_recovery_counter_families_always_present(self):
        # Recovery counters default to 0 without an armed fault plan, so
        # the _total families must appear in every snapshot — dashboards
        # can rate() them without guarding against absent series.
        recovery = (
            "repro_node_crashes_total",
            "repro_node_rejoins_total",
            "repro_pages_repaired_total",
            "repro_pages_lost_total",
            "repro_pages_zero_filled_total",
            "repro_pages_salvaged_total",
            "repro_pages_drained_total",
            "repro_repair_reads_total",
            "repro_repair_writes_total",
            "repro_repair_bytes_total",
            "repro_repair_retries_total",
        )
        for case in ("prefetch", "crash"):
            _, enabled = run_pair(case)
            text = prometheus_snapshot(enabled)
            for family in recovery:
                assert f"# TYPE {family} counter" in text, (case, family)
                assert f"\n{family}{{" in text, (case, family)

    def test_recovery_counters_nonzero_after_crash(self):
        _, enabled = run_pair("crash")
        samples = {}
        for line in prometheus_snapshot(enabled).splitlines():
            if line and not line.startswith("#"):
                name_labels, value = line.split()
                samples[name_labels.split("{")[0]] = float(value)
        assert samples["repro_node_crashes_total"] > 0
        assert samples["repro_pages_repaired_total"] > 0

    def test_works_on_deserialized_result(self):
        _, enabled = run_pair("crash")
        revived = RunResult.from_dict(enabled.to_dict(full=True))
        assert prometheus_snapshot(revived) == prometheus_snapshot(enabled)

    def test_plain_result_without_telemetry_still_renders(self):
        disabled, _ = run_pair("prefetch")
        text = prometheus_snapshot(disabled)
        assert "repro_accesses_total" in text
        assert 'node="' not in text


class TestFacade:
    def test_export_shape_without_trace(self):
        telemetry = Telemetry(TelemetryConfig(epoch_us=250.0))
        telemetry.bus.emit(EV_DEMAND_FAULT, 10.0, pid=1, vpn=2)
        out = telemetry.export(end_us=500.0)
        assert out["config"]["epoch_us"] == 250.0
        assert out["events_total"] == 1
        assert "trace_events" not in out
        assert out["timeseries"]["series"]["demand_faults"] == [1, 0, 0]

    def test_export_is_json_serializable(self):
        _, enabled = run_pair("chaos")
        json.dumps(enabled.telemetry)
