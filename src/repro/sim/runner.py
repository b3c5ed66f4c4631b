"""Run workloads under system configurations and collect paper metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Union

from repro.net.rdma import FabricConfig
from repro.sim import systems as systems_mod
from repro.sim.machine import Machine, MachineConfig, RunEnv
from repro.sim.metrics import RunResult
from repro.sim.systems import SystemSpec
from repro.workloads.base import Workload

#: Local-memory fraction used when measuring CT_local (big enough that
#: nothing is ever reclaimed).
LOCAL_FRACTION = 4.0


def _resolve(system: Union[str, SystemSpec]) -> SystemSpec:
    if isinstance(system, SystemSpec):
        return system
    return systems_mod.build(system)


def make_machine(
    workload: Workload,
    system: Union[str, SystemSpec],
    local_memory_fraction: float = 0.5,
    fabric: Optional[FabricConfig] = None,
    *,
    env: Optional[RunEnv] = None,
) -> Machine:
    """Assemble a machine sized for ``workload`` and register its
    processes and VMAs."""
    if local_memory_fraction <= 0:
        raise ValueError("local_memory_fraction must be > 0")
    spec = _resolve(system)
    limit = max(int(math.ceil(workload.footprint_pages * local_memory_fraction)), 8)
    config = MachineConfig(
        local_memory_pages=limit,
        fabric=fabric or FabricConfig(),
        compute_us_per_access=workload.compute_us_per_access,
        env=env or RunEnv(),
    )
    machine = spec.build(config)
    for process in workload.processes:
        machine.register_process(process.pid, process.cgroup)
        for start_vpn, npages, name in process.vmas:
            machine.add_vma(process.pid, start_vpn, npages, name)
    return machine


def collect(machine: Machine, system_name: str, workload_name: str) -> RunResult:
    """Snapshot a machine's counters into a RunResult."""
    result = RunResult(
        system=system_name,
        workload=workload_name,
        completion_time_us=machine.now_us,
        accesses=machine.accesses,
        mc_reads=machine.controller.reads,
        minor_faults=machine.minor_faults,
        remote_demand_reads=machine.remote_demand_reads,
        prefetch_hit_swapcache=machine.prefetch_hit_swapcache,
        prefetch_hit_inflight=machine.prefetch_hit_inflight,
        prefetch_hit_dram=machine.prefetch_hit_dram,
        prefetch_issued=machine.prefetch_issued,
        prefetch_wasted=machine.prefetch_wasted,
        issued_by_tier=dict(machine.issued_by_tier),
        hits_by_tier=dict(machine.hits_by_tier),
        breakdown=machine.breakdown,
        reclaim_pages=machine.reclaimer.stats.pages_reclaimed,
        peak_resident_pages=machine.peak_resident_pages,
        dropped_prefetches=machine.dropped_prefetches,
        dropped_by_tier=dict(machine.dropped_by_tier),
        pages_salvaged=machine.pages_salvaged,
        compute_us=machine.compute_us,
        mc_writes=machine.controller.writes,
        mc_bytes=machine.controller.bytes_transferred,
        reclaim_batches=machine.reclaimer.stats.batches,
        reclaim_clean_drops=machine.reclaimer.stats.clean_drops,
        reclaim_writebacks=machine.reclaimer.stats.writebacks,
        reclaim_background_us=machine.reclaimer.stats.background_us,
        swapcache_inserts=machine.swapcache_inserts,
        swapcache_hits=machine.swapcache_hits,
        swapcache_drops=machine.swapcache_drops,
    )
    machine.backend.collect(result)
    if machine.sanitizer is not None:
        result.invariant_checks = machine.sanitizer.checks_run
    if machine.hopp is not None:
        plane = machine.hopp
        result.hopp_hot_pages_unresolved = plane.hot_pages_unresolved
        result.prefetch_duplicates = plane.executor.duplicates
        result.prefetch_rejected = plane.executor.rejected
        result.fabric_drop_signals = plane.executor.fabric_dropped
        if plane.executor.breaker is not None:
            result.degraded_mode_us = plane.executor.breaker.time_degraded_us(
                machine.now_us
            )
            result.breaker_opens = plane.executor.breaker.opens
            result.prefetch_suppressed = plane.executor.suppressed
        result.timeliness = plane.executor.timeliness
        result.extra.update(
            {
                "hpd_hot_page_ratio": plane.hpd.hot_page_ratio,
                "hpd_bandwidth_overhead": plane.hpd.bandwidth_overhead,
                "rpt_cache_hit_rate": plane.rpt_cache.hit_rate,
                "stt_streams_created": float(plane.stt.streams_created),
                "stt_observations": float(plane.stt.observations_out),
            }
        )
    if machine.telemetry is not None:
        result.telemetry = machine.telemetry.export(
            machine.now_us,
            node_metrics=[
                {
                    "node": node.node_id,
                    "remote": node.remote.metrics_snapshot(),
                    "fabric": node.fabric.metrics_snapshot(),
                }
                for node in machine.cluster.nodes
            ],
        )
    return result


def run(
    workload: Workload,
    system: Union[str, SystemSpec] = "hopp",
    local_memory_fraction: float = 0.5,
    fabric: Optional[FabricConfig] = None,
    *,
    env: Optional[RunEnv] = None,
    trace: Optional[Iterable] = None,
) -> RunResult:
    """Drive one workload through one system; the primary entry point.

    ``env`` carries the run's optional conditions (see :class:`RunEnv`);
    None is the paper's fault-free single-node configuration.
    ``trace`` overrides the workload's generated reference stream — the
    execution engine passes a materialized trace here so a sweep
    generates each workload's stream once instead of once per point."""
    spec = _resolve(system)
    machine = make_machine(workload, spec, local_memory_fraction, fabric, env=env)
    machine.run(workload.trace() if trace is None else trace)
    # Drain queued tier migrations, then let in-flight recovery converge
    # before measuring (both no-ops unless memtier / a fault plan armed
    # them); an armed sanitizer sweeps the end state.
    machine.flush_memtier()
    machine.flush_recovery()
    return collect(machine, spec.name, workload.name)


def local_completion_time(
    workload: Workload, fabric: Optional[FabricConfig] = None
) -> float:
    """CT_local: the all-in-local-memory baseline of Section VI-A."""
    result = run(workload, "noprefetch", LOCAL_FRACTION, fabric)
    return result.completion_time_us


@dataclass
class Comparison:
    """Results of one workload across systems, with the local baseline."""

    workload: str
    ct_local_us: float
    results: Dict[str, RunResult] = field(default_factory=dict)

    def normalized_performance(self, system: str) -> float:
        return self.results[system].normalized_performance(self.ct_local_us)

    def speedup(self, system: str, baseline: str = "fastswap") -> float:
        return self.results[system].speedup_vs(self.results[baseline])


def compare(
    workload: Workload,
    system_names: Iterable[str],
    local_memory_fraction: float = 0.5,
    fabric: Optional[FabricConfig] = None,
    *,
    env: Optional[RunEnv] = None,
) -> Comparison:
    """Run one workload under several systems on identical traces.

    ``env`` applies to every system under test, never to the CT_local
    reference (degraded or distributed hardware is the condition being
    measured, not the yardstick)."""
    comparison = Comparison(
        workload=workload.name,
        ct_local_us=local_completion_time(workload, fabric),
    )
    for name in system_names:
        comparison.results[name] = run(
            workload, name, local_memory_fraction, fabric, env=env
        )
    return comparison
