"""The tenant-scale scenario engine: overload, shedding, elasticity.

One scenario drives a fleet of tenants (:mod:`repro.scenario.traffic`)
through the co-run machine in *rounds*.  Each round:

1. **Arrivals** — tenants whose ``start_round`` has come ask the
   :class:`~repro.scenario.admission.AdmissionController` for
   admission; a typed rejection parks them for retry next round.
2. **Traffic** — every admitted tenant offers
   ``accesses_per_round * intensity * slice_factor`` accesses from its
   own trace; slices are interleaved with the same seeded time-slice
   merge the Figure-15 co-runs use and driven through the machine.
3. **Control** — a pressure signal (bulk-QP backlog and demand-fault
   p99 against the guaranteed SLO) feeds the degradation ladder and
   the :class:`~repro.scenario.autoscaler.Autoscaler`; degraded
   tenants' PIDs drop to the bulk QP for the next round.

Chaos composes: an overlay :class:`~repro.net.faults.FaultPlan`
(crash, crash-rejoin, full chaos) runs underneath, and the machine is
built with ``absorb_fatal_faults=True`` so even a retry-exhausted
demand read degrades to a counted zero-fill instead of an unhandled
exception — the engine's never-crash contract.

Everything the ladder sheds, the autoscaler moves, and the SLO tracker
observes lands in ``RunResult.scenario`` — absent (and byte-identical
to the goldens) for every non-scenario run.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cluster.cluster import ClusterConfig
from repro.common.stats import Histogram
from repro.net.faults import FaultPlan
from repro.net.rdma import FabricConfig
from repro.scenario.admission import (
    AdmissionController,
    AdmissionRejectedError,
    LadderConfig,
)
from repro.scenario.autoscaler import Autoscaler, AutoscalerConfig
from repro.scenario.slo import SloTarget, SloTracker
from repro.scenario.traffic import (
    TIER_GUARANTEED,
    TenantSpec,
    build_fleet,
    intensity,
)
from repro.sim import systems as systems_mod
from repro.sim.machine import Machine, MachineConfig, RunEnv
from repro.sim.metrics import RunResult
from repro.sim.multiprogram import (
    PID_STRIDE,
    attach_workload,
    interleave_traces,
)
from repro.sim.runner import collect
from repro.telemetry import TelemetryConfig
from repro.telemetry.events import EV_DEMAND_FAULT


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of one overload scenario."""

    name: str
    tenants: Tuple[TenantSpec, ...]
    rounds: int = 8
    #: Base access quota per tenant-round, scaled by pattern intensity.
    accesses_per_round: int = 400
    system: str = "hopp"
    local_memory_fraction: float = 0.5
    #: Initially placeable remote nodes.
    remote_nodes: int = 2
    #: Extra nodes built into the cluster but parked in standby for the
    #: autoscaler to rack in.
    standby_nodes: int = 1
    replication: int = 1
    #: Fabric shaping; None takes the defaults.  The SLO bench narrows
    #: the link to manufacture saturation.
    fabric: Optional[FabricConfig] = None
    #: Chaos overlay; None still arms recovery with an empty plan.
    fault_plan: Optional[FaultPlan] = None
    seed: int = 1
    epoch_us: float = 1000.0
    #: Declarative tier objectives.  The guaranteed ceiling doubles as
    #: the pressure normalizer: demand-fault p99 at the ceiling reads
    #: as pressure 1.0, which is exactly the ladder's default enter
    #: threshold.
    slo_guaranteed: SloTarget = SloTarget(p99_us=80.0, max_lost=0)
    slo_best_effort: SloTarget = SloTarget(p99_us=250.0, max_lost=2)
    ladder: LadderConfig = LadderConfig()
    autoscaler: AutoscalerConfig = AutoscalerConfig()
    check_invariants: bool = True
    slice_accesses: int = 64
    #: Horizon (us) over which bulk-QP backlog normalizes to pressure 1.0.
    pressure_window_us: float = 2_000.0

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("a scenario needs at least one tenant")
        if self.rounds < 1 or self.accesses_per_round < 1:
            raise ValueError("rounds and accesses_per_round must be >= 1")
        if self.remote_nodes < 1 or self.standby_nodes < 0:
            raise ValueError("remote_nodes >= 1, standby_nodes >= 0")
        if not 1 <= self.replication <= self.remote_nodes:
            raise ValueError(
                "replication must fit the initially active nodes"
            )

    def target_for(self, spec: TenantSpec) -> SloTarget:
        if spec.tier == TIER_GUARANTEED:
            return self.slo_guaranteed
        return self.slo_best_effort


class _Tenant:
    """Engine-side state for one admitted tenant."""

    def __init__(self, index: int, spec: TenantSpec, machine: Machine) -> None:
        self.index = index
        self.spec = spec
        self.workload = spec.build_workload()
        self.trace: Iterator[Tuple[int, int]] = attach_workload(
            machine,
            self.workload,
            index,
            spec.limit_fraction,
            cgroup_name=f"tenant-{index}-{spec.name}",
        )
        self.pids = frozenset(
            process.pid + index * PID_STRIDE
            for process in self.workload.processes
        )
        self.offered = 0

    def take(self, n: int) -> List[Tuple[int, int]]:
        """Next ``n`` accesses; the trace re-arms when it drains so a
        tenant keeps offering load for as long as the scenario runs."""
        out = list(itertools.islice(self.trace, n))
        while len(out) < n:
            offset = self.index * PID_STRIDE
            self.trace = (
                (pid + offset, vaddr)
                for pid, vaddr in self.workload.trace()
            )
            got = list(itertools.islice(self.trace, n - len(out)))
            if not got:
                break
            out.extend(got)
        self.offered += len(out)
        return out


class _RoundLatency:
    """Bus subscriber that windows demand-fault latency per round."""

    def __init__(self) -> None:
        self._hist = Histogram()

    def on_event(self, kind: str, ts_us: float, fields: Dict) -> None:
        if kind == EV_DEMAND_FAULT:
            self._hist.add(float(fields.get("cost_us", 0.0)))

    def p99_and_reset(self) -> float:
        p99 = self._hist.quantile(0.99)
        self._hist = Histogram()
        return p99


def _build_machine(config: ScenarioConfig) -> Machine:
    workloads = [spec.build_workload() for spec in config.tenants]
    total_nodes = config.remote_nodes + config.standby_nodes
    machine_config = MachineConfig(
        local_memory_pages=sum(w.footprint_pages for w in workloads),
        compute_us_per_access=sum(w.compute_us_per_access for w in workloads)
        / len(workloads),
        fabric=config.fabric or FabricConfig(),
        env=RunEnv(
            # Recovery is always armed: the autoscaler and the chaos
            # overlay both need the monitor/repair machinery.
            fault_plan=config.fault_plan or FaultPlan(),
            cluster=ClusterConfig(
                nodes=total_nodes, replication=config.replication
            ),
            check_invariants=config.check_invariants,
            telemetry=TelemetryConfig(epoch_us=config.epoch_us),
        ),
        strict_cgroup_prefetch=True,
        absorb_fatal_faults=True,
    )
    spec = systems_mod.build(config.system)
    machine = spec.build(machine_config)
    # Park the elastic headroom in standby before any page lands.
    for node_id in range(config.remote_nodes, total_nodes):
        machine.backend.health.retire(node_id)
    return machine


def _pressure(
    machine: Machine, round_p99: float, config: ScenarioConfig
) -> float:
    """Max of bulk-QP backlog (normalized to the pressure window) and
    demand-fault p99 (normalized to the guaranteed SLO) over active
    nodes — whichever bottleneck is angrier."""
    health = machine.backend.health
    backlog = 0.0
    for node in machine.cluster.nodes:
        if health.is_standby(node.node_id) or not health.is_placeable(
            node.node_id
        ):
            continue
        busy = node.fabric.stats_snapshot()["link_busy_until_us"]
        backlog = max(backlog, busy - machine.now_us)
    return max(
        backlog / config.pressure_window_us,
        round_p99 / config.slo_guaranteed.p99_us,
    )


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Drive one scenario end to end; returns the standard
    :class:`RunResult` with its ``scenario`` section attached."""
    machine = _build_machine(config)

    controller = AdmissionController(config.ladder)
    controller.attach_pid_stride(PID_STRIDE)
    machine.prefetch_admission = controller.prefetch_gate
    autoscaler = Autoscaler(machine, config.autoscaler)

    name_of_index = {
        index: spec.name for index, spec in enumerate(config.tenants)
    }
    tracker = SloTracker(
        epoch_us=config.epoch_us,
        tenant_of=lambda pid: name_of_index.get(pid // PID_STRIDE),
        targets={
            spec.name: config.target_for(spec) for spec in config.tenants
        },
    )
    machine.telemetry.bus.subscribe(tracker.on_event)
    window = _RoundLatency()
    machine.telemetry.bus.subscribe(window.on_event)

    admitted: Dict[int, _Tenant] = {}
    pending = {
        index: spec for index, spec in enumerate(config.tenants)
    }
    deferrals = 0
    rounds_series: List[Dict[str, object]] = []
    pressure = 0.0

    for rnd in range(config.rounds):
        # -- 1: arrivals through the admission gate ------------------------------------
        arrived: List[str] = []
        for index in sorted(pending):
            spec = pending[index]
            if spec.start_round > rnd:
                continue
            try:
                controller.admit(index, spec, machine.now_us)
            except AdmissionRejectedError:
                deferrals += 1
                continue
            del pending[index]
            admitted[index] = _Tenant(index, spec, machine)
            arrived.append(spec.name)

        # -- 2: offered traffic, shaped by pattern and ladder --------------------------
        slices: List[Iterator[Tuple[int, int]]] = []
        offered = 0
        for index in sorted(admitted):
            tenant = admitted[index]
            scale = intensity(
                tenant.spec.pattern, tenant.spec.seed, rnd, config.rounds
            ) * controller.slice_factor(index)
            quota = int(config.accesses_per_round * scale)
            if quota <= 0:
                continue
            chunk = tenant.take(quota)
            if chunk:
                offered += len(chunk)
                slices.append(iter(chunk))
        if slices:
            rng = random.Random(config.seed * 9_176 + rnd)
            machine.run(
                interleave_traces(rng=rng, traces=slices,
                                  slice_accesses=config.slice_accesses)
            )

        # -- 3: control loop -----------------------------------------------------------
        pressure = _pressure(machine, window.p99_and_reset(), config)
        level = controller.update(pressure, machine.now_us)
        degraded = controller.degraded_tenants()
        machine.deprioritized_pids = set().union(
            *(admitted[i].pids for i in degraded if i in admitted)
        ) if degraded else set()
        action = autoscaler.observe(pressure, rnd)
        rounds_series.append(
            {
                "round": rnd,
                "offered": offered,
                "arrived": arrived,
                "pressure": round(pressure, 4),
                "level": level,
                "active_nodes": len(autoscaler.active_nodes()),
                "autoscale": action,
            }
        )

    # Converge recovery (ending with the sanitizer's final sweep), then
    # measure.
    machine.flush_recovery()
    result = collect(machine, f"scenario-{config.system}", config.name)
    result.scenario = {
        "name": config.name,
        "tenants": len(config.tenants),
        "admitted": len(admitted),
        "never_admitted": sorted(
            spec.name for spec in pending.values()
        ),
        "rounds": config.rounds,
        "deferrals": deferrals,
        "admission": controller.export(),
        "shedding": {
            "prefetch_throttled": machine.prefetch_throttled,
            "prefetch_overlimit_rejects": sum(
                group.overlimit_rejects for group in machine.cgroups
            ),
            "deprioritized_pids": len(machine.deprioritized_pids),
        },
        "fatal": {
            "fatal_faults_absorbed": machine.fatal_faults_absorbed,
            "writebacks_abandoned": machine.writebacks_abandoned,
        },
        "autoscaler": autoscaler.export(),
        "slo": tracker.export(),
        "conservation": {
            "cluster_conserved": machine.cluster.conserved(),
            "invariant_checks": (
                machine.sanitizer.checks_run
                if machine.sanitizer is not None
                else 0
            ),
            "cgroups": {
                group.name: {
                    "charged": group.charged,
                    "limit": group.limit_pages,
                    "overlimit_rejects": group.overlimit_rejects,
                }
                for group in sorted(machine.cgroups, key=lambda g: g.name)
            },
        },
        "series": rounds_series,
        "final_pressure": round(pressure, 4),
    }
    return result


# -- presets ----------------------------------------------------------------------------


#: One row per preset: fleet size, fleet seed, arrival pattern, rounds,
#: pages per tenant, accesses per round, standby nodes.
PRESETS: Dict[str, Tuple[int, int, str, int, int, int, int]] = {
    # Small and fast: CI's sanity scenario.
    "smoke": (6, 7, "mixed", 6, 120, 1500, 1),
    # Synchronized bursts from a mid-size fleet: exercises the ladder.
    "burst": (12, 11, "bursty", 8, 120, 2000, 2),
    # Slow day/night swell: exercises the autoscaler in both directions.
    "diurnal": (16, 13, "diurnal", 10, 100, 1500, 2),
    # Flash crowd at mid-run: the admission controller's reason to exist.
    "flash": (12, 17, "flash", 10, 120, 2500, 2),
}


def preset(name: str, **overrides) -> ScenarioConfig:
    try:
        fleet, seed, pattern, rounds, pages, accesses, standby = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario preset {name!r} "
            f"(have: {', '.join(sorted(PRESETS))})"
        ) from None
    base = dict(
        name=name,
        tenants=tuple(
            build_fleet(fleet, seed=seed, pattern=pattern, rounds=rounds,
                        pages_per_tenant=pages)
        ),
        rounds=rounds,
        accesses_per_round=accesses,
        standby_nodes=standby,
    )
    base.update(overrides)
    return ScenarioConfig(**base)
