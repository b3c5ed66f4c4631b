"""Multi-application co-runs (Figure 15).

Several workloads share one compute node; each gets its own cgroup at
50% of its footprint (the paper's setup) and a distinct PID space.  The
traces are interleaved in time-slice chunks, so page streams from
different applications alias in any global fault history — exactly what
HoPP's PID-tagged hot pages untangle ("we can easily train prefetching
algorithms according to PID").

The assembly helpers (:func:`build_corun_machine`, :func:`shift_pids`,
:func:`interleave_traces`) are public so the tenant-scale scenario
engine (:mod:`repro.scenario`) can compose its own fleets — same PID
striding, same cgroup naming, same interleave — without duplicating
the wiring.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, List, Optional, Tuple, Union

from repro.net.rdma import FabricConfig
from repro.sim import systems as systems_mod
from repro.sim.machine import Machine, MachineConfig
from repro.sim.metrics import RunResult
from repro.sim.runner import collect
from repro.sim.systems import SystemSpec
from repro.workloads.base import Workload

#: PIDs of co-running workloads are offset by this much so address/PID
#: spaces never collide.
PID_STRIDE = 100


def interleave_traces(
    traces: List[Iterator[Tuple[int, int]]],
    rng: random.Random,
    slice_accesses: int = 64,
) -> Iterator[Tuple[int, int]]:
    """Merge traces in seeded time-slice chunks until all are drained."""
    live = list(traces)
    while live:
        source = live[rng.randrange(len(live))]
        emitted = 0
        for access in source:
            yield access
            emitted += 1
            if emitted >= slice_accesses:
                break
        else:
            live.remove(source)


def shift_pids(
    trace: Iterator[Tuple[int, int]], offset: int
) -> Iterator[Tuple[int, int]]:
    for pid, vaddr in trace:
        yield pid + offset, vaddr


def cgroup_limit(workload: Workload, local_memory_fraction: float) -> int:
    """Per-app cgroup budget: a fraction of the footprint, floor 8."""
    return max(
        int(math.ceil(workload.footprint_pages * local_memory_fraction)), 8
    )


def attach_workload(
    machine: Machine,
    workload: Workload,
    index: int,
    local_memory_fraction: float,
    cgroup_name: Optional[str] = None,
) -> Iterator[Tuple[int, int]]:
    """Register one workload's processes/VMAs at PID slot ``index`` and
    return its PID-shifted trace.  The cgroup defaults to the classic
    ``app-<index>-<name>`` naming so co-run results stay comparable."""
    offset = index * PID_STRIDE
    limit = cgroup_limit(workload, local_memory_fraction)
    name = cgroup_name or f"app-{index}-{workload.name}"
    for process in workload.processes:
        machine.register_process(
            process.pid + offset,
            cgroup_name=name,
            limit_pages=limit,
        )
        for start_vpn, npages, vma_name in process.vmas:
            machine.add_vma(process.pid + offset, start_vpn, npages, vma_name)
    return shift_pids(workload.trace(), offset)


def build_corun_machine(
    workloads: List[Workload],
    spec: SystemSpec,
    local_memory_fraction: float = 0.5,
    config: Optional[MachineConfig] = None,
) -> Tuple[Machine, List[Iterator[Tuple[int, int]]]]:
    """Assemble the shared machine plus one shifted trace per workload."""
    if config is None:
        config = MachineConfig(
            local_memory_pages=sum(w.footprint_pages for w in workloads),
            compute_us_per_access=sum(
                w.compute_us_per_access for w in workloads
            )
            / len(workloads),
        )
    machine = spec.build(config)
    traces = [
        attach_workload(machine, workload, index, local_memory_fraction)
        for index, workload in enumerate(workloads)
    ]
    return machine, traces


def run_corun(
    workloads: List[Workload],
    system: Union[str, SystemSpec],
    local_memory_fraction: float = 0.5,
    fabric: Optional[FabricConfig] = None,
    seed: int = 1,
    slice_accesses: int = 64,
    strict_cgroup_prefetch: bool = False,
) -> RunResult:
    """Run several workloads concurrently under one system."""
    if not workloads:
        raise ValueError("need at least one workload")
    spec = system if isinstance(system, SystemSpec) else systems_mod.build(system)
    # The shared machine's default limit is irrelevant: every app brings
    # its own cgroup limit below.
    config = MachineConfig(
        local_memory_pages=sum(w.footprint_pages for w in workloads),
        fabric=fabric or FabricConfig(),
        compute_us_per_access=sum(w.compute_us_per_access for w in workloads)
        / len(workloads),
        strict_cgroup_prefetch=strict_cgroup_prefetch,
    )
    machine, traces = build_corun_machine(
        workloads, spec, local_memory_fraction, config
    )
    rng = random.Random(seed)
    machine.run(interleave_traces(traces, rng, slice_accesses))
    names = "+".join(w.name for w in workloads)
    return collect(machine, spec.name, names)
