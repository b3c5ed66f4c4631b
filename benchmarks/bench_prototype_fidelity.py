"""Ablation A8 — Section V's prototype emulation vs the hardware design.

The prototype runs the HPD in software on a dedicated core over an
HMTT trace ring; the design puts it in the MC.  The paper's implicit
validation claim is that the two are equivalent for the evaluation.
This bench sweeps the software consumer's throughput: at a realistic
rate the prototype matches the in-MC design; starve the consumer and
coverage degrades through lag and trace loss — quantifying how much
slack the prototype methodology actually had.
"""

from repro.analysis.report import print_artifact, render_table
from repro.baselines.fastswap import FastswapPrefetcher
from repro.hopp.prototype import PrototypeDataPlane
from repro.hopp.system import HoppConfig
from repro.net.rdma import FabricConfig
from repro.sim.machine import Machine, MachineConfig
from repro.sim.runner import collect, make_machine
from repro.sim.systems import SystemSpec
from repro.workloads import build

from common import SEED, get_result


def prototype_system(rate: float) -> SystemSpec:
    def builder(config: MachineConfig) -> Machine:
        machine = Machine(config, fault_prefetcher=FastswapPrefetcher())
        plane = PrototypeDataPlane(
            machine, HoppConfig(), consume_rate_per_us=rate,
            ring_capacity=4096,
        )
        machine.hopp = plane
        machine.controller.add_tap(plane.on_mc_access)
        return machine

    return SystemSpec(name=f"hopp-proto-{rate}", builder=builder)


def run_prototype(rate: float):
    workload = build("omp-kmeans", seed=SEED)
    machine = make_machine(
        workload, prototype_system(rate), 0.5, FabricConfig(seed=SEED)
    )
    machine.run(workload.trace())
    result = collect(machine, f"proto@{rate}/us", workload.name)
    result.extra["drop_rate"] = machine.hopp.drop_rate
    result.extra["backlog"] = float(machine.hopp.backlog)
    return result


def test_prototype_vs_design():
    design = get_result("omp-kmeans", "hopp", 0.5)
    rows = [
        ["in-MC design", design.completion_time_us, design.coverage,
         design.accuracy, "-"],
    ]
    results = {}
    for rate in (100.0, 10.0, 1.0):
        result = run_prototype(rate)
        results[rate] = result
        rows.append(
            [
                f"software HPD @ {rate:g} rec/us",
                result.completion_time_us,
                result.coverage,
                result.accuracy,
                f"{result.extra['drop_rate']:.1%}",
            ]
        )
    print_artifact(
        "Ablation A8: Section V prototype (software HPD over a trace ring) "
        "vs the in-MC design",
        render_table(
            ["configuration", "completion (us)", "coverage", "accuracy",
             "trace dropped"],
            rows,
        ),
    )

    # At a realistic consumer rate the prototype reproduces the design.
    fast = results[100.0]
    assert fast.completion_time_us <= design.completion_time_us * 1.05
    assert fast.coverage >= design.coverage - 0.03
    # A starved consumer costs coverage (lag and/or loss).
    assert results[1.0].coverage < fast.coverage
