"""Repair cost and interference — the self-healing subsystem's
headline experiment.

A node crash mid-run triggers background re-replication: every
surviving under-replicated slot is copied to a ring successor, paying a
bulk READ on the source link and a bulk WRITE on the target's.  This
bench measures what that traffic costs the foreground workload and what
it buys:

* with a replica (``replication=2``) the crash loses **zero** pages —
  repair restores full redundancy at a bounded slowdown;
* with a single copy (``replication=1``) there is nothing to repair:
  pages on the dead node are lost, zero-filled on demand, and conserved;
* the repair rate limit (``repair_interval_us``) trades recovery speed
  against foreground interference — draining the same queue slower
  never loses pages, it only stretches the run.

Shapes only (the paper's testbed never loses a server); the 4-term
conservation identity ``written == stored + overwritten + released +
lost`` must hold on every node throughout.
"""

import pytest

from repro.analysis.report import print_artifact, render_table
from repro.cluster import ClusterConfig, RepairConfig
from repro.net.faults import FaultPlan
from repro.sim import runner
from repro.sim.machine import RunEnv
from repro.workloads import build

from common import SEED, _FABRIC, time_one

WORKLOAD = "quicksort"
FRACTION = 0.5
NODES = 3


def _run(replication, plan, repair_interval_us=None):
    workload = build(WORKLOAD, seed=SEED)
    machine = runner.make_machine(
        workload,
        "hopp",
        FRACTION,
        _FABRIC,
        env=RunEnv(
            fault_plan=plan,
            cluster=ClusterConfig(nodes=NODES, replication=replication),
        ),
    )
    if repair_interval_us is not None:
        machine.backend.repair.config = RepairConfig(
            repair_interval_us=repair_interval_us
        )
    machine.run(workload.trace())
    machine.flush_recovery()
    return runner.collect(machine, "hopp", WORKLOAD), machine


@pytest.mark.benchmark(group="repair")
def test_repair_cost(benchmark):
    time_one(benchmark, lambda: _run(2, FaultPlan.crash(SEED)))

    clean, _ = _run(2, None)
    rows = []
    crashed = {}
    for replication in (1, 2):
        result, machine = _run(replication, FaultPlan.crash(SEED))
        crashed[replication] = result
        slowdown = result.completion_time_us / clean.completion_time_us
        rows.append(
            [
                replication,
                f"{slowdown:.3f}x",
                result.pages_repaired,
                result.pages_lost,
                result.pages_zero_filled,
                result.repair_bytes,
                result.repair_retries,
            ]
        )
        # Conservation survives the crash on every node.
        for node in machine.cluster.nodes:
            assert node.remote.conserved, f"node {node.node_id} leaked slots"
    print_artifact(
        f"Repair cost: mid-run node crash ({WORKLOAD} @{FRACTION:.0%}, "
        f"{NODES} nodes)",
        render_table(
            ["repl", "slowdown", "repaired", "lost", "zero-filled",
             "repair-bytes", "retries"],
            rows,
        ),
    )

    # A replica turns a crash into traffic instead of data loss.
    assert crashed[2].node_crashes == 1
    assert crashed[2].pages_repaired > 0
    assert crashed[2].pages_lost == 0
    assert crashed[2].pages_zero_filled == 0
    assert crashed[2].repair_bytes > 0
    # A single copy loses exactly what the dead node held, visibly.
    assert crashed[1].pages_lost > 0
    assert crashed[1].pages_repaired == 0
    # Repair traffic costs something, but the run never collapses.
    assert crashed[2].completion_time_us >= clean.completion_time_us
    assert crashed[2].completion_time_us < clean.completion_time_us * 20

    # Rate-limit sweep: slower pumping shifts the repair schedule (and
    # with it the foreground interference), but never loses a page.
    sweep_rows = []
    for interval in (1.0, 10.0, 100.0):
        result, machine = _run(
            2, FaultPlan.crash(SEED), repair_interval_us=interval
        )
        sweep_rows.append(
            [
                f"{interval:.0f}",
                f"{result.completion_time_us:.0f}",
                result.pages_repaired,
                result.pages_lost,
            ]
        )
        assert result.pages_lost == 0
        assert result.pages_repaired > 0
        for node in machine.cluster.nodes:
            assert node.remote.conserved
    print_artifact(
        "Repair rate limit sweep (replication=2, crash preset)",
        render_table(
            ["interval-us", "completion-us", "repaired", "lost"],
            sweep_rows,
        ),
    )
