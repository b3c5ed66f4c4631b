"""Cluster scaling: node count x placement policy.

Sweeps the remote pool from the paper's single node to a rack-scale
multi-node cluster and reports, per (node count, placement) cell, the
completion time, aggregate fabric traffic, and the balance of pages
across nodes.  A replication arm measures the writeback tax of keeping
a second copy, and a chaos arm proves failover keeps a 3-node cluster
both live and conserved.

Shapes (not paper figures — the paper's testbed has one memory node;
this stresses the reproduction's growth axis):

* a 1-node interleave cluster is byte-identical to the single-node
  model (the equivalence invariant, asserted here end to end);
* adding nodes never slows the run down: more links means less
  queueing, so completion time is monotonically non-increasing within
  each placement (small tolerance for jitter reseeding);
* interleave balances writebacks near-perfectly; affinity concentrates
  a single process on one node;
* replication costs extra WRITEs (exactly one per replica per
  writeback) while demand READ traffic stays essentially unchanged
  (replica writebacks share links with prefetches, so timings shift a
  page or two, never systematically).
"""

from repro.analysis.report import print_artifact, render_table
from repro.cluster import ClusterConfig
from repro.net.faults import FaultPlan
from repro.sim.machine import RunEnv

from common import SEED, get_result

NODE_COUNTS = (1, 2, 4, 8)
PLACEMENTS = ("interleave", "hash", "affinity")


def _run(nodes=1, placement="interleave", replication=1, plan=None):
    env = RunEnv(
        fault_plan=plan,
        cluster=ClusterConfig(
            nodes=nodes, placement=placement, replication=replication
        ),
    )
    return get_result("stream-simple", "hopp", 0.5, env=env)


def _imbalance(result):
    """max/mean of per-node stored+released pages (1.0 = perfect)."""
    totals = [
        stats["remote"]["pages_written"] for stats in result.node_stats
    ]
    mean = sum(totals) / len(totals)
    return max(totals) / mean if mean else 1.0


def test_cluster_scaling():
    rows = []
    results = {}
    for placement in PLACEMENTS:
        for nodes in NODE_COUNTS:
            result = _run(nodes=nodes, placement=placement)
            results[(placement, nodes)] = result
            rows.append(
                [
                    placement,
                    nodes,
                    f"{result.completion_time_us:.0f}",
                    result.fabric_reads,
                    result.fabric_writes,
                    f"{_imbalance(result):.2f}",
                ]
            )
    print_artifact(
        "Cluster scaling: node count x placement (stream-simple @50%, hopp)",
        render_table(
            ["placement", "nodes", "ct (us)", "reads", "writes",
             "imbalance"],
            rows,
        ),
    )

    # Single-node equivalence: every placement degenerates to the same
    # single-link machine on one node.
    baseline = results[("interleave", 1)]
    for placement in PLACEMENTS:
        assert (
            results[(placement, 1)].completion_time_us
            == baseline.completion_time_us
        )

    # More links, less queueing: scaling out never hurts (allow 2% for
    # per-node jitter reseeding).
    for placement in PLACEMENTS:
        for before, after in zip(NODE_COUNTS, NODE_COUNTS[1:]):
            assert (
                results[(placement, after)].completion_time_us
                <= results[(placement, before)].completion_time_us * 1.02
            ), f"{placement}: {after} nodes slower than {before}"

    # Interleave spreads writebacks evenly; affinity piles the single
    # process onto one node.
    assert _imbalance(results[("interleave", 4)]) < 1.5
    assert _imbalance(results[("affinity", 4)]) > 2.0


def test_cluster_replication_tax():
    single = _run(nodes=3, replication=1)
    mirrored = _run(nodes=3, replication=2)
    print_artifact(
        "Replication tax (3 nodes, interleave)",
        render_table(
            ["replication", "ct (us)", "writes", "replica writes"],
            [
                [1, f"{single.completion_time_us:.0f}",
                 single.fabric_writes, single.replica_writes],
                [2, f"{mirrored.completion_time_us:.0f}",
                 mirrored.fabric_writes, mirrored.replica_writes],
            ],
        ),
    )
    # Exactly one extra WRITE per writeback; demand READs stay within a
    # couple of pages (replica traffic shifts bulk-link timing slightly).
    assert mirrored.replica_writes == single.fabric_writes
    assert mirrored.fabric_writes == 2 * single.fabric_writes
    assert abs(
        mirrored.remote_demand_reads - single.remote_demand_reads
    ) <= max(2, single.remote_demand_reads // 10)


def test_cluster_failover_under_chaos():
    result = _run(nodes=3, replication=2, plan=FaultPlan.chaos(SEED))
    print_artifact(
        "3-node chaos run (replication 2)",
        render_table(
            ["metric", "value"],
            [
                ["completion time (us)", f"{result.completion_time_us:.0f}"],
                ["timeouts", result.timeouts],
                ["demand failovers", result.demand_failovers],
                ["writeback re-routes", result.writeback_reroutes],
            ],
        ),
    )
    assert result.timeouts > 0
    # Conservation survives failover: every node's slot accounting
    # balances even with copies re-routed mid-retry.
    for stats in result.node_stats:
        remote = stats["remote"]
        assert remote["pages_written"] == (
            remote["pages_stored"]
            + remote["pages_overwritten"]
            + remote["pages_released"]
        )
