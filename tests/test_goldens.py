"""Golden-result pins: the simulator's exact outputs, frozen on disk.

Performance work on the hot path (PR: parallel exec engine) is only
legal if it is bit-invisible; these cases — spanning every system
family, a chaos fault plan, and a replicated multi-node cluster — were
captured *before* that work and every RunResult must still match them
byte for byte.  A future PR that intentionally changes simulator
semantics should regenerate tests/data/goldens_v1.json (see
``_CASES`` below for the recipe) and bump the exec-cache
``SCHEMA_VERSION`` in the same commit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.net.faults import FaultPlan
from repro.net.rdma import FabricConfig
from repro.sim import runner
from repro.sim.machine import RunEnv
from repro.workloads import build

GOLDEN_PATH = Path(__file__).parent / "data" / "goldens_v1.json"
SEED = 7

#: (workload, system, fraction, fault_plan, cluster) — keyed in the
#: golden file as "workload|system|fraction|{chaos|None}|nodes".
_CASES = [
    ("stream-simple", "hopp", 0.5, None, None),
    ("stream-simple", "fastswap", 0.5, None, None),
    ("stream-ladder", "leap", 0.5, None, None),
    ("omp-kmeans", "hopp", 0.5, None, None),
    ("omp-kmeans", "noprefetch", 4.0, None, None),
    ("quicksort", "hopp-evict", 0.25, None, None),
    ("kv-cache", "hopp", 0.5, FaultPlan.chaos(SEED), None),
    (
        "stream-simple", "hopp", 0.5, None,
        ClusterConfig(nodes=3, placement="affinity", replication=2),
    ),
]


def _key(name, system, fraction, plan, cluster):
    fault = "chaos" if plan is not None else None
    nodes = cluster.nodes if cluster is not None else 1
    return f"{name}|{system}|{fraction}|{fault}|{nodes}"


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize(
    "case", _CASES, ids=[_key(*case) for case in _CASES]
)
def test_result_matches_golden(case, goldens):
    name, system, fraction, plan, cluster = case
    workload = build(name, seed=SEED)
    env = RunEnv(fault_plan=plan, cluster=cluster or ClusterConfig())
    result = runner.run(workload, system, fraction, FabricConfig(seed=SEED), env=env)
    assert result.to_dict() == goldens[_key(*case)]
