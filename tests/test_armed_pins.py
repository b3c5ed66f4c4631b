"""Byte pins of armed runs.

An armed run is one with a fault plan, a memory-tier pool or the patrol
scrubber.  The goldens cover the paper's clean configurations and only
one armed run (kv-cache under chaos), so a refactor of the recovery,
integrity or migration paths could change what an armed run does while
every golden still passes.  Each case here pins the SHA-256 of
``to_dict(full=True)`` as canonical JSON and checks that the counters
the case exists to exercise are nonzero, so a pin cannot go stale by
covering a run where nothing fires.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.integrity import ScrubConfig
from repro.memtier import MemtierConfig
from repro.net.faults import FaultPlan
from repro.net.rdma import FabricConfig
from repro.scenario import preset, run_scenario
from repro.sim import runner
from repro.sim.machine import RunEnv
from repro.workloads import build


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _run(workload: str, env: RunEnv):
    return runner.run(
        build(workload, seed=7), "hopp", 0.5, FabricConfig(seed=7),
        env=replace(env, check_invariants=True),
    )


def _crash_rejoin():
    plan = replace(
        FaultPlan.chaos(7), node_crash=(30_000.0,), node_rejoin=(60_000.0,)
    )
    return _run("kv-cache", RunEnv(
        fault_plan=plan, cluster=ClusterConfig(nodes=3, replication=2),
    ))


def _memtier_corruption_scrub():
    return _run("kv-cache", RunEnv(
        fault_plan=FaultPlan.corruption_chaos(7),
        memtier=MemtierConfig(pool_capacity_pages=200),
        scrub=ScrubConfig(),
    ))


def _replicated_corruption_scrub():
    return _run("kv-cache", RunEnv(
        fault_plan=FaultPlan.corruption(7),
        cluster=ClusterConfig(nodes=2, replication=2),
        scrub=ScrubConfig(),
    ))


def _memtier_clean():
    return _run("quicksort", RunEnv(memtier=MemtierConfig(pool_capacity_pages=200)))


def _smoke_scenario():
    return run_scenario(preset("smoke", seed=7))


#: case -> (run, {wire-format path: counter that must be nonzero}).
_CASES = {
    "crash-rejoin": (_crash_rejoin, (
        "recovery.pages_repaired", "recovery.repair_retries",
        "recovery.node_rejoins",
    )),
    "memtier-corruption-scrub": (_memtier_corruption_scrub, (
        "memtier.promotions", "memtier.demotions",
        "integrity.pages_poisoned", "integrity.scrub_reads",
        "integrity.promotions_barred",
    )),
    "replicated-corruption-scrub": (_replicated_corruption_scrub, (
        "integrity.corruption_repaired", "integrity.repair_reads",
    )),
    "memtier-clean": (_memtier_clean, (
        "memtier.promotions", "memtier.demotions",
    )),
    "smoke-scenario": (_smoke_scenario, ("recovery.pages_drained",)),
}

#: SHA-256 of each run's canonical ``to_dict(full=True)`` JSON.
DIGESTS = {
    "crash-rejoin": "fd5978f07dd8d1726f857ad23d9ef511c9ad0dbea37cbd75da75b42823cc7633",
    "memtier-corruption-scrub": "6fc0fcb036f0115cd689bf336c4134535579eb2c292bbba87b349a583699ff62",
    "replicated-corruption-scrub": "e2237df21fb17f3c0f2cc156e01f3d8ec309f0c61b7f3d27fde126d12e1c429b",
    "memtier-clean": "f70d50db306bc6aef8d31c88562d83b91e14386d0d146e29c8759506737bc5af",
    "smoke-scenario": "677de4f91dd44bd91ffb78c671aaa4bfa176bc325ebab474be3281a671255326",
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_armed_run_is_pinned(case):
    make, covered = _CASES[case]
    payload = make().to_dict(full=True)
    for path in covered:
        section, name = path.split(".")
        assert payload[section][name] > 0, path
    assert payload["recovery"]["invariant_checks"] > 0
    assert hashlib.sha256(_canonical(payload)).hexdigest() == DIGESTS[case]
