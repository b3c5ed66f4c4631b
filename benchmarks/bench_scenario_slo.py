"""Scenario bench — SLO attainment under offered-load saturation.

Sweeps offered load (per-round access quota) over a deliberately narrow
fabric, with and without a crash overlay, and reports per-tier SLO
attainment.  The claim under test is the degradation ladder's whole
point: when the system saturates, best-effort tenants absorb the pain —
their prefetch is throttled, their demand reads drop to the bulk QP,
their slices are halved — so guaranteed-tier attainment stays strictly
above best-effort attainment.  Scenario runs are not cacheable through
the execution engine (they are multi-round driven loops, not RunSpecs),
so the sweep is sized to run fresh in seconds.
"""

from repro.analysis.report import print_artifact, render_table
from repro.net.faults import FaultPlan
from repro.net.rdma import FabricConfig
from repro.scenario import (
    ScenarioConfig,
    SloTarget,
    build_fleet,
    run_scenario,
)
from repro.scenario.traffic import TIER_GUARANTEED

from common import SEED

#: Narrow link: demand traffic saturates the priority QP as load rises.
GBPS = 1.0
TENANTS = 10
ROUNDS = 8
LOADS = (500, 1500, 3000)


def _config(accesses_per_round: int, chaos: bool) -> ScenarioConfig:
    return ScenarioConfig(
        name=f"slo-sweep-{accesses_per_round}{'-chaos' if chaos else ''}",
        tenants=tuple(
            build_fleet(
                TENANTS,
                seed=SEED,
                pattern="steady",
                rounds=ROUNDS,
                pages_per_tenant=120,
                staggered=False,
            )
        ),
        rounds=ROUNDS,
        accesses_per_round=accesses_per_round,
        remote_nodes=2,
        standby_nodes=1,
        replication=2,
        fabric=FabricConfig(gbps=GBPS, seed=SEED),
        fault_plan=FaultPlan.crash(seed=SEED, at_us=5_000.0) if chaos else None,
        seed=SEED,
        # Identical targets for both tiers: attainment then measures
        # latency head-to-head, so any gap is pure ladder shielding
        # (tier-relative targets would flatter whichever tier's ceiling
        # is looser).
        slo_guaranteed=SloTarget(p99_us=80.0, max_lost=0),
        slo_best_effort=SloTarget(p99_us=80.0, max_lost=0),
    )


def _tier_attainment(config: ScenarioConfig, section) -> dict:
    tier_of = {spec.name: spec.tier for spec in config.tenants}
    sums = {TIER_GUARANTEED: [], "best_effort": []}
    for name, tenant in section["slo"]["tenants"].items():
        sums[tier_of[name]].append(tenant["attainment"])
    return {
        tier: (sum(values) / len(values) if values else 1.0)
        for tier, values in sums.items()
    }


def test_scenario_slo_attainment():
    rows = []
    saturated = []
    for chaos in (False, True):
        for load in LOADS:
            config = _config(load, chaos)
            result = run_scenario(config)
            section = result.scenario
            attain = _tier_attainment(config, section)
            level = section["admission"]["level_name"]
            rows.append(
                [
                    load,
                    "crash" if chaos else "none",
                    level,
                    f"{attain[TIER_GUARANTEED]:.3f}",
                    f"{attain['best_effort']:.3f}",
                    section["admission"]["rejections"],
                    section["autoscaler"]["scale_outs"],
                    section["fatal"]["fatal_faults_absorbed"],
                ]
            )
            # Every run, chaotic or not, must complete conserving pages.
            assert section["conservation"]["cluster_conserved"]
            if level != "nominal":
                saturated.append((load, chaos, attain))

    print_artifact(
        "Scenario SLO attainment vs offered load "
        f"({TENANTS} tenants, {GBPS} gbps fabric)",
        render_table(
            ["load/round", "chaos", "ladder", "attain(guar)", "attain(be)",
             "rejected", "scale-outs", "zero-fills"],
            rows,
        ),
    )

    # The headline claim: wherever the ladder engaged, the guaranteed
    # tier ends strictly better off than best-effort.
    assert saturated, "sweep never saturated; raise LOADS or narrow GBPS"
    for load, chaos, attain in saturated:
        assert attain[TIER_GUARANTEED] > attain["best_effort"], (
            f"tier inversion at load={load} chaos={chaos}: {attain}"
        )
