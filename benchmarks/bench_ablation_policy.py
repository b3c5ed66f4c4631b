"""Ablation A3 — policy-engine knobs under fabric latency volatility.

The offset controller exists because "the remote swap latency is
volatile" (Section I, point 5).  Sweeping alpha on a jittery, spiky
fabric: alpha=0 (no adaptation) leaves prefetches late; a moderate
alpha tracks volatility; the exact value is not critical (the paper
simply picks 0.2).  Also sweeps prefetch intensity on a congested
fabric, where fetching >1 page per hot page rides out bandwidth dips.
"""

from repro.analysis.report import print_artifact, render_table
from repro.net.rdma import FabricConfig

from common import SEED, get_result, param_grid

#: A deliberately nasty fabric: heavy jitter, frequent big spikes.
VOLATILE = FabricConfig(
    jitter_us=2.0, spike_probability=0.05, spike_factor=8.0, seed=SEED
)


def run_policy(overrides: dict, fabric: FabricConfig):
    return get_result(
        "adder", "hopp", 0.25, system_kwargs=overrides, fabric=fabric
    )


def test_ablation_alpha_sweep():
    rows = []
    completion = {}
    for point in param_grid(alpha=[0.0, 0.05, 0.2, 0.5]):
        alpha = point["alpha"]
        overrides = (
            {"policy.adaptive": False}
            if alpha == 0.0
            else {"policy.alpha": alpha}
        )
        result = run_policy(overrides, VOLATILE)
        completion[alpha] = result.completion_time_us
        rows.append(
            [f"alpha={alpha}", result.completion_time_us, result.coverage,
             result.prefetch_hit_inflight]
        )
    print_artifact(
        "Ablation A3a: offset-adaptation alpha under a volatile fabric",
        render_table(
            ["config", "completion (us)", "coverage", "late (inflight) hits"],
            rows,
        ),
    )

    # Any adaptation beats none; the default 0.2 is near the best.
    best = min(completion.values())
    assert completion[0.0] > best
    assert completion[0.2] <= best * 1.1


def test_ablation_intensity_on_congested_fabric():
    congested = FabricConfig(gbps=6.0, jitter_us=1.0, seed=SEED)

    rows = []
    results = {}
    for point in param_grid(intensity=[1, 2, 4]):
        intensity = point["intensity"]
        result = run_policy({"policy.intensity": intensity}, congested)
        results[intensity] = result
        rows.append(
            [f"intensity={intensity}", result.completion_time_us,
             result.coverage, result.prefetch_hit_inflight]
        )
    print_artifact(
        "Ablation A3b: prefetch intensity on a congested (6 Gbps) fabric",
        render_table(
            ["config", "completion (us)", "coverage", "late (inflight) hits"],
            rows,
        ),
    )

    # On a slow link, intensity > 1 keeps coverage from collapsing
    # (Section III-E's rationale for the knob).
    assert results[2].coverage >= results[1].coverage - 0.02
