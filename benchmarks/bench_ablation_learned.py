"""Ablation A6 — three-tier cascade vs the learned stride-context
prefetcher in the same trainer slot (Section III-D's design-space
remark).

Expected shape: the learned model ties the cascade on simple streams
(both find the constant stride immediately vs after warm-up), trails
slightly on ladders/ripples (it must learn each pattern instance, the
cascade recognizes the *shape* analytically), and neither gives up
accuracy — the full trace, not the specific algorithm, is what makes
both viable.
"""

from repro.analysis.report import print_artifact, render_table

from common import get_result, local_ct

WORKLOADS = ["stream-simple", "stream-ladder", "stream-ripple", "npb-mg", "hpl"]


def test_ablation_learned_vs_three_tier():
    rows = []
    results = {}
    for name in WORKLOADS:
        ct_local = local_ct(name)
        row = [name]
        for system in ("hopp", "hopp-learned"):
            result = get_result(name, system, 0.5)
            results[(name, system)] = result
            row.extend(
                [result.normalized_performance(ct_local), result.accuracy]
            )
        rows.append(row)
    print_artifact(
        "Ablation A6: three-tier vs learned stride-context trainer",
        render_table(
            ["workload", "3tier np", "3tier acc", "learned np", "learned acc"],
            rows,
        ),
    )

    for name in WORKLOADS:
        tiered = results[(name, "hopp")]
        learned = results[(name, "hopp-learned")]
        # The learned model stays accurate and within ~15% of the
        # cascade (ripples cost it the most: stride noise thins every
        # context's confidence).
        assert learned.accuracy > 0.9
        assert learned.completion_time_us <= tiered.completion_time_us * 1.15
    # On pure simple streams the two are equivalent.
    simple_gap = (
        results[("stream-simple", "hopp-learned")].completion_time_us
        / results[("stream-simple", "hopp")].completion_time_us
    )
    assert abs(simple_gap - 1.0) < 0.03
