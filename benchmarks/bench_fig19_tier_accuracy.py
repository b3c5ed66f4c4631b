"""Figure 19 — per-tier prefetch accuracy inside adaptive three-tier
prefetching.

Paper shape: "the accuracy of each algorithm is high (over 90%), as
combining them together does not reduce the accuracy."
"""

from repro.analysis.report import print_artifact, render_table

from common import get_result

APPS = ["hpl", "npb-mg", "npb-lu", "omp-kmeans", "quicksort"]
FRACTION = 0.5
TIERS = ("ssp", "lsp", "rsp")


def test_fig19_per_tier_accuracy():
    rows = []
    for app in APPS:
        result = get_result(app, "hopp", FRACTION)
        row = [app]
        for tier in TIERS:
            issued = result.issued_by_tier.get(tier, 0)
            row.append(f"{result.tier_accuracy(tier):.3f}" if issued else "-")
        row.append(f"{result.accuracy:.3f}")
        rows.append(row)
    print_artifact(
        "Figure 19: per-tier prefetch accuracy",
        render_table(["workload", "SSP", "LSP", "RSP", "combined"], rows),
    )

    # Each active tier stays accurate, and combining them does not drag
    # the total below 90% on these apps.
    for app in APPS:
        result = get_result(app, "hopp", FRACTION)
        assert result.accuracy > 0.9
        for tier in TIERS:
            if result.issued_by_tier.get(tier, 0) >= 50:
                assert result.tier_accuracy(tier) > 0.75, (app, tier)
