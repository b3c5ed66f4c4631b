"""Figure 20 — per-tier coverage contribution inside adaptive three-tier
prefetching.

Paper shape: "simple streams identified by SSP take a major part, while
LSP and RSP can further improve the coverage, e.g., for HPL and NPB-MG,
LSP offers an additional 9.1% coverage, and RSP can provide an
additional 10%."
"""

from repro.analysis.report import print_artifact, render_table

from common import get_result

APPS = ["hpl", "npb-mg", "npb-lu", "omp-kmeans", "quicksort"]
FRACTION = 0.5
TIERS = ("ssp", "lsp", "rsp")


def test_fig20_per_tier_coverage():
    rows = []
    for app in APPS:
        result = get_result(app, "hopp", FRACTION)
        contributions = {tier: result.tier_coverage(tier) for tier in TIERS}
        rows.append(
            [app]
            + [contributions[tier] for tier in TIERS]
            + [result.coverage]
        )
    print_artifact(
        "Figure 20: per-tier coverage contribution",
        render_table(["workload", "SSP", "LSP", "RSP", "total"], rows),
    )

    hpl = get_result("hpl", "hopp", FRACTION)
    mg = get_result("npb-mg", "hopp", FRACTION)
    # SSP takes the major part everywhere.
    for app in APPS:
        result = get_result(app, "hopp", FRACTION)
        assert result.tier_coverage("ssp") > result.tier_coverage("lsp")
    # LSP contributes extra coverage on the ladder apps (paper: +9.1%).
    assert hpl.tier_coverage("lsp") > 0.01
    assert mg.tier_coverage("lsp") > 0.01
    # RSP contributes on the ripple apps.
    assert mg.tier_coverage("rsp") > 0.0
