"""Figure 18 — completion-time speedup over Fastswap as prefetch tiers
are added: SSP only, SSP+LSP, SSP+LSP+RSP (full adaptive three-tier).

Paper shape: "with more algorithms added, HoPP has a better Speedup"
because each tier adds coverage while accuracy stays high.  HPL and
NPB-MG are the showcase apps (their ladders/ripples are invisible to
SSP).
"""

from repro.analysis.report import print_artifact, render_table

from common import speedup

APPS = ["hpl", "npb-mg", "npb-lu", "omp-kmeans"]
TIER_SYSTEMS = ["hopp-ssp", "hopp-ssp-lsp", "hopp"]
FRACTION = 0.5


def test_fig18_speedup_by_tier():
    rows = []
    gains = {}
    for app in APPS:
        row = [app]
        for system in TIER_SYSTEMS:
            value = speedup(app, system, "fastswap", FRACTION)
            gains[(app, system)] = value
            row.append(value)
        rows.append(row)
    print_artifact(
        "Figure 18: speedup over Fastswap as tiers are added "
        "(speedup = 1 - CT_system / CT_fastswap)",
        render_table(["workload", "SSP", "SSP+LSP", "SSP+LSP+RSP"], rows),
    )

    # Adding tiers never hurts materially, and the ladder/ripple apps
    # gain from LSP/RSP.
    for app in APPS:
        assert gains[(app, "hopp")] >= gains[(app, "hopp-ssp")] - 0.03
    assert gains[("hpl", "hopp-ssp-lsp")] > gains[("hpl", "hopp-ssp")]
    assert gains[("npb-mg", "hopp")] > gains[("npb-mg", "hopp-ssp")]
