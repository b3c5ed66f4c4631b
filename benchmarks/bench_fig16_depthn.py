"""Figure 16 — normalized performance of Depth-16, Depth-32, Fastswap,
and HoPP on the NPB kernels.

Paper shapes (Section VI-C): Depth-16/32 "don't necessarily outperform
Fastswap for real applications, e.g., NPB-MG, while HoPP achieves the
best of four" — early PTE injection without feedback misfires where
access patterns aren't contiguous-forward.
"""

from repro.analysis.report import print_artifact, render_table

from common import normperf

APPS = ["npb-cg", "npb-ft", "npb-lu", "npb-mg", "npb-is"]
SYSTEMS = ["depth-16", "depth-32", "fastswap", "hopp"]
FRACTION = 0.5


def test_fig16_depth_n_comparison():
    table = {}
    rows = []
    for app in APPS:
        row = [app]
        for system in SYSTEMS:
            value = normperf(app, system, FRACTION)
            table[(app, system)] = value
            row.append(value)
        rows.append(row)
    avg = ["average"] + [
        sum(table[(app, system)] for app in APPS) / len(APPS) for system in SYSTEMS
    ]
    rows.append(avg)
    print_artifact(
        "Figure 16: normalized performance, Depth-N vs Fastswap vs HoPP (NPB)",
        render_table(["workload"] + SYSTEMS, rows),
    )

    # Depth-N loses to Fastswap somewhere (the paper names NPB-MG; here
    # the strided FT and the bidirectional LU/MG sweeps punish it).
    assert any(
        table[(app, "depth-32")] < table[(app, "fastswap")] for app in APPS
    )
    # HoPP is the best of the four on average and never the worst.
    for system in SYSTEMS[:-1]:
        assert avg[SYSTEMS.index("hopp") + 1] > avg[SYSTEMS.index(system) + 1]
    for app in APPS:
        assert table[(app, "hopp")] >= min(table[(app, s)] for s in SYSTEMS)
