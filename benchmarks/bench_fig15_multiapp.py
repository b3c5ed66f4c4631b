"""Figure 15 — speedup of HoPP over Fastswap when multiple applications
run simultaneously, each cgroup-limited to 50% of its footprint.

Paper shape: HoPP keeps improving performance in the co-run scenarios
because the hot-page trace carries application semantics (the PID), so
streams from different applications never alias in the trainer.
"""

from repro.analysis.report import print_artifact, render_table

from common import corun_result

PAIRS = [
    ("omp-kmeans", "quicksort"),
    ("npb-cg", "npb-mg"),
    ("omp-kmeans", "npb-is"),
    ("quicksort", "npb-lu"),
]

FRACTION = 0.5


def test_fig15_multi_application_speedup():
    rows = []
    speedups = []
    for pair in PAIRS:
        fast = corun_result(pair, "fastswap", FRACTION)
        hopp = corun_result(pair, "hopp", FRACTION)
        speedup = hopp.speedup_vs(fast)
        speedups.append(speedup)
        rows.append(["+".join(pair), fast.accuracy, hopp.accuracy, speedup])
    print_artifact(
        "Figure 15: co-running applications, HoPP speedup over Fastswap "
        "(speedup = 1 - CT_hopp / CT_fastswap)",
        render_table(
            ["pair", "fastswap-acc", "hopp-acc", "hopp-speedup"], rows
        ),
    )

    # HoPP improves every co-run scenario, with high accuracy thanks to
    # PID-tagged hot pages.
    assert all(s > 0.05 for s in speedups)
    for pair in PAIRS:
        assert corun_result(pair, "hopp", FRACTION).accuracy > 0.85
