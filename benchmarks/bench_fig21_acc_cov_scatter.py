"""Figure 21 — normalized performance as a function of prefetch
accuracy and coverage (the scatter that closes Section VI-D).

Paper shapes: for HoPP, when accuracy and coverage both approach 1 the
normalized performance approaches 1 regardless of how much of the
working set is disaggregated (QuickSort, OMP-K-means); Fastswap sits
lower even at comparable coverage because every covered page still pays
the 2.3 us prefetch-hit fault.  Note: HoPP's coverage here counts only
DRAM hits, as in the paper's figure.
"""

from repro.analysis.report import print_artifact, render_table
from repro.workloads import NON_JVM_APPS

from common import get_result, local_ct

FRACTION = 0.5


def test_fig21_accuracy_coverage_scatter():
    rows = []
    points = {}
    for app in NON_JVM_APPS:
        for system in ("fastswap", "hopp"):
            result = get_result(app, system, FRACTION)
            coverage = (
                result.dram_hit_coverage if system == "hopp" else result.coverage
            )
            np_value = result.normalized_performance(local_ct(app))
            points[(app, system)] = (result.accuracy, coverage, np_value)
            rows.append([f"{app} ({system})", result.accuracy, coverage, np_value])
    print_artifact(
        "Figure 21: accuracy / coverage / normalized-performance points "
        "(hopp coverage counts DRAM hits only)",
        render_table(["point", "accuracy", "coverage", "norm-perf"], rows),
    )

    # Both-near-1 implies near-local performance for HoPP.
    for app in ("omp-kmeans", "quicksort"):
        accuracy, coverage, np_value = points[(app, "hopp")]
        assert accuracy > 0.9 and coverage > 0.85
        assert np_value > 0.9

    # Even where Fastswap's raw coverage rivals HoPP's DRAM-hit-only
    # coverage, its normalized performance stays lower — the
    # prefetch-hit overhead at work (Section VI-D).
    for app in NON_JVM_APPS:
        hopp_np = points[(app, "hopp")][2]
        fast_np = points[(app, "fastswap")][2]
        assert hopp_np > fast_np
