"""Figure 11 — prefetch coverage of Fastswap vs HoPP, non-JVM apps,
with HoPP's bar split into its two parts (Section VI-B): pages
prefetched on the fault path that hit in the swapcache, and pages
prefetched by the adaptive three-tier framework whose PTEs were
injected (DRAM hits, no fault at all).

Paper shapes: HoPP coverage > 90% (QuickSort and K-means > 99%, "no
page fault observed"); Fastswap's bar is swapcache-hits only.
"""

from repro.analysis.report import print_artifact, render_table
from repro.common.stats import safe_ratio
from repro.workloads import NON_JVM_APPS

from common import get_result

FRACTION = 0.5


def test_fig11_coverage_nojvm():
    rows = []
    hopp_total = []
    fast_total = []
    for app in NON_JVM_APPS:
        fast = get_result(app, "fastswap", FRACTION)
        hopp = get_result(app, "hopp", FRACTION)
        denominator = hopp.remote_demand_reads + hopp.prefetch_hits
        swapcache_part = safe_ratio(
            hopp.prefetch_hit_swapcache + hopp.prefetch_hit_inflight, denominator
        )
        dram_part = safe_ratio(hopp.prefetch_hit_dram, denominator)
        rows.append([app, fast.coverage, hopp.coverage, swapcache_part, dram_part])
        hopp_total.append(hopp.coverage)
        fast_total.append(fast.coverage)
    rows.append(
        [
            "average",
            sum(fast_total) / len(fast_total),
            sum(hopp_total) / len(hopp_total),
            "",
            "",
        ]
    )
    print_artifact(
        "Figure 11: prefetch coverage, non-JVM apps "
        "(hopp = swapcache-hit part + DRAM-hit part)",
        render_table(
            ["workload", "fastswap", "hopp", "hopp:swapcache", "hopp:dram-hit"],
            rows,
        ),
    )

    assert sum(hopp_total) > sum(fast_total)
    # Best apps reach ~99% coverage (paper: QuickSort, K-means).
    assert max(hopp_total) > 0.97
    # The DRAM-hit (injected) part is a real contributor for streaming apps.
    kmeans = get_result("omp-kmeans", "hopp", FRACTION)
    assert kmeans.prefetch_hit_dram > kmeans.prefetch_hit_swapcache
