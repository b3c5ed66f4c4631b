"""Figure 9 — normalized performance (CT_local / CT_system) of Fastswap
and HoPP on the non-JVM applications at 50% and 25% local memory.

Paper shapes: HoPP beats Fastswap on every app at both limits; at 50%
HoPP's best apps run within a few percent of local (Quicksort, OMP
K-means: 3.5% slowdown at least); the average HoPP-over-Fastswap
improvement is ~25% at 50% and ~32% at 25%.
"""

from repro.analysis.report import print_artifact, render_table
from repro.common.stats import geometric_mean
from repro.workloads import NON_JVM_APPS

from common import normperf


def test_fig9_normalized_performance_nojvm():
    rows = []
    series = {"fastswap": {0.5: [], 0.25: []}, "hopp": {0.5: [], 0.25: []}}
    for app in NON_JVM_APPS:
        row = [app]
        for fraction in (0.5, 0.25):
            for system in ("fastswap", "hopp"):
                value = normperf(app, system, fraction)
                series[system][fraction].append(value)
                row.append(value)
        rows.append(row)
    avg_row = ["average"]
    for fraction in (0.5, 0.25):
        for system in ("fastswap", "hopp"):
            avg_row.append(
                sum(series[system][fraction]) / len(series[system][fraction])
            )
    rows.append(avg_row)
    print_artifact(
        "Figure 9: normalized performance, non-JVM apps",
        render_table(
            ["workload", "fastswap@50%", "hopp@50%", "fastswap@25%", "hopp@25%"],
            rows,
        ),
    )

    # Shape assertions.
    for app_index, app in enumerate(NON_JVM_APPS):
        for fraction in (0.5, 0.25):
            assert (
                series["hopp"][fraction][app_index]
                > series["fastswap"][fraction][app_index]
            ), f"HoPP must beat Fastswap on {app} at {fraction}"
    # Best HoPP apps approach local performance at 50%.
    assert max(series["hopp"][0.5]) > 0.95
    # Less memory hurts both systems on average.
    assert geometric_mean(series["hopp"][0.25]) <= geometric_mean(series["hopp"][0.5])
    # Average improvement is substantial (paper: 24.9% / 32%).
    improvement_50 = (
        sum(series["hopp"][0.5]) / sum(series["fastswap"][0.5]) - 1.0
    )
    assert improvement_50 > 0.10
