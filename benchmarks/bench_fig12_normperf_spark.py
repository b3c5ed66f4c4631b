"""Figure 12 — normalized performance on the Spark workloads.

Paper setup: Spark-KMeans limited to 2 GB of its 13 GB footprint
(~15%); the other Spark apps to 11 GB of 33 GB (1/3).  Shapes: HoPP
beats Fastswap on every Spark app (average +34.7%); the largest win is
Spark-KMeans (+52.2%) and the smallest GraphX-CC (+18.4%); both systems
land well below their non-JVM normalized performance because the JVM
fragments streams.
"""

from repro.analysis.report import print_artifact, render_table
from repro.workloads import SPARK_APPS

from common import normperf, paper_fraction


def test_fig12_normalized_performance_spark():
    rows = []
    fast_values, hopp_values, wins = [], [], []
    for app in SPARK_APPS:
        fraction = paper_fraction(app)
        fast = normperf(app, "fastswap", fraction)
        hopp = normperf(app, "hopp", fraction)
        win = hopp / fast - 1.0
        fast_values.append(fast)
        hopp_values.append(hopp)
        wins.append((app, win))
        rows.append([app, f"{fraction:.2f}", fast, hopp, win])
    rows.append(
        [
            "average",
            "",
            sum(fast_values) / len(fast_values),
            sum(hopp_values) / len(hopp_values),
            sum(w for _, w in wins) / len(wins),
        ]
    )
    print_artifact(
        "Figure 12: normalized performance, Spark workloads",
        render_table(
            ["workload", "local-frac", "fastswap", "hopp", "hopp-vs-fastswap"],
            rows,
        ),
    )

    # Shapes: HoPP wins everywhere; the average win is substantial.
    for (app, win) in wins:
        assert win > 0.05, f"HoPP must beat Fastswap on {app}"
    assert sum(w for _, w in wins) / len(wins) > 0.15
