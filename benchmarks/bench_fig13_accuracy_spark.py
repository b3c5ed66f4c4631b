"""Figure 13 — prefetch accuracy on the Spark workloads.

Paper shape: HoPP stays well ahead of Fastswap on average (~18%), even
though the JVM's fragmented allocation gives everyone fewer trainable
streams than the OMP/C variants.
"""

from repro.analysis.report import print_artifact, render_table
from repro.workloads import SPARK_APPS

from common import get_result, paper_fraction


def test_fig13_accuracy_spark():
    rows, fast_values, hopp_values = [], [], []
    for app in SPARK_APPS:
        fraction = paper_fraction(app)
        fast = get_result(app, "fastswap", fraction).accuracy
        hopp = get_result(app, "hopp", fraction).accuracy
        fast_values.append(fast)
        hopp_values.append(hopp)
        rows.append([app, fast, hopp])
    rows.append(
        ["average", sum(fast_values) / len(fast_values),
         sum(hopp_values) / len(hopp_values)]
    )
    print_artifact(
        "Figure 13: prefetch accuracy, Spark workloads",
        render_table(["workload", "fastswap", "hopp"], rows),
    )

    assert sum(hopp_values) >= sum(fast_values)
    assert sum(hopp_values) / len(hopp_values) > 0.8
