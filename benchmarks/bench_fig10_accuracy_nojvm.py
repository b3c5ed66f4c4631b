"""Figure 10 — prefetch accuracy of Fastswap vs HoPP, non-JVM apps.

Paper shapes: HoPP accuracy exceeds 90% everywhere ("almost every
prefetch from HoPP is correct"); the average improvement over Fastswap
is ~18%.
"""

from repro.analysis.report import print_artifact, render_table
from repro.workloads import NON_JVM_APPS

from common import get_result

FRACTION = 0.5


def test_fig10_accuracy_nojvm():
    rows = []
    fast_values, hopp_values = [], []
    for app in NON_JVM_APPS:
        fast = get_result(app, "fastswap", FRACTION).accuracy
        hopp = get_result(app, "hopp", FRACTION).accuracy
        fast_values.append(fast)
        hopp_values.append(hopp)
        rows.append([app, fast, hopp])
    rows.append(
        ["average", sum(fast_values) / len(fast_values), sum(hopp_values) / len(hopp_values)]
    )
    print_artifact(
        "Figure 10: prefetch accuracy, non-JVM apps",
        render_table(["workload", "fastswap", "hopp"], rows),
    )

    # HoPP accuracy > 90% on the large majority of apps, and at least
    # as good as Fastswap on average.
    over_90 = sum(1 for value in hopp_values if value > 0.9)
    assert over_90 >= len(hopp_values) - 2
    assert sum(hopp_values) > sum(fast_values)
