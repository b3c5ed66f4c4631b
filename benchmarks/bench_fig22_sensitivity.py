"""Figure 22 — design sensitivity on the Section VI-E microbenchmark:
two worker threads each streaming a large array and summing every
8-byte word, local memory limited to a quarter of the footprint.

Paper shapes (Fastswap = baseline):
* Leap is *worse* than Fastswap — two concurrent streams make its
  global majority vote pick wrong strides;
* VMA-based read-ahead is slightly better than Fastswap (~3.6%) —
  virtual adjacency beats swap-offset adjacency;
* full HoPP is ~40% better than VMA read-ahead, almost local — the gain
  is early PTE injection plus offset control;
* fixed offsets lose: offset=1 prefetches too late, offset=20K too far.
"""

from repro.analysis.report import print_artifact, render_table

from common import get_result, normperf

WORKLOAD = "adder"
FRACTION = 0.25
SYSTEMS = [
    "leap",
    "fastswap",
    "vma-readahead",
    "hopp-offset-1",
    "hopp-offset-20k",
    "hopp-swapcache",
    "hopp",
]


def test_fig22_design_sensitivity():
    values = {system: normperf(WORKLOAD, system, FRACTION) for system in SYSTEMS}
    fastswap_ct = get_result(WORKLOAD, "fastswap", FRACTION).completion_time_us
    rows = []
    for system in SYSTEMS:
        result = get_result(WORKLOAD, system, FRACTION)
        speedup = 1.0 - result.completion_time_us / fastswap_ct
        rows.append([system, values[system], speedup, result.accuracy, result.coverage])
    print_artifact(
        "Figure 22: design sensitivity on the 2-thread adder benchmark "
        "(speedup vs Fastswap)",
        render_table(
            ["system", "norm-perf", "speedup-vs-fastswap", "accuracy", "coverage"],
            rows,
        ),
    )

    # Paper's ordering.
    assert values["leap"] <= values["fastswap"] + 0.02, "Leap must not win"
    assert values["vma-readahead"] >= values["fastswap"] - 0.01
    assert values["hopp"] > values["vma-readahead"] + 0.1
    assert values["hopp"] > values["hopp-offset-1"]
    assert values["hopp"] > values["hopp-offset-20k"]
    # Early PTE injection is a real share of the win.
    assert values["hopp"] > values["hopp-swapcache"]
    # HoPP approaches local performance.
    assert values["hopp"] > 0.9
