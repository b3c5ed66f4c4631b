"""Figure 17 — remote memory accesses of Depth-N, Fastswap, and HoPP,
normalized to Fastswap *without prefetching* (demand paging only).

Paper shapes: Depth-N issues the most remote reads of the four (its
rigid window cannot adapt), and although HoPP does not necessarily have
the maximum reduction, it has the best performance (Figure 16) thanks
to early PTE injection *with* feedback.
"""

from repro.analysis.report import print_artifact, render_table
from repro.sim.machine import RunEnv
from repro.telemetry import TelemetryConfig

from common import get_result, paper_fraction

APPS = ["graphx-bfs", "omp-kmeans", "graphx-cc", "npb-mg"]
SYSTEMS = ["depth-16", "depth-32", "fastswap", "hopp"]
TELEMETRY = RunEnv(telemetry=TelemetryConfig(epoch_us=1000.0))


def test_fig17_normalized_remote_accesses():
    rows = []
    ratios = {}
    for app in APPS:
        fraction = paper_fraction(app)
        baseline = get_result(app, "noprefetch", fraction).remote_accesses
        row = [app]
        for system in SYSTEMS:
            ratio = get_result(app, system, fraction).remote_accesses / max(baseline, 1)
            ratios[(app, system)] = ratio
            row.append(ratio)
        rows.append(row)
    print_artifact(
        "Figure 17: remote accesses normalized to no-prefetch Fastswap",
        render_table(["workload"] + SYSTEMS, rows),
    )

    # Depth-N is the most remote-access-hungry overall.
    depth32_total = sum(ratios[(app, "depth-32")] for app in APPS)
    for system in ("fastswap", "hopp"):
        assert depth32_total > sum(ratios[(app, system)] for app in APPS)
    # On the irregular graph apps, Depth-32 is the single worst.
    for app in ("graphx-bfs", "graphx-cc"):
        assert ratios[(app, "depth-32")] == max(
            ratios[(app, system)] for system in SYSTEMS
        )


def test_fig17_remote_accesses_over_time():
    """The time-resolved companion: per-epoch remote reads from the
    telemetry time-series, the series Figure 17 aggregates away.

    Each system's epoch sums must reconcile *exactly* with its
    aggregate fabric counter — telemetry re-buckets the same
    increments, it never keeps second books.
    """
    app = "graphx-bfs"
    fraction = paper_fraction(app)
    rows = []
    for system in ("fastswap", "hopp"):
        result = get_result(app, system, fraction, env=TELEMETRY)
        series = result.telemetry["timeseries"]["series"]
        reads = series["remote_reads"]
        assert sum(reads) == result.fabric_reads, system
        assert sum(series["demand_faults"]) == result.remote_demand_reads
        assert len(reads) == result.telemetry["timeseries"]["epochs"]
        # Fold the run into deciles of wall-clock so the shape is
        # readable regardless of epoch count.
        n = len(reads)
        deciles = [
            sum(reads[(n * i) // 10:(n * (i + 1)) // 10]) for i in range(10)
        ]
        rows.append([system, result.fabric_reads] + deciles)
    print_artifact(
        f"Figure 17 over time: remote reads per run-decile ({app}, "
        f"epoch = 1 ms)",
        render_table(
            ["system", "total"] + [f"d{i}" for i in range(10)], rows
        ),
    )
