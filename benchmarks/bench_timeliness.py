"""Section VI-A's third metric — timeliness.

Timeliness is "the time gap from the time a prefetched page is received
to the time it is first hit".  The policy engine's whole job
(Section III-E) is keeping it inside [T_min = 40 µs, T_max = 5 ms]:
smaller risks late pages, larger wastes local memory.  This bench
prints the distribution HoPP actually achieves per application and
asserts the controller keeps the bulk of hits inside the target window.
"""

from repro.analysis.report import print_artifact, render_table
from repro.common.constants import POLICY_T_MAX_US, POLICY_T_MIN_US
from repro.sim.machine import RunEnv
from repro.telemetry import TelemetryConfig

from common import get_result

APPS = ["omp-kmeans", "quicksort", "hpl", "npb-mg", "npb-is"]
FRACTION = 0.5


def test_timeliness_distribution():
    rows = []
    in_window_fractions = []
    for app in APPS:
        result = get_result(app, "hopp", FRACTION)
        hist = result.timeliness
        assert hist is not None and hist.stat.count > 0
        p50 = hist.quantile(0.5)
        p90 = hist.quantile(0.9)
        # Fraction of hits whose T landed in the policy's target window.
        in_window = sum(
            count
            for bound, count in zip(hist.bounds, hist.counts)
            if POLICY_T_MIN_US <= bound <= POLICY_T_MAX_US
        ) / hist.total
        in_window_fractions.append(in_window)
        rows.append(
            [app, hist.stat.count, hist.stat.mean, p50, p90, f"{in_window:.0%}"]
        )
    print_artifact(
        f"Section VI-A metric: prefetch timeliness "
        f"(target window [{POLICY_T_MIN_US:.0f} us, {POLICY_T_MAX_US:.0f} us])",
        render_table(
            ["workload", "measured hits", "mean (us)", "p50 (us)", "p90 (us)",
             "in window"],
            rows,
            precision=1,
        ),
    )

    # The controller keeps the majority of hits inside the window on
    # the streaming apps.
    assert max(in_window_fractions) > 0.6
    assert sum(in_window_fractions) / len(in_window_fractions) > 0.4


def test_timeliness_over_time():
    """Per-epoch timeliness from the telemetry time-series: does the
    policy engine's control loop *hold* T inside the window as the run
    progresses, or only on average?  Epoch sample counts must
    reconcile exactly with the aggregate timeliness histogram."""
    app = "omp-kmeans"
    result = get_result(
        app, "hopp", FRACTION,
        env=RunEnv(telemetry=TelemetryConfig(epoch_us=1000.0)),
    )
    block = result.telemetry["timeseries"]["timeliness_us"]
    assert sum(block["count"]) == result.timeliness.stat.count
    sampled = [i for i, count in enumerate(block["count"]) if count]
    assert sampled, "no prefetch first-hits recorded"

    rows = []
    for label, epoch in (("first", sampled[0]), ("last", sampled[-1])):
        rows.append(
            [
                f"{label} active epoch ({epoch})",
                block["count"][epoch],
                block["mean"][epoch],
                block["p50"][epoch],
                block["p90"][epoch],
            ]
        )
    print_artifact(
        f"timeliness over time ({app} on hopp, epoch = 1 ms, "
        f"{len(sampled)} active epochs)",
        render_table(
            ["epoch", "hits", "mean (us)", "p50 (us)", "p90 (us)"],
            rows,
            precision=1,
        ),
    )
    # The steady-state epochs keep their median inside the policy
    # window — the time-resolved form of the aggregate assertion above.
    medians = [block["p50"][i] for i in sampled]
    in_window = [
        m for m in medians if POLICY_T_MIN_US <= m <= POLICY_T_MAX_US
    ]
    assert len(in_window) >= len(medians) * 0.5
