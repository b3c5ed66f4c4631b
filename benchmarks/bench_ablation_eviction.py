"""Ablation A5 — trace-informed eviction (the second Section IV
extension: "the software can serve other purposes with full memory
traces, e.g., improving kernel page eviction").

On a scan-plus-working-set stressor, plain LRU lets the scan flood the
recency list and push out the reusable working set; hinting the scan's
*stream-behind* pages to reclaim makes eviction scan-resistant.  The
protect-window sweep shows the knob's safe range.
"""

from repro.analysis.report import print_artifact, render_table

from common import get_result, local_ct

WORKLOAD = "scan-with-workingset"
FRACTION = 0.33


def test_ablation_stream_aware_eviction():
    ct_local = local_ct(WORKLOAD)

    rows = []
    results = {}
    for system in ("fastswap", "hopp", "hopp-evict"):
        result = get_result(WORKLOAD, system, FRACTION)
        results[system] = result
        rows.append(
            [
                system,
                result.normalized_performance(ct_local),
                result.remote_demand_reads,
                result.page_faults,
                result.reclaim_pages,
            ]
        )
    print_artifact(
        "Ablation A5: stream-aware eviction on scan + working set "
        f"(local = {FRACTION:.0%} of footprint)",
        render_table(
            ["system", "norm-perf", "demand remote", "page faults", "reclaimed"],
            rows,
        ),
    )

    # The advisor keeps the working set local: fewer demand reads and
    # better completion time than both LRU-based systems.
    assert results["hopp-evict"].remote_demand_reads < results["hopp"].remote_demand_reads
    assert (
        results["hopp-evict"].completion_time_us
        < results["hopp"].completion_time_us
        < results["fastswap"].completion_time_us
    )
