"""Ablation A4 — Section IV's huge-page batch prefetching.

"When HoPP detects the page stream is long enough, it can choose to
swap 512 consecutive future pages with one prefetch request to the
reserved 2 MB space."

The sweep shows the extension's niche: with local-memory headroom it
matches full HoPP while collapsing thousands of single-page requests
into a handful of 2 MB batches; under tight memory the 512-page charge
bursts self-evict (the same pollution dynamic that hurts Depth-N), so
the mechanism must stay gated on stream length *and* headroom.
"""

from repro.analysis.report import print_artifact, render_table

from common import get_result

WORKLOAD_KWARGS = {"npages": 3000, "passes": 2}


def test_ablation_hugepage_batching():
    rows = []
    results = {}
    for fraction in (0.5, 0.75):
        for system in ("hopp", "hopp-huge"):
            result = get_result(
                "stream-simple", system, fraction,
                workload_kwargs=WORKLOAD_KWARGS,
            )
            results[(system, fraction)] = result
            batch_pages = result.issued_by_tier.get("huge", 0)
            single_pages = sum(
                count for tier, count in result.issued_by_tier.items()
                if tier != "huge"
            )
            rows.append(
                [
                    f"{system}@{fraction:.0%}",
                    result.completion_time_us,
                    single_pages,
                    batch_pages,
                    result.prefetch_wasted,
                ]
            )
    print_artifact(
        "Ablation A4: huge-page (2 MB) batch prefetching",
        render_table(
            ["config", "completion (us)", "single-page reqs", "batched pages",
             "wasted"],
            rows,
        ),
    )

    generous_hopp = results[("hopp", 0.75)]
    generous_huge = results[("hopp-huge", 0.75)]
    # With headroom: same performance, far fewer requests.
    assert generous_huge.completion_time_us <= generous_hopp.completion_time_us * 1.05
    assert generous_huge.issued_by_tier.get("huge", 0) > 1000
    # Under tight memory the batches backfire — the documented caveat.
    tight_hopp = results[("hopp", 0.5)]
    tight_huge = results[("hopp-huge", 0.5)]
    assert tight_huge.prefetch_wasted > tight_hopp.prefetch_wasted
