"""Table III — RPT cache hit rate vs cache size (1..64 KB).

Paper rows (K-means, PageRank): hit rate climbs from ~0.85-0.92 at 1 KB
to ~0.997 at 64 KB, with diminishing returns past 32 KB.  The hit rate
is high because a hot page was usually just fetched from remote, so its
PTE hook freshly installed the RPT entry in the cache (Section III-C).

Method: run the full HoPP machine (hooks, swapping, prefetching) with
the RPT cache size under test and read the lookup-path hit rate.
"""

from repro.analysis.report import print_artifact, render_table

from common import get_result

SIZES_KB = (1, 2, 4, 8, 16, 32, 64)

WORKLOADS = {
    "K-means": ("omp-kmeans", dict(data_pages=1200, iterations=2)),
    "PgRank": ("graphx-pr", dict(edge_pages=1500, vertex_pages=250)),
}


def rpt_hit_rate(name: str, kwargs: dict, size_kb: int) -> float:
    result = get_result(
        name, "hopp", 0.5,
        workload_kwargs=kwargs, system_kwargs={"rpt_cache_kb": size_kb},
    )
    return result.extra["rpt_cache_hit_rate"]


def test_table3_rpt_cache_size():
    rows = []
    for label, (name, kwargs) in WORKLOADS.items():
        rates = [rpt_hit_rate(name, kwargs, kb) for kb in SIZES_KB]
        rows.append([label] + [f"{r:.3f}" for r in rates])
        # Shapes: 64 KB nearly perfect; growth with size; diminishing
        # returns at the top end (paper: <0.1% gain past 32 KB).
        assert rates[-1] > 0.95
        assert rates[-1] >= rates[0]
        assert rates[-1] - rates[-2] < 0.05
    print_artifact(
        "Table III: RPT cache hit rate vs size",
        render_table(["Workload"] + [f"{kb}KB" for kb in SIZES_KB], rows),
    )
