"""Section II-D design-space study — why tap the memory controller and
not the MMU?

"MMU sees L1 accesses, which is two orders of magnitude higher than LLC
miss (e.g., 180 times for Spark-Graph-BFS)."  Tapping the MC gets the
LLC to filter in-cache locality for free, so the HPD processes a tiny
fraction of the references with no loss of the large streams it cares
about.

This bench synthesizes MMU-level reference streams from the workloads'
miss traces (re-touching recent lines like loop bodies do) and measures
the reduction factor through a 3-level hierarchy.
"""

import itertools

from repro.analysis.report import print_artifact, render_table
from repro.sim.detailed import mmu_vs_mc_volumes
from repro.workloads import build

from common import SEED

WORKLOADS = [
    ("graphx-bfs", dict(edge_pages=600, vertex_pages=100)),
    ("omp-kmeans", dict(data_pages=400, iterations=1)),
    ("npb-cg", dict(main_pages=400, iterations=1)),
]

MAX_MISS_ACCESSES = 40_000
#: Locality amplification: each miss-level access stands for this many
#: MMU-level references in loop-heavy code.
REPEATS = 16


def measure(name: str, kwargs: dict):
    workload = build(name, seed=SEED, **kwargs)
    trace = itertools.islice(workload.trace(), MAX_MISS_ACCESSES)
    return mmu_vs_mc_volumes(trace, repeats=REPEATS)


def test_mmu_vs_mc_reference_volumes():
    rows = []
    factors = {}
    for name, kwargs in WORKLOADS:
        report = measure(name, kwargs)
        factors[name] = report.reduction_factor
        rows.append(
            [name, report.mmu_accesses, report.llc_misses,
             f"{report.reduction_factor:.1f}x"]
        )
    print_artifact(
        "Section II-D: MMU-visible references vs MC-visible LLC misses",
        render_table(
            ["workload", "MMU accesses", "LLC misses", "reduction"],
            rows,
        ),
    )

    # The MC sees at least an order of magnitude less traffic; the
    # graph workload (in-LLC locality on hot vertices) filters most.
    for name in factors:
        assert factors[name] > 5.0
