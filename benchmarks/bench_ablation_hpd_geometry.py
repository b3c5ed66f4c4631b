"""Ablation A2 — HPD table geometry (sets x ways).

The paper fixes 4 sets x 16 ways (M = 64 concurrently tracked pages)
and argues more sets track more pages.  Sweeping the geometry shows the
trade-off: a tiny table churns (repeated detections, missed hot pages
on concurrent workloads); a big one costs area for little extra hot-page
yield on these workloads.
"""

import itertools

from repro.analysis.report import print_artifact, render_table
from repro.hopp.hardware_model import HPD_ENTRY_BITS, SramModel
from repro.hopp.hpd import HotPageDetector
from repro.workloads import build

from common import SEED, param_grid

GEOMETRIES = list(param_grid(nsets=[1, 4, 16, 64], nways=[16]))
MAX_ACCESSES = 300_000


def churn_metrics(nsets: int, nways: int):
    workload = build(
        "graphx-pr", seed=SEED, edge_pages=900, vertex_pages=150, blocks_per_page=64
    )
    hpd = HotPageDetector(threshold=8, nsets=nsets, nways=nways)
    for _, vaddr in itertools.islice(workload.trace(), MAX_ACCESSES):
        hpd.process(vaddr)
    return hpd


def test_ablation_hpd_geometry():
    model = SramModel()
    rows = []
    repeats_by_capacity = {}
    ratio_by_capacity = {}
    for point in GEOMETRIES:
        nsets, nways = point["nsets"], point["nways"]
        hpd = churn_metrics(nsets, nways)
        capacity = nsets * nways
        estimate = model.estimate(capacity * HPD_ENTRY_BITS)
        repeats_by_capacity[capacity] = hpd.repeated_detections
        ratio_by_capacity[capacity] = hpd.hot_page_ratio
        rows.append(
            [
                f"{nsets}x{nways}",
                capacity,
                hpd.hot_pages,
                hpd.repeated_detections,
                f"{hpd.hot_page_ratio * 100:.2f}%",
                f"{estimate.area_mm2:.6f}",
            ]
        )
    print_artifact(
        "Ablation A2: HPD geometry (GraphX-PR trace, N=8)",
        render_table(
            ["geometry", "entries", "hot pages", "repeats", "ratio", "area mm^2"],
            rows,
        ),
    )

    # More capacity means less churn: entries keep their send bit long
    # enough that the same page is re-extracted less often, so both the
    # repeated detections and the hot-page bandwidth ratio fall — at a
    # quadratically growing area cost.  The paper's 64-entry table sits
    # on the cheap side of that curve.
    assert repeats_by_capacity[1024] < repeats_by_capacity[64]
    assert ratio_by_capacity[1024] <= ratio_by_capacity[64]
