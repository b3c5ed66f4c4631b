#!/usr/bin/env python
"""Memory-tier benchmark: HoPP on a pooled CXL tier vs plain RDMA.

The memory-tier subsystem (``repro.memtier``) models a CXL-style pooled
tier between local DRAM and the RDMA far tier, with its link derived
from the far link by the NUMA-emulation ratio methodology (8x the DRAM
hit, 5x under the RDMA page read).  This bench answers two questions:

* **Does the pool pay?**  HoPP-on-CXL (every remote page in the pooled
  tier) vs HoPP-on-RDMA (the untiered legacy model) vs noprefetch,
  normalized against the shared all-local CT_local of Section VI-A.
  CXL must win or tie at *every* workload point — the pool's link is
  strictly faster, so any loss would be a model bug.
* **Does migration work under pressure?**  A constrained-pool arm
  (pool far smaller than the working set) with telemetry armed, showing
  hotness-driven promotions, watermark demotions, and the per-tier
  time-series that reconcile with the section counters.

Emits ``BENCH_memtier.json`` (or ``--out``) so CI can archive the
comparison.  ``--quick`` shrinks the workloads for smoke use.

Usage::

    PYTHONPATH=src python benchmarks/bench_memtier_cxl_vs_rdma.py
        [--quick] [--out BENCH_memtier.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.exec.pool import execute, local_ct_spec
from repro.exec.spec import RunSpec
from repro.memtier import MemtierConfig
from repro.net.rdma import FabricConfig
from repro.sim.machine import RunEnv
from repro.telemetry import TelemetryConfig

SEED = 7

GRID_WORKLOADS = ["stream-simple", "stream-ladder", "omp-kmeans", "kv-cache"]
QUICK_WORKLOADS = ["stream-simple", "kv-cache"]
QUICK_KWARGS = {
    "stream-simple": {"npages": 256, "passes": 4},
}
FRACTION = 0.5
#: The constrained-pool arm: small enough that the hot set cannot fit,
#: so promotions and demotions must flow.
SMALL_POOL_PAGES = 128


def _spec(workload, system, kwargs, memtier=None, telemetry=None,
          fraction=FRACTION):
    return RunSpec(
        workload=workload,
        system=system,
        fraction=fraction,
        seed=SEED,
        workload_kwargs=dict(kwargs.get(workload, {})),
        fabric=FabricConfig(seed=SEED),
        env=RunEnv(memtier=memtier, telemetry=telemetry),
    )


def bench_cxl_vs_rdma(workloads, kwargs):
    """Normalized performance of the three arms at every workload point.

    One execute() batch: CT_local references first, then noprefetch /
    HoPP-on-RDMA / HoPP-on-CXL per workload."""
    specs = [
        local_ct_spec(name, SEED, FabricConfig(seed=SEED), kwargs.get(name))
        for name in workloads
    ]
    arms = (
        ("noprefetch", None),
        ("hopp-rdma", None),
        ("hopp-cxl", MemtierConfig()),
    )
    for name in workloads:
        specs.append(_spec(name, "noprefetch", kwargs))
        specs.append(_spec(name, "hopp", kwargs))
        specs.append(_spec(name, "hopp", kwargs, memtier=MemtierConfig()))
    results = execute(specs)
    ct_local = {
        name: results[i].completion_time_us for i, name in enumerate(workloads)
    }
    points = []
    cursor = len(workloads)
    for name in workloads:
        row = {"workload": name, "ct_local_us": ct_local[name]}
        for (arm, _), result in zip(arms, results[cursor:cursor + len(arms)]):
            row[arm] = {
                "completion_time_us": result.completion_time_us,
                "normalized_performance": result.normalized_performance(
                    ct_local[name]
                ),
            }
            if result.memtier is not None:
                row[arm]["memtier"] = result.memtier
        cursor += len(arms)
        row["cxl_over_rdma"] = (
            row["hopp-cxl"]["normalized_performance"]
            / row["hopp-rdma"]["normalized_performance"]
        )
        points.append(row)
    return points


def bench_constrained_pool(workload, kwargs):
    """The migration arm: tiny pool, telemetry on, counters + series."""
    spec = _spec(
        workload, "hopp", kwargs,
        memtier=MemtierConfig(
            pool_nodes=1, pool_capacity_pages=SMALL_POOL_PAGES
        ),
        telemetry=TelemetryConfig(epoch_us=1000.0),
        fraction=0.4,
    )
    result = execute([spec])[0]
    section = result.memtier
    series = result.telemetry["timeseries"]["series"]
    return {
        "workload": workload,
        "pool_capacity_pages": SMALL_POOL_PAGES,
        "memtier": section,
        "series_sums": {
            name: sum(series[name])
            for name in (
                "memtier_pool_reads", "memtier_far_reads",
                "memtier_promotions", "memtier_demotions",
            )
        },
        "series": {
            name: series[name]
            for name in ("memtier_promotions", "memtier_demotions")
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", "-o", default="BENCH_memtier.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink workloads for a CI smoke run",
    )
    args = parser.parse_args(argv)

    workloads = QUICK_WORKLOADS if args.quick else GRID_WORKLOADS
    kwargs = QUICK_KWARGS if args.quick else {}

    print(f"CXL-vs-RDMA grid over {workloads} ...", flush=True)
    points = bench_cxl_vs_rdma(workloads, kwargs)
    failures = []
    for row in points:
        cxl = row["hopp-cxl"]["normalized_performance"]
        rdma = row["hopp-rdma"]["normalized_performance"]
        nopf = row["noprefetch"]["normalized_performance"]
        marker = "ok" if cxl >= rdma else "REGRESSION"
        if cxl < rdma:
            failures.append(row["workload"])
        print(
            f"  {row['workload']:<16} noprefetch {nopf:.3f}  "
            f"hopp-rdma {rdma:.3f}  hopp-cxl {cxl:.3f}  "
            f"({row['cxl_over_rdma']:.2f}x)  {marker}"
        )

    migration_workload = "kv-cache"
    print(f"constrained-pool migration arm ({migration_workload}) ...",
          flush=True)
    migration = bench_constrained_pool(migration_workload, kwargs)
    section = migration["memtier"]
    print(
        f"  promotions {section['promotions']}, "
        f"demotions {section['demotions']}, "
        f"migration bytes {section['migration_bytes']}, "
        f"pool/far demand reads {section['pool_demand_reads']}/"
        f"{section['far_demand_reads']}"
    )
    if section["promotions"] <= 0 or section["demotions"] <= 0:
        failures.append("constrained-pool-migration")
    for name, total in migration["series_sums"].items():
        expected = {
            "memtier_pool_reads": section["pool_demand_reads"],
            "memtier_far_reads": section["far_demand_reads"],
            "memtier_promotions": section["promotions"],
            "memtier_demotions": section["demotions"],
        }[name]
        if total != expected:
            failures.append(f"series-mismatch:{name}")

    payload = {
        "seed": SEED,
        "quick": args.quick,
        "points": points,
        "migration": migration,
        "failures": failures,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    if failures:
        print(f"FAILED: {failures}", file=sys.stderr)
        return 1
    print("CXL >= RDMA at every point; migration series reconcile.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
