#!/usr/bin/env python
"""Harness throughput benchmark: how fast the simulator itself runs.

Unlike the figure benches (which reproduce the paper's *results*), this
one measures the reproduction *machinery*:

* what the telemetry subsystem costs, disabled (the default) and armed;
* a 16-point sweep grid executed serially vs ``--jobs N`` — the
  process-pool speedup (skipped on 1-core boxes, where it would only
  measure pool overhead);
* the same grid against a cold vs warm result cache — the price of a
  miss and the (near-zero) price of a hit.

Emits ``BENCH_harness.json`` next to the repo root (or ``--out``) so CI
can archive throughput over time.  ``--quick`` shrinks the workloads
for smoke use; published numbers should come from a default run.  Exit
status is non-zero when parallel != serial, warm != cold, or disabled
telemetry costs more than its bound.  Throughput is reported, not
gated: whole-run ``acc_per_s`` from ``benchmarks/perf`` is the
regression metric, and ``tests/test_fastpath.py`` plus the
``benchmarks/perf`` digests check the batch kernel against the oracle
loop.

Usage::

    PYTHONPATH=src python benchmarks/bench_harness_throughput.py [--quick]
        [--jobs N] [--out BENCH_harness.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.exec.cache import ResultCache, TraceCache
from repro.exec.pool import execute
from repro.exec.spec import RunSpec
from repro.net.rdma import FabricConfig
from repro.sim.machine import RunEnv
from repro.sim.runner import make_machine
from repro.telemetry import TelemetryConfig
from repro.workloads import build

SEED = 7

#: The 16-point grid: 2 workloads x 4 systems x 2 fractions.  The
#: workloads are the two heaviest traces so each point carries enough
#: work for the process pool to amortize its startup; --quick swaps in
#: scaled-down streams.
GRID_WORKLOADS = ["omp-kmeans", "kv-cache"]
QUICK_WORKLOADS = ["stream-simple", "stream-ladder"]
GRID_SYSTEMS = ["noprefetch", "fastswap", "leap", "hopp"]
GRID_FRACTIONS = [0.25, 0.5]


def grid_specs(workloads, workload_kwargs):
    return [
        RunSpec(
            workload=name,
            system=system,
            fraction=fraction,
            seed=SEED,
            workload_kwargs=dict(workload_kwargs.get(name, {})),
            fabric=FabricConfig(seed=SEED),
        )
        for name in workloads
        for system in GRID_SYSTEMS
        for fraction in GRID_FRACTIONS
    ]


def bench_telemetry_overhead(workload_name, system, workload_kwargs, repeats=3):
    """What the telemetry subsystem costs, min-of-N per mode.

    ``disabled`` (``telemetry=None``, the default) is the mode the <2%
    acceptance bound applies to: every probe site is one ``is not
    None`` check on the fault path and the resident-hit fast path is
    untouched, so it must time within noise of a plain run.
    ``timeseries`` and ``trace`` report what an *armed* bus costs —
    O(remote traffic), paid only when asked for.

    The baseline the bound is judged against is a ``baseline`` mode
    measured in the *same* interleaved rounds (an A/A control —
    literally another ``telemetry=None`` run), with the collector
    frozen during each timed region so the trace mode's allocation
    burst cannot bleed GC pauses into its neighbours.  Comparing
    against a run timed in a different section of the process measures
    session drift, not telemetry.

    The ``*_overhead`` ratios are the *minimum of per-round paired
    ratios* (mode time / baseline time within the same round) — a
    one-sided test: it exceeds the bound only when *every* round shows
    the overhead, i.e. when the cost is systematic rather than a
    scheduler hiccup landing in one timed region.  That is exactly the
    failure the disabled gate exists to catch — a telemetry probe
    leaking onto the per-access path costs far more than 2% and shows
    up in all rounds — while min-of-N-over-min-of-N has an A/A spread
    of several percent on a loaded single-core box, wider than the
    bound it is supposed to check.  For the armed modes the number is
    accordingly a lower-bound estimate of the true cost."""
    workload = build(workload_name, seed=SEED, **workload_kwargs)
    trace = list(workload.trace())
    modes = {
        "baseline": lambda: None,
        "disabled": lambda: None,
        "timeseries": lambda: TelemetryConfig(),
        "trace": lambda: TelemetryConfig(trace=True),
    }

    def one(telemetry):
        machine = make_machine(
            workload, system, 0.5, FabricConfig(seed=SEED),
            env=RunEnv(telemetry=telemetry),
        )
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            machine.run(trace)
            return time.perf_counter() - start
        finally:
            gc.enable()

    one(None)  # warm allocator and code paths outside the measurement
    samples = {label: [] for label in modes}
    for _ in range(repeats):
        for label, config in modes.items():
            samples[label].append(one(config()))
    out = {}
    for label, times in samples.items():
        best = min(times)
        out[label] = {
            "seconds": best,
            "accesses_per_sec": len(trace) / best if best > 0 else 0.0,
        }
    base_rounds = samples["baseline"]
    for label in ("disabled", "timeseries", "trace"):
        ratios = [
            t / b for t, b in zip(samples[label], base_rounds) if b > 0
        ]
        out[f"{label}_overhead"] = min(ratios) - 1 if ratios else 0.0
    return out


def bench_grid(specs, jobs):
    """Wall-clock of the grid, serial vs parallel, both uncached."""
    start = time.perf_counter()
    serial = execute(specs, jobs=1, trace_cache=TraceCache())
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = execute(specs, jobs=jobs)
    parallel_s = time.perf_counter() - start

    identical = all(
        a.to_dict(full=True) == b.to_dict(full=True)
        for a, b in zip(serial, parallel)
    )
    accesses = sum(r.accesses for r in serial)
    return {
        "points": len(specs),
        "total_accesses": accesses,
        "serial": {
            "seconds": serial_s,
            "accesses_per_sec": accesses / serial_s if serial_s > 0 else 0.0,
        },
        "parallel": {
            "jobs": jobs,
            "seconds": parallel_s,
            "accesses_per_sec": accesses / parallel_s if parallel_s > 0 else 0.0,
        },
        "speedup": serial_s / parallel_s if parallel_s > 0 else 0.0,
        "parallel_equals_serial": identical,
    }


def bench_cache(specs, cache_root):
    """Wall-clock of the grid against a cold then warm result cache."""
    cache = ResultCache(cache_root)
    start = time.perf_counter()
    cold = execute(specs, cache=cache, trace_cache=TraceCache())
    cold_s = time.perf_counter() - start

    warm_cache = ResultCache(cache_root)
    start = time.perf_counter()
    warm = execute(specs, cache=warm_cache)
    warm_s = time.perf_counter() - start

    identical = all(
        a.to_dict(full=True) == b.to_dict(full=True)
        for a, b in zip(cold, warm)
    )
    return {
        "points": len(specs),
        "cold": {"seconds": cold_s, "stores": cache.stores},
        "warm": {"seconds": warm_s, "hits": warm_cache.hits},
        "speedup": cold_s / warm_s if warm_s > 0 else 0.0,
        "warm_equals_cold": identical,
        "all_hits": warm_cache.hits == len(specs),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", "-j", type=int, default=4)
    parser.add_argument("--out", "-o", default="BENCH_harness.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink workloads for a CI smoke run",
    )
    args = parser.parse_args(argv)

    workloads = QUICK_WORKLOADS if args.quick else GRID_WORKLOADS
    workload_kwargs = (
        {
            "stream-simple": {"npages": 256, "passes": 4},
            "stream-ladder": {"steps": 100, "passes": 2},
        }
        if args.quick
        else {}
    )
    specs = grid_specs(workloads, workload_kwargs)

    single_workload = "stream-simple" if args.quick else "omp-kmeans"
    print(f"telemetry overhead ({single_workload}/hopp@0.5) ...", flush=True)
    telemetry = bench_telemetry_overhead(
        single_workload, "hopp", workload_kwargs.get(single_workload, {}),
        repeats=1 if args.quick else 5,
    )
    # The acceptance bound: telemetry disabled (the default) must cost
    # nothing measurable against the interleaved A/A baseline.  --quick
    # runs are milliseconds long, so the noise floor, not the code,
    # dominates; gate loosely there.
    disabled_overhead = telemetry["disabled_overhead"]
    telemetry_ok = disabled_overhead < (0.25 if args.quick else 0.02)
    print(
        f"  disabled {disabled_overhead * 100:+.2f}% vs baseline "
        f"(ok={telemetry_ok}), timeseries "
        f"{telemetry['timeseries_overhead'] * 100:+.1f}%, trace "
        f"{telemetry['trace_overhead'] * 100:+.1f}%"
    )

    # A process pool cannot beat serial without a second core: on a
    # 1-CPU box the comparison measures pure pool overhead and the
    # "speedup" reads as a misleading slowdown.  Skip and say so.
    cpu_count = os.cpu_count() or 1
    if cpu_count >= 2:
        print(f"{len(specs)}-point grid, serial vs --jobs {args.jobs} ...",
              flush=True)
        grid = bench_grid(specs, args.jobs)
        print(
            f"  serial {grid['serial']['seconds']:.2f}s, parallel "
            f"{grid['parallel']['seconds']:.2f}s, "
            f"speedup {grid['speedup']:.2f}x, "
            f"identical={grid['parallel_equals_serial']}"
        )
    else:
        grid = {
            "skipped": True,
            "reason": (
                f"cpu_count={cpu_count} < 2: a process pool has no second "
                "core to fan out to, so serial-vs-jobs would measure pool "
                "overhead, not speedup"
            ),
            "points": len(specs),
        }
        print(
            f"{len(specs)}-point grid, serial vs --jobs {args.jobs}: "
            f"SKIPPED ({grid['reason']})"
        )

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        print("grid against cold vs warm cache ...", flush=True)
        cache = bench_cache(specs, tmp)
    print(
        f"  cold {cache['cold']['seconds']:.2f}s, warm "
        f"{cache['warm']['seconds']:.2f}s, speedup {cache['speedup']:.1f}x, "
        f"all_hits={cache['all_hits']}"
    )

    payload = {
        "seed": SEED,
        "quick": args.quick,
        # Pool speedup only materializes with real cores to fan out to;
        # on a 1-CPU host the parallel numbers measure pure overhead.
        "cpu_count": os.cpu_count(),
        "grid": {
            "workloads": workloads,
            "systems": GRID_SYSTEMS,
            "fractions": GRID_FRACTIONS,
            "workload_kwargs": workload_kwargs,
        },
        "telemetry": telemetry,
        "sweep": grid,
        "cache": cache,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {args.out}")

    ok = (
        grid.get("parallel_equals_serial", True)
        and cache["warm_equals_cold"]
        and telemetry_ok
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
