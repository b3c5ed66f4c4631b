"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list                 show registered workloads and systems
run                  run one workload under one system, print metrics
compare              run one workload under several systems
sweep                run a (workload x system x fraction) grid
tune                 black-box search over the HoPP design space
trace                capture a workload's HMTT trace to a file
analyze              classify a trace's stream patterns

Simulation commands go through the execution engine: results are cached
on disk keyed by the full run configuration (``--no-cache`` to opt out,
``--cache-dir`` to relocate), ``compare``/``sweep`` fan points out over
``--jobs`` worker processes, and ``run --profile`` reports where the
wall-clock went by simulator component.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.patterns import analyze_trace, page_sequence
from repro.analysis.report import render_table
from repro.cluster import ClusterConfig, placement_names
from repro.exec.cache import ResultCache
from repro.exec.pool import execute, local_ct_spec
from repro.exec.spec import RunSpec
from repro.net.faults import FaultPlan
from repro.net.rdma import FabricConfig
from repro.sim import runner, systems
from repro.sim.machine import RunEnv
from repro.telemetry import TelemetryConfig, chrome_trace, prometheus_snapshot
from repro.trace.hmtt import HmttTracer
from repro.trace.persist import load_trace, write_trace
from repro.workloads import build as build_workload
from repro.workloads import names as workload_names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HoPP (HPCA 2023) trace-driven reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show registered workloads and systems")

    def add_run_args(p):
        p.add_argument("--workload", "-w", required=True)
        p.add_argument("--fraction", "-f", type=float, default=0.5,
                       help="local memory as a fraction of the footprint")
        p.add_argument("--seed", type=int, default=1)

    def add_fault_args(p):
        p.add_argument(
            "--fault-plan", default=None, metavar="PLAN",
            help="inject fabric/remote faults: 'chaos' (the hostile-"
                 "fabric preset), 'chaos:<seed>', 'crash' (one node dies "
                 "permanently mid-run), 'crash:<seed>', 'crash-rejoin' "
                 "(dies, then a replacement racks in), 'corruption' "
                 "(silent bit flips + latent media errors), "
                 "'corruption-chaos' (both at once), each with an "
                 "optional ':<seed>' suffix, or a JSON plan file",
        )
        p.add_argument(
            "--scrub-rate", type=float, default=None, metavar="PAGES/S",
            help="arm the background patrol scrubber at this audit rate "
                 "(pages per second of simulated time); scrub reads ride "
                 "the repair engine's rate limiter and pay modeled READ "
                 "cost",
        )
        p.add_argument(
            "--check-invariants", action="store_true",
            help="run the cross-layer invariant sanitizer at epoch "
                 "boundaries and after every recovery event (opt-in: "
                 "each sweep walks every page-table entry)",
        )

    def add_cache_args(p):
        p.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="result-cache directory (default: $REPRO_CACHE_DIR or "
                 "~/.cache/repro-hopp)",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="always simulate; neither read nor write the result "
                 "cache",
        )

    def add_telemetry_args(p):
        p.add_argument(
            "--telemetry", action="store_true",
            help="record windowed time-series telemetry (per-epoch "
                 "coverage/accuracy/remote accesses, fetch-latency "
                 "p50/p99) onto the result; off by default — disabled "
                 "runs are byte-identical and probe-free",
        )
        p.add_argument(
            "--telemetry-epoch-us", type=float, default=1000.0,
            metavar="US", help="time-series window width in simulated "
                               "microseconds (default 1000)",
        )
        p.add_argument(
            "--trace-out", default=None, metavar="FILE",
            help="also record the swap-path/prefetch-lifecycle timeline "
                 "and write it as Chrome trace-event JSON (load in "
                 "chrome://tracing or https://ui.perfetto.dev); implies "
                 "--telemetry",
        )
        p.add_argument(
            "--prom-out", default=None, metavar="FILE",
            help="write a Prometheus text-format snapshot of the run's "
                 "counters (aggregate + per-node); implies --telemetry",
        )

    def add_jobs_arg(p):
        p.add_argument(
            "--jobs", "-j", type=int, default=1, metavar="N",
            help="run independent points over N worker processes "
                 "(results are byte-identical to a serial run)",
        )

    def add_cluster_args(p):
        p.add_argument(
            "--remote-nodes", type=int, default=1, metavar="N",
            help="memory nodes in the remote pool, each behind its own "
                 "link (default 1 = the paper's single-node testbed)",
        )
        p.add_argument(
            "--placement", default="interleave",
            choices=placement_names(),
            help="page placement policy across nodes",
        )
        p.add_argument(
            "--replication", type=int, default=1, metavar="R",
            help="copies per page (R > 1 enables demand-read failover)",
        )

    def add_memtier_args(p):
        p.add_argument(
            "--mem-tiers", type=int, default=0, metavar="P",
            help="arm the CXL-style memory-tier pool with P pooled "
                 "nodes in front of the --remote-nodes far (RDMA) "
                 "nodes; 0 (default) keeps the untiered legacy model "
                 "byte-identical",
        )
        p.add_argument(
            "--cxl-latency-us", type=float, default=None, metavar="US",
            help="per-page latency of the pooled tier's link (default: "
                 "8x the DRAM hit, 5x under the RDMA page read — the "
                 "NUMA-emulation ratio methodology)",
        )
        p.add_argument(
            "--pool-capacity", type=int, default=None, metavar="PAGES",
            help="capacity of each pooled node in pages (default: "
                 "match the far nodes); small pools exercise "
                 "watermark demotion",
        )

    run_parser = sub.add_parser("run", help="run one workload/system pair")
    add_run_args(run_parser)
    add_fault_args(run_parser)
    add_cluster_args(run_parser)
    add_memtier_args(run_parser)
    add_cache_args(run_parser)
    add_telemetry_args(run_parser)
    run_parser.add_argument("--system", "-s", default="hopp")
    run_parser.add_argument("--json", action="store_true",
                            help="emit the full result as JSON")
    run_parser.add_argument(
        "--profile", action="store_true",
        help="profile the run and report time shares by simulator "
             "component (forces a fresh simulation)",
    )

    compare_parser = sub.add_parser("compare", help="compare systems")
    add_run_args(compare_parser)
    add_fault_args(compare_parser)
    add_cluster_args(compare_parser)
    add_memtier_args(compare_parser)
    add_cache_args(compare_parser)
    add_jobs_arg(compare_parser)
    compare_parser.add_argument(
        "--systems", default="fastswap,hopp",
        help="comma-separated system names",
    )

    sweep_parser = sub.add_parser(
        "sweep", help="run a (workload x system x fraction) grid"
    )
    sweep_parser.add_argument(
        "--workloads", "-w", required=True,
        help="comma-separated workload names",
    )
    sweep_parser.add_argument(
        "--systems", "-s", default="fastswap,hopp",
        help="comma-separated system names",
    )
    sweep_parser.add_argument(
        "--fractions", "-f", default="0.25,0.5",
        help="comma-separated local-memory fractions",
    )
    sweep_parser.add_argument("--seed", type=int, default=1)
    sweep_parser.add_argument(
        "--metrics", default="normalized_performance,accuracy,coverage",
        help="comma-separated metric columns",
    )
    add_cache_args(sweep_parser)
    add_jobs_arg(sweep_parser)

    tune_parser = sub.add_parser(
        "tune",
        help="black-box search over the HoPP design space "
             "(HPD/STT/policy/placement), cached and resumable",
    )
    tune_parser.add_argument(
        "--space", default="hpd",
        help="named search space: hpd, hopp-core, placement, or full",
    )
    tune_parser.add_argument(
        "--strategy", default="random",
        help="search strategy: random, evolve, or sha",
    )
    tune_parser.add_argument(
        "--budget", type=int, default=8, metavar="N",
        help="candidate evaluations to spend (cache hits still count: "
             "the trajectory must not depend on cache state)",
    )
    tune_parser.add_argument("--workload", "-w", required=True)
    tune_parser.add_argument(
        "--system", "-s", default="hopp",
        help="base system whose knobs the space overrides "
             "(must be HoPP-based for system.* dimensions)",
    )
    tune_parser.add_argument("--fraction", "-f", type=float, default=0.5,
                             help="local memory fraction of the footprint")
    tune_parser.add_argument("--seed", type=int, default=1,
                             help="seeds both the simulations and the search")
    tune_parser.add_argument(
        "--objective", default="normalized_performance", metavar="METRIC",
        help="metric to maximize; prefix '-' to minimize "
             "(e.g. '-completion_time_us')",
    )
    tune_parser.add_argument(
        "--constrain", action="append", default=[], metavar="EXPR",
        help="constraint like 'accuracy>=0.5' or "
             "'prefetch_wasted<=100@5' (repeatable; '@w' sets the "
             "scalarization penalty weight)",
    )
    tune_parser.add_argument(
        "--fidelity", default=None, metavar="KWARG=V1,V2,...",
        help="trace-length ladder over a workload kwarg, cheapest "
             "first (e.g. 'passes=1,2'); required for --strategy sha",
    )
    tune_parser.add_argument(
        "--journal", default=None, metavar="FILE",
        help="append-only JSONL trial journal (enables --resume)",
    )
    tune_parser.add_argument(
        "--resume", action="store_true",
        help="replay an existing --journal and continue the identical "
             "trajectory from where it stopped",
    )
    tune_parser.add_argument(
        "--report-out", default=None, metavar="FILE",
        help="write the best-config report (JSON, trajectory included)",
    )
    add_cache_args(tune_parser)
    add_jobs_arg(tune_parser)

    trace_parser = sub.add_parser("trace", help="capture an HMTT trace")
    add_run_args(trace_parser)
    trace_parser.add_argument("--system", "-s", default="noprefetch")
    trace_parser.add_argument("--out", "-o", required=True)
    trace_parser.add_argument("--limit", type=int, default=0,
                              help="stop after N accesses (0 = all)")
    # Default to all-local capture: without reclaim the frame allocator
    # hands out contiguous PPNs, matching the paper's quiescent offline
    # capture setup (physical streams stay streams).
    trace_parser.set_defaults(fraction=4.0)

    analyze_parser = sub.add_parser("analyze", help="classify stream patterns")
    analyze_parser.add_argument("--trace", help="an HMTT trace file")
    analyze_parser.add_argument("--workload", "-w", help="or a workload name")
    analyze_parser.add_argument("--seed", type=int, default=1)

    study_parser = sub.add_parser(
        "study", help="offline prefetch study over an HMTT trace"
    )
    study_parser.add_argument("--trace", required=True)
    study_parser.add_argument("--threshold", type=int, default=8,
                              help="HPD hot threshold N")
    study_parser.add_argument("--offset", type=int, default=4,
                              help="prefetch offset i for the replay")

    scenario_parser = sub.add_parser(
        "scenario",
        help="tenant-scale overload scenario: admission control, SLO "
             "tracking, graceful degradation, elastic scale-out",
    )
    scenario_parser.add_argument(
        "--preset", default="smoke",
        help="scenario preset: smoke, burst, diurnal, or flash",
    )
    scenario_parser.add_argument(
        "--tenants", type=int, default=None,
        help="override the preset's fleet size (mixed-pattern fleet)",
    )
    scenario_parser.add_argument("--rounds", type=int, default=None)
    scenario_parser.add_argument(
        "--accesses-per-round", type=int, default=None,
        help="base per-tenant access quota per round",
    )
    scenario_parser.add_argument("--remote-nodes", type=int, default=None,
                                 help="initially active remote nodes")
    scenario_parser.add_argument("--standby-nodes", type=int, default=None,
                                 help="parked nodes the autoscaler can rack in")
    scenario_parser.add_argument("--replication", type=int, default=None)
    scenario_parser.add_argument(
        "--gbps", type=float, default=None,
        help="fabric bandwidth; narrow it to manufacture saturation",
    )
    scenario_parser.add_argument("--seed", type=int, default=1)
    scenario_parser.add_argument(
        "--fault-plan", default=None, metavar="PLAN",
        help="chaos overlay under the scenario: same presets/files as "
             "'run --fault-plan'",
    )
    scenario_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full RunResult (scenario section included)",
    )
    scenario_parser.add_argument(
        "--slo-out", default=None, metavar="PATH",
        help="write the per-tenant SLO attainment report",
    )
    return parser


#: --fault-plan presets; each also takes a ``:<seed>`` suffix.
_FAULT_PLAN_PRESETS = {
    "chaos": FaultPlan.chaos,
    "crash": FaultPlan.crash,
    "crash-rejoin": FaultPlan.crash_rejoin,
    "corruption": FaultPlan.corruption,
    "corruption-chaos": FaultPlan.corruption_chaos,
}


def _load_fault_plan(value: Optional[str], seed: int) -> Optional[FaultPlan]:
    """Resolve a --fault-plan argument: a preset name (optionally
    ``name:<seed>``) or a JSON file."""
    if value is None or value in ("", "none"):
        return None
    name, has_seed, raw_seed = value.partition(":")
    builder = _FAULT_PLAN_PRESETS.get(name)
    if builder is None:
        return FaultPlan.from_json_file(value)
    if has_seed:
        try:
            seed = int(raw_seed)
        except ValueError:
            raise ValueError(
                f"bad --fault-plan seed {raw_seed!r}; expected {name}:<int>"
            ) from None
    return builder(seed)


def _cluster_config(args) -> ClusterConfig:
    """Build the remote-pool topology from --remote-nodes/--placement/
    --replication (the default triple is the single-node model)."""
    return ClusterConfig(
        nodes=args.remote_nodes,
        placement=args.placement,
        replication=args.replication,
    )


def _memtier_config(args):
    """The MemtierConfig selected by --mem-tiers/--cxl-latency-us/
    --pool-capacity, or None (tiering off) when --mem-tiers is 0."""
    pool_nodes = getattr(args, "mem_tiers", 0)
    if not pool_nodes:
        return None
    from repro.memtier import MemtierConfig

    kwargs = {"pool_nodes": pool_nodes}
    if args.cxl_latency_us is not None:
        kwargs["cxl_latency_us"] = args.cxl_latency_us
    if args.pool_capacity is not None:
        kwargs["pool_capacity_pages"] = args.pool_capacity
    return MemtierConfig(**kwargs)


def _scrub_config(args):
    """The ScrubConfig selected by --scrub-rate, or None (scrubber off)
    when the flag was not given."""
    rate = getattr(args, "scrub_rate", None)
    if rate is None:
        return None
    from repro.integrity import ScrubConfig

    return ScrubConfig(rate_pages_per_s=rate)


def _integrity_rows(result) -> List[List[object]]:
    """Summary rows for the data-integrity section, empty when neither
    corruption injection nor the scrubber was armed."""
    section = getattr(result, "integrity", None)
    if not section:
        return []
    return [
        ["corruption detected (repaired/unresolved)",
         f"{section['corruption_detected']} "
         f"({section['corruption_repaired']}/"
         f"{section['corruption_unresolved']})"],
        ["pages poisoned / poisoned reads",
         f"{section['pages_poisoned']}/{section['poisoned_reads']}"],
        ["promotions barred by poison", section["promotions_barred"]],
        ["scrub reads / scrub detections",
         f"{section['scrub_reads']}/{section['scrub_detected']}"],
        ["corruption injected (flips/media)",
         f"{section['bit_flips_injected']}/"
         f"{section['media_errors_injected']}"],
    ]


def _memtier_rows(result) -> List[List[object]]:
    """Summary rows for the memory-tier section, empty when tiering
    was off."""
    section = getattr(result, "memtier", None)
    if not section:
        return []
    return [
        ["memory tiers (pool + far nodes)",
         f"{section['pool_nodes']} + {section['far_nodes']}"],
        ["tier demand reads (pool/far)",
         f"{section['pool_demand_reads']}/{section['far_demand_reads']}"],
        ["tier prefetch reads (pool/far)",
         f"{section['pool_prefetch_reads']}/"
         f"{section['far_prefetch_reads']}"],
        ["tier writebacks (pool/far)",
         f"{section['pool_writebacks']}/{section['far_writebacks']}"],
        ["pages promoted / demoted",
         f"{section['promotions']}/{section['demotions']}"],
        ["migration traffic (bytes)", section["migration_bytes"]],
        ["pool pages stored", section["pool_pages_stored"]],
    ]


def _telemetry_config(args) -> Optional[TelemetryConfig]:
    """The TelemetryConfig selected by --telemetry/--trace-out/--prom-out,
    or None (the probe-free null-object) when no flag asked for it."""
    wants = (
        getattr(args, "telemetry", False)
        or getattr(args, "trace_out", None) is not None
        or getattr(args, "prom_out", None) is not None
    )
    if not wants:
        return None
    return TelemetryConfig(
        epoch_us=args.telemetry_epoch_us,
        trace=args.trace_out is not None,
    )


def _write_telemetry_artifacts(args, result) -> List[List[object]]:
    """Write --trace-out/--prom-out files and return the telemetry rows
    for the run summary table."""
    telemetry = result.telemetry
    if telemetry is None:
        return []
    series = telemetry["timeseries"]
    rows: List[List[object]] = [
        ["telemetry events / epochs",
         f"{telemetry['events_total']}/{series['epochs']}"],
    ]
    latency = series.get("fetch_latency_us") or {}
    counts = latency.get("count") or []
    total = sum(counts)
    if total:
        # Per-epoch blocks carry lists; fold them into run-level numbers
        # (exact for the mean, worst-epoch for the tail).
        weighted_mean = sum(
            m * c for m, c in zip(latency["mean"], counts) if m is not None
        ) / total
        worst_p99 = max(p for p in latency["p99"] if p is not None)
        rows.append(["fetch latency mean / worst-epoch p99 (us)",
                     f"{weighted_mean:.1f}/{worst_p99:.1f}"])
    if args.trace_out is not None:
        trace_doc = chrome_trace(telemetry["trace_events"])
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(trace_doc, handle)
        note = f"{len(telemetry['trace_events'])} events"
        if telemetry.get("trace_truncated"):
            note += f" (+{telemetry['trace_dropped']} dropped at limit)"
        rows.append(["trace timeline", f"{args.trace_out} ({note})"])
    if args.prom_out is not None:
        with open(args.prom_out, "w", encoding="utf-8") as handle:
            handle.write(prometheus_snapshot(result))
        rows.append(["prometheus snapshot", args.prom_out])
    return rows


def _env(args) -> RunEnv:
    """The run conditions selected by the fault, cluster, memtier and
    telemetry flags; they apply to the systems under test, never to the
    CT_local reference."""
    return RunEnv(
        fault_plan=_load_fault_plan(args.fault_plan, args.seed),
        cluster=_cluster_config(args),
        check_invariants=args.check_invariants,
        telemetry=_telemetry_config(args),
        memtier=_memtier_config(args),
        scrub=_scrub_config(args),
    )


def _make_cache(args) -> Optional[ResultCache]:
    """The result cache selected by --cache-dir/--no-cache."""
    if getattr(args, "no_cache", False):
        return None
    root = getattr(args, "cache_dir", None)
    return ResultCache(Path(root)) if root else ResultCache()


def _floats(text: str) -> List[float]:
    """A comma-separated list of numbers, e.g. ``--fractions 0.25,0.5``."""
    return [float(item) for item in text.split(",") if item.strip()]


#: Numeric flags (argparse dests) that must be > 0; :func:`main` checks
#: those the parsed command has before it runs.  A zero or negative
#: count, budget, fraction, rate, latency or capacity is always a typo,
#: and failing here gives a one-line error instead of a deep traceback
#: (or a silent no-op sweep).
_POSITIVE_FLAGS = (
    "fraction",
    "fractions",
    "jobs",
    "budget",
    "scrub_rate",
    "cxl_latency_us",
    "pool_capacity",
)


def _check_positive_flags(args) -> None:
    for dest in _POSITIVE_FLAGS:
        value = getattr(args, dest, None)
        for item in _floats(value) if isinstance(value, str) else [value]:
            if item is not None and item <= 0:
                shown = f"{item:g}" if isinstance(item, float) else item
                flag = "--" + dest.replace("_", "-")
                raise ValueError(f"{flag} must be > 0, got {shown}")


def _cache_summary(cache: Optional[ResultCache]) -> str:
    """One line of ResultCache counters for sweep/tune summaries —
    'misses 0, stores 0' on a warm rerun is the proof that no fresh
    simulation happened."""
    if cache is None:
        return "cache: disabled (--no-cache)"
    stats = cache.stats()
    return (
        f"cache: {stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['stores']} stores, {stats['refused']} refused"
    )


def _cmd_list(_args) -> int:
    print("workloads:")
    for name in workload_names():
        print(f"  {name}")
    print("systems:")
    for name in systems.names():
        print(f"  {name}")
    print("placements:")
    for name in placement_names():
        print(f"  {name}")
    return 0


def _cmd_run(args) -> int:
    fabric = FabricConfig(seed=args.seed)
    env = _env(args)
    cache = _make_cache(args)
    spec = RunSpec(
        workload=args.workload,
        system=args.system,
        fraction=args.fraction,
        seed=args.seed,
        fabric=fabric,
        env=env,
    )
    ct_local = execute(
        [local_ct_spec(args.workload, args.seed, fabric)], cache=cache
    )[0].completion_time_us
    report = None
    if args.profile:
        from repro.exec.profile import profile_spec

        report = profile_spec(spec)
        result = report.result
        if cache is not None:
            cache.put(spec, result)
    else:
        result = execute([spec], cache=cache)[0]
    if args.json:
        payload = result.to_dict()
        payload["normalized_performance"] = result.normalized_performance(ct_local)
        payload["ct_local_us"] = ct_local
        print(json.dumps(payload, indent=2, sort_keys=True))
        _write_telemetry_artifacts(args, result)
        return 0
    rows = [
        ["completion time (us)", f"{result.completion_time_us:.1f}"],
        ["normalized performance", f"{result.normalized_performance(ct_local):.3f}"],
        ["accuracy", f"{result.accuracy:.3f}"],
        ["coverage", f"{result.coverage:.3f}"],
        ["page faults", result.page_faults],
        ["demand remote reads", result.remote_demand_reads],
        ["prefetch hits (dram/swapcache/inflight)",
         f"{result.prefetch_hit_dram}/{result.prefetch_hit_swapcache}/"
         f"{result.prefetch_hit_inflight}"],
        ["prefetched pages wasted", result.prefetch_wasted],
        ["compute time (us)", f"{result.compute_us:.1f}"],
        ["memory-controller reads / writes",
         f"{result.mc_reads}/{result.mc_writes}"],
        ["swapcache inserts / hits / drops",
         f"{result.swapcache_inserts}/{result.swapcache_hits}/"
         f"{result.swapcache_drops}"],
        ["reclaim batches / writebacks / clean drops",
         f"{result.reclaim_batches}/{result.reclaim_writebacks}/"
         f"{result.reclaim_clean_drops}"],
    ]
    if env.fault_plan is not None:
        rows += [
            ["injected timeouts", result.timeouts],
            ["demand/write retries", result.retries],
            ["retry latency (us)", f"{result.retry_latency_us:.1f}"],
            ["dropped prefetches", result.dropped_prefetches],
            ["degraded-mode time (us)", f"{result.degraded_mode_us:.1f}"],
            ["breaker opens / suppressed",
             f"{result.breaker_opens}/{result.prefetch_suppressed}"],
        ]
    if result.remote_nodes > 1:
        per_node_reads = "/".join(
            str(stats["fabric"]["reads"]) for stats in result.node_stats
        )
        rows += [
            ["remote nodes (placement x replication)",
             f"{result.remote_nodes} ({result.placement} x "
             f"{result.replication})"],
            ["demand failovers", result.demand_failovers],
            ["writeback re-routes", result.writeback_reroutes],
            ["replica writes", result.replica_writes],
            ["fabric reads per node", per_node_reads],
        ]
    if result.node_crashes or result.pages_repaired or result.pages_lost:
        rows += [
            ["node crashes / rejoins",
             f"{result.node_crashes}/{result.node_rejoins}"],
            ["pages repaired", result.pages_repaired],
            ["pages lost (zero-filled)",
             f"{result.pages_lost} ({result.pages_zero_filled})"],
            ["pages salvaged / drained",
             f"{result.pages_salvaged}/{result.pages_drained}"],
            ["repair traffic (bytes)", result.repair_bytes],
        ]
    if result.invariant_checks:
        rows.append(["invariant checks passed", result.invariant_checks])
    rows += _memtier_rows(result)
    rows += _integrity_rows(result)
    rows += _write_telemetry_artifacts(args, result)
    print(render_table(["metric", "value"], rows,
                       title=f"{args.workload} on {args.system} "
                             f"(local={args.fraction:.0%})"))
    if report is not None:
        print(render_table(
            ["component", "seconds", "share"], report.rows(),
            title=f"wall-clock by component ({report.total_s:.2f}s total)",
        ))
    return 0


def _cmd_compare(args) -> int:
    fabric = FabricConfig(seed=args.seed)
    env = _env(args)
    cache = _make_cache(args)
    names = [name.strip() for name in args.systems.split(",") if name.strip()]
    # CT_local first (always fault-free, single-node: it is the
    # yardstick, not the condition under test), then one point per
    # system — a single batch so --jobs overlaps them all.
    specs = [local_ct_spec(args.workload, args.seed, fabric)] + [
        RunSpec(
            workload=args.workload,
            system=name,
            fraction=args.fraction,
            seed=args.seed,
            fabric=fabric,
            env=env,
        )
        for name in names
    ]
    outputs = execute(specs, jobs=args.jobs, cache=cache)
    ct_local_us = outputs[0].completion_time_us
    rows = []
    for name, result in zip(names, outputs[1:]):
        rows.append(
            [
                name,
                result.normalized_performance(ct_local_us),
                result.accuracy,
                result.coverage,
                result.page_faults,
            ]
        )
    print(render_table(
        ["system", "norm-perf", "accuracy", "coverage", "faults"],
        rows,
        title=f"{args.workload} (local={args.fraction:.0%}, "
              f"CT_local={ct_local_us:.0f} us)",
    ))
    return 0


def _cmd_sweep(args) -> int:
    from repro.analysis.sweeps import sweep

    workloads = [n.strip() for n in args.workloads.split(",") if n.strip()]
    system_names = [n.strip() for n in args.systems.split(",") if n.strip()]
    fractions = _floats(args.fractions)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    cache = _make_cache(args)
    result = sweep(
        workloads=workloads,
        systems=system_names,
        fractions=fractions,
        seed=args.seed,
        jobs=args.jobs,
        cache=cache,
    )
    rows = [
        row[:3] + [f"{value:.3f}" for value in row[3:]]
        for row in result.to_rows(metrics)
    ]
    print(render_table(
        ["workload", "system", "fraction"] + metrics, rows,
        title=f"{len(result.points)}-point sweep (seed={args.seed}, "
              f"jobs={args.jobs})",
    ))
    print(_cache_summary(cache))
    return 0


def _parse_fidelity(value: Optional[str]):
    """``--fidelity passes=1,2`` -> a FidelitySpec (cheapest rung
    first, full fidelity last)."""
    if value is None:
        return None
    from repro.tune import FidelitySpec

    kwarg, eq, raw = value.partition("=")
    kwarg = kwarg.strip()
    rungs: List[object] = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            rungs.append(int(token))
        except ValueError:
            try:
                rungs.append(float(token))
            except ValueError:
                raise ValueError(
                    f"--fidelity value {token!r} is not numeric"
                ) from None
    if not eq or not kwarg or not rungs:
        raise ValueError(
            f"--fidelity must look like 'passes=1,2', got {value!r}"
        )
    return FidelitySpec(kwarg, tuple(rungs))


def _cmd_tune(args) -> int:
    from repro.tune import (
        Evolutionary,
        Objective,
        RandomSearch,
        SuccessiveHalving,
        Tuner,
        build_space,
        default_config,
        render_trajectory,
        strategy_names,
        write_report,
    )

    if args.resume and args.journal is None:
        raise ValueError("--resume needs --journal (the file to replay)")
    space = build_space(args.space)
    fidelity = _parse_fidelity(args.fidelity)
    objective = Objective.parse(args.objective, args.constrain)
    fabric = FabricConfig(seed=args.seed)
    base = RunSpec(
        workload=args.workload,
        system=args.system,
        fraction=args.fraction,
        seed=args.seed,
        fabric=fabric,
    )

    # Strategy shapes must not depend on --budget: the journal header
    # records them, and a resumed run may extend the budget.  ask()
    # truncates to the remaining budget, so fixed shapes stay correct.
    if args.strategy == "random":
        strategy = RandomSearch(space, args.seed)
    elif args.strategy == "evolve":
        # Warm-start generation zero with the paper's own configuration,
        # so the search can only improve on the expert baseline.
        strategy = Evolutionary(
            space, args.seed, mu=4, lam=4,
            seed_configs=[default_config(space, base)],
        )
    elif args.strategy == "sha":
        if fidelity is None or len(fidelity.values) < 2:
            raise ValueError(
                "--strategy sha needs a --fidelity ladder with >= 2 "
                "rungs (e.g. --fidelity passes=1,2)"
            )
        rungs = len(fidelity.values)
        strategy = SuccessiveHalving(
            space, args.seed,
            initial=SuccessiveHalving.plan_initial(
                args.budget, eta=2, rungs=rungs
            ),
            eta=2, rungs=rungs,
        )
    else:
        raise ValueError(
            f"unknown --strategy {args.strategy!r}; known: "
            f"{', '.join(strategy_names())}"
        )

    cache = _make_cache(args)
    tuner = Tuner(
        space, strategy, base, budget=args.budget, objective=objective,
        fidelity=fidelity, jobs=args.jobs, cache=cache,
        journal=Path(args.journal) if args.journal else None,
        resume=args.resume,
    )
    result = tuner.run()
    print(render_trajectory(result))
    best = result.best
    if best is None:
        print("no full-fidelity trial completed; raise --budget")
    else:
        rows = [["score", f"{best.score:.4f}"],
                ["trial", best.index],
                ["feasible", objective.feasible(best.metrics)]]
        rows += [[name, f"{best.config[name]!r}"]
                 for name in sorted(best.config)]
        print(render_table(
            ["best config", "value"], rows,
            title=f"{args.strategy} over '{args.space}' on "
                  f"{args.workload} ({len(result.trials)} trials, "
                  f"{result.evaluations} evaluated, "
                  f"{result.journal_replays} replayed)",
        ))
    print(_cache_summary(cache))
    if args.report_out:
        path = write_report(result, Path(args.report_out))
        print(f"wrote {path}")
    return 0


def _cmd_trace(args) -> int:
    workload = build_workload(args.workload, seed=args.seed)
    machine = runner.make_machine(
        workload, args.system, args.fraction, FabricConfig(seed=args.seed)
    )
    tracer = HmttTracer()
    tracer.attach(machine.controller)
    trace = workload.trace()
    if args.limit:
        trace = itertools.islice(trace, args.limit)
    machine.run(trace)
    written = write_trace(args.out, tracer.ring.drain())
    print(f"wrote {written} records to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    if bool(args.trace) == bool(args.workload):
        print("analyze needs exactly one of --trace or --workload",
              file=sys.stderr)
        return 2
    if args.trace:
        vpns = [record.ppn for record in load_trace(args.trace)]
        # Collapse consecutive same-page records to page visits.
        vpns = [v for i, v in enumerate(vpns) if i == 0 or v != vpns[i - 1]]
        source = args.trace
    else:
        workload = build_workload(args.workload, seed=args.seed)
        vpns = page_sequence(workload.trace())
        source = args.workload
    breakdown = analyze_trace(vpns)
    rows = [
        [label, breakdown.counts[label], f"{breakdown.fraction(label):.1%}"]
        for label in ("simple", "ladder", "ripple", "irregular")
    ]
    print(render_table(["pattern", "windows", "share"], rows,
                       title=f"stream patterns of {source}"))
    return 0


def _cmd_study(args) -> int:
    from repro.analysis.offline import replay_study

    records = load_trace(args.trace)
    study = replay_study(records, hpd_threshold=args.threshold,
                         offset=args.offset)
    rows = [
        ["trace accesses", study.accesses],
        ["hot pages", f"{study.hot_pages} ({study.hot_page_ratio:.2%})"],
        ["stream observations", study.observations],
        ["decisions by tier", str(study.decisions_by_tier)],
        ["abstentions", study.no_decision],
        ["predictions", study.predictions],
        ["useful within lookahead", study.useful_predictions],
        ["offline prediction accuracy", f"{study.prediction_accuracy:.3f}"],
    ]
    print(render_table(["metric", "value"], rows,
                       title=f"offline HoPP study of {args.trace}"))
    return 0


def _cmd_scenario(args) -> int:
    from repro.scenario import build_fleet, preset, run_scenario
    from repro.scenario.traffic import TIER_GUARANTEED

    overrides = {"seed": args.seed}
    for attr in ("rounds", "accesses_per_round", "remote_nodes",
                 "standby_nodes", "replication"):
        value = getattr(args, attr)
        if value is not None:
            overrides[attr] = value
    if args.tenants is not None:
        overrides["tenants"] = tuple(
            build_fleet(
                args.tenants,
                seed=args.seed,
                rounds=overrides.get("rounds", 8),
                pages_per_tenant=120,
            )
        )
    if args.gbps is not None:
        overrides["fabric"] = FabricConfig(gbps=args.gbps)
    fault_plan = _load_fault_plan(args.fault_plan, args.seed)
    if fault_plan is not None:
        overrides["fault_plan"] = fault_plan

    config = preset(args.preset, **overrides)
    result = run_scenario(config)
    section = result.scenario
    admission = section["admission"]
    autoscaler = section["autoscaler"]

    tier_of = {spec.name: spec.tier for spec in config.tenants}
    attain = {TIER_GUARANTEED: [], "best_effort": []}
    for name, tenant in section["slo"]["tenants"].items():
        attain[tier_of[name]].append(tenant["attainment"])

    def _mean(values):
        return f"{sum(values) / len(values):.3f}" if values else "n/a"

    rows = [
        ["tenants (admitted/total)",
         f"{section['admitted']}/{section['tenants']}"],
        ["rounds", section["rounds"]],
        ["final ladder level", admission["level_name"]],
        ["admissions / rejections",
         f"{admission['admissions']} / {admission['rejections']}"],
        ["deferrals", section["deferrals"]],
        ["prefetch throttled", section["shedding"]["prefetch_throttled"]],
        ["prefetch over-limit rejects",
         section["shedding"]["prefetch_overlimit_rejects"]],
        ["degradations / restorations",
         f"{admission['degradations']} / {admission['restorations']}"],
        ["scale-outs / scale-ins",
         f"{autoscaler['scale_outs']} / {autoscaler['scale_ins']}"],
        ["active nodes at end", len(autoscaler["active_nodes"])],
        ["fatal faults absorbed",
         section["fatal"]["fatal_faults_absorbed"]],
        ["writebacks abandoned",
         section["fatal"]["writebacks_abandoned"]],
        ["cluster conserved",
         section["conservation"]["cluster_conserved"]],
        ["SLO attainment (guaranteed)", _mean(attain[TIER_GUARANTEED])],
        ["SLO attainment (best-effort)", _mean(attain["best_effort"])],
    ]
    print(render_table(["metric", "value"], rows,
                       title=f"scenario '{config.name}'"))
    if args.json:
        Path(args.json).write_text(
            json.dumps(result.to_dict(full=True), indent=2, sort_keys=True)
        )
        print(f"wrote {args.json}")
    if args.slo_out:
        Path(args.slo_out).write_text(
            json.dumps(section["slo"], indent=2, sort_keys=True)
        )
        print(f"wrote {args.slo_out}")
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "tune": _cmd_tune,
    "trace": _cmd_trace,
    "analyze": _cmd_analyze,
    "study": _cmd_study,
    "scenario": _cmd_scenario,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_positive_flags(args)
        return _COMMANDS[args.command](args)
    except (KeyError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
