#!/usr/bin/env python3
"""Whole-run simulator benchmark on the paper's traffic.

Run from the repository root::

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--pin] [--out FILE]

Each workload runs in its own fresh child process, one after another,
with no pool and no threads.  The child generates the workload's traces
from ``--seed``, builds one machine per trace through the public runner
API, and replays every trace with ``Machine.run`` until ``--seconds``
have passed (each trace at least once).  Every replay is checked: no
exception, the invariant sanitizer passes, every access is counted, and
the ``RunResult`` digest matches earlier replays of the same trace and,
when the seed is pinned in ``expected.json``, the pinned digest.

The command prints ``workload metric value unit`` rows and, as its last
line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 1`` swaps the end-to-end metrics
for the per-layer host-time ledger (``ledger.py``) and adds the traced
== untraced == oracle differential.  README.md has the details.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED_FILE = HERE / "expected.json"

if not (ROOT / "src" / "repro").is_dir():
    # Never fall back to an installed copy: the benchmark measures this tree.
    sys.exit(f"error: no simulator sources at {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
try:
    from repro.common.constants import PAGE_SHIFT
    from repro.net.rdma import FabricConfig
    from repro.sim.runner import LOCAL_FRACTION, collect, make_machine
    from repro.sim.sanitizer import InvariantSanitizer
    from repro.workloads import build
    from repro.workloads.registry import NON_JVM_APPS, SPARK_APPS
except ImportError as missing:
    sys.exit(f"error: cannot import the simulator from {ROOT / 'src'}: {missing}")

from ledger import Ledger  # noqa: E402  (needs HERE on sys.path)
from refclock import RefClock  # noqa: E402

DEFAULT_SEED = 7
HELD_OUT_SEED = 11
PINNED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
DEFAULT_SECONDS = 10
#: Set-up repeats per run; ``setup_s`` is their median.  Set-up is
#: allocation-heavy, and one set-up varies by about 10% even in
#: reference time.
SETUP_REPEATS = 5
KV_OPERATIONS = 40000
#: Accesses per timed call: per ``Machine.run`` call when replaying,
#: per chunk of the stream when generating.  Replaying a trace in
#: slices gives the same RunResult as one call (the digests check it)
#: and lets the reference clock rescale each slice on its own; 8192
#: keeps a slice well inside one of the host's speed phases.
SLICE = 8192

#: Workload -> system under test.  Why each workload exists is in
#: BENCHMARK.json and README.md.
SYSTEMS: Dict[str, str] = {
    "paper-hopp": "hopp",
    "paper-fastswap": "fastswap",
    "local-resident": "noprefetch",
    "kv-rw": "hopp",
}
PAPER_APPS: List[str] = NON_JVM_APPS + SPARK_APPS

#: Simulated ratios the traced run reports: name -> (numerator count,
#: denominator count), both summed over the workload's traces.
SIM_RATIOS: Dict[str, Tuple[str, str]] = {
    "hopp.stt.obs_ratio": ("stt_observations", "stt_hot_pages"),
    "hopp.executor.issue_ratio": ("executor_issued", "executor_requests"),
    "prefetch.accuracy": ("prefetch_hits", "prefetch_delivered"),
    "prefetch.coverage": ("prefetch_hits", "faults_or_hits"),
    "hopp.rpt.hit_rate": ("rpt_hits", "rpt_lookups"),
}


# -- workloads --------------------------------------------------------------------


def _fraction(workload: str, app: str) -> float:
    """Local memory as a share of ``app``'s footprint."""
    if workload == "local-resident":
        return LOCAL_FRACTION
    if workload == "kv-rw":
        return 0.5
    # The paper's settings (Section VI-B): non-JVM apps at 50%, Spark
    # apps at 11 GB of 33 GB, Spark-KMeans at 2 GB of 13 GB.
    if app == "spark-kmeans":
        return 0.15
    if app.startswith(("graphx", "spark")):
        return 0.33
    return 0.5


def _apps(workload: str) -> List[str]:
    return ["kv-cache"] if workload == "kv-rw" else PAPER_APPS


def _with_writes(trace, ratio: float, seed: int):
    """Mark a seeded ``ratio`` of page visits as writes, every cacheline
    of the visit.  The kv-cache generator declares ``set_ratio`` but
    emits reads only, and no registered workload emits writes."""
    rng = random.Random(seed ^ 0x5752)
    last = None
    write = False
    for pid, vaddr in trace:
        page = (pid, vaddr >> PAGE_SHIFT)
        if page != last:
            last = page
            write = rng.random() < ratio
        yield pid, vaddr, write


def _generator(workload: str, app: str, seed: int):
    if workload == "kv-rw":
        return build(app, seed=seed, operations=KV_OPERATIONS)
    return build(app, seed=seed)


def _accesses(workload: str, generator, seed: int, limit: Optional[int]):
    """The trace as a stream, cut to ``limit`` accesses.  The program
    only ever receives the materialized list."""
    stream = generator.trace()
    if workload == "kv-rw":
        stream = _with_writes(stream, generator.set_ratio, seed)
    return islice(stream, limit)


@dataclass
class Run:
    """One trace of a workload and, until its first replay, the machine
    set-up built for it."""

    app: str
    generator: object
    fraction: float
    trace: list
    machine: object = None


def _machine(workload: str, run: Run, seed: int):
    return make_machine(
        run.generator, SYSTEMS[workload], run.fraction, FabricConfig(seed=seed)
    )


def _setup(workload: str, seed: int, limit: Optional[int]):
    """Generate every trace of ``workload`` and build one machine for
    each.  Returns the runs, the reference ns spent generating traces
    and the reference ns of the whole set-up."""
    clock = RefClock()
    gen_ns = 0.0
    runs = []
    for app in _apps(workload):
        before = clock.ref_ns
        generator = clock.time(_generator, workload, app, seed)
        stream = _accesses(workload, generator, seed, limit)
        trace: list = []
        while True:
            part = clock.time(list, islice(stream, SLICE))
            if not part:
                break
            trace += part
        gen_ns += clock.ref_ns - before
        run = Run(app, generator, _fraction(workload, app), trace)
        run.machine = clock.time(_machine, workload, run, seed)
        runs.append(run)
    return runs, gen_ns, clock.ref_ns


def _take_machine(workload: str, run: Run, seed: int):
    """The machine set-up built for ``run``, or a fresh one."""
    machine = run.machine or _machine(workload, run, seed)
    run.machine = None
    return machine


# -- checked replays ----------------------------------------------------------------


def digest(result) -> str:
    """SHA-256 of a RunResult's full dictionary."""
    blob = json.dumps(result.to_dict(full=True), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class Checker:
    """Replays traces with timing and checks each replay.

    A replay fails on an exception, an invariant violation, a lost or
    extra access, or a digest that differs from an earlier replay of the
    same trace (fast-path, traced and oracle replays alike) or from the
    pinned one."""

    def __init__(self, system: str, pinned: Optional[Dict[str, str]]) -> None:
        self.system = system
        self.pinned = pinned
        self.digests: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def replay(self, run: Run, machine, **run_kwargs):
        """Replay ``run`` on ``machine`` slice by slice; returns
        ``(RefClock, RunResult)``, or None when the replay failed."""
        self.attempted += 1
        gc.collect()
        trace = run.trace
        try:
            clock = RefClock()
            for start in range(0, len(trace), SLICE):
                clock.time(machine.run, trace[start:start + SLICE], **run_kwargs)
            machine.flush_memtier()
            machine.flush_recovery()
            InvariantSanitizer(machine).check()
            result = collect(machine, self.system, run.generator.name)
        except Exception:  # a failed replay is counted, not fatal
            self.fail(f"{run.app}: {traceback.format_exc()}")
            return None
        problems = []
        if result.accesses != len(trace):
            problems.append(
                f"{run.app}: {result.accesses} accesses for a "
                f"{len(trace)}-access trace"
            )
        got = digest(result)
        first = self.digests.setdefault(run.app, got)
        if got != first:
            problems.append(f"{run.app}: digest {got} != earlier replay {first}")
        if self.pinned is not None and got != self.pinned.get(run.app):
            problems.append(
                f"{run.app}: digest {got} != pinned {self.pinned.get(run.app)}"
            )
        if problems:
            self.fail("; ".join(problems))
            return None
        return clock, result

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        print(f"FAILED {problem}", file=sys.stderr)


def _seed_key(seed: int, limit: Optional[int]) -> str:
    return str(seed) if limit is None else f"{seed}@{limit}"


def _pinned(path: Path, workload: str, seed: int, limit: Optional[int]):
    if not path.exists():
        return None
    with path.open() as handle:
        return json.load(handle).get(workload, {}).get(_seed_key(seed, limit))


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _sim_counts(machine, result) -> Dict[str, int]:
    counts = {
        "prefetch_hits": result.prefetch_hits,
        "prefetch_delivered": result.prefetch_delivered,
        "faults_or_hits": result.remote_demand_reads + result.prefetch_hits,
    }
    plane = machine.hopp
    if plane is not None:
        ex = plane.executor
        counts.update(
            stt_observations=plane.stt.observations_out,
            stt_hot_pages=plane.stt.hot_pages_in,
            executor_issued=ex.issued,
            executor_requests=ex.issued + ex.duplicates + ex.rejected + ex.suppressed,
            rpt_hits=plane.rpt_cache.lookup_hits,
            rpt_lookups=plane.rpt_cache.lookups,
        )
    return counts


# -- the two kinds of run ------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, limit, checker: Checker):
    """End-to-end metrics, tracing off."""
    setups = []
    runs: List[Run] = []
    for _ in range(SETUP_REPEATS):
        runs = []  # free the previous traces before generating new ones
        gc.collect()
        runs, _gen_ns, total_ns = _setup(workload, seed, limit)
        setups.append(total_ns)
    ref: List[List[float]] = [[] for _ in runs]
    wall: List[List[int]] = [[] for _ in runs]
    sim_us = 0.0
    start = time.perf_counter()
    k = 0
    while k < len(runs) or time.perf_counter() - start < seconds:
        i = k % len(runs)
        k += 1
        out = checker.replay(runs[i], _take_machine(workload, runs[i], seed))
        if out is None:
            continue
        clock, result = out
        if not ref[i]:
            sim_us += result.completion_time_us
        ref[i].append(clock.ref_ns)
        wall[i].append(clock.wall_ns)
    timed = [i for i, samples in enumerate(ref) if samples]
    accesses = sum(len(runs[i].trace) for i in timed)
    ref_ns = sum(statistics.median(ref[i]) for i in timed)
    wall_ns = sum(statistics.median(wall[i]) for i in timed)
    metrics = {
        "acc_per_s": _metric(_ratio(accesses * 1e9, ref_ns), "1/s"),
        "setup_s": _metric(statistics.median(setups) / 1e9, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "sim_ms": _metric(sim_us / 1000.0, "ms"),
    }
    extra = {
        "replays": sum(map(len, ref)),
        "wall_acc_per_s": _ratio(accesses * 1e9, wall_ns),
    }
    return metrics, extra


def trace_layers(workload: str, seed: int, seconds: float, limit, checker: Checker):
    """Per-layer ledger: an untraced and a traced replay of every trace,
    in turn, until ``seconds`` have passed (one pass at least); then one
    oracle replay of every trace."""
    runs, gen_ns, _total_ns = _setup(workload, seed, limit)
    ledger = Ledger()
    ledger.calibrate()
    untraced_ref = traced_ref = traced_wall = 0.0
    traced_acc = 0
    counts: Dict[str, int] = {}
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for run in runs:
            plain = checker.replay(run, _take_machine(workload, run, seed))
            traced_machine = _machine(workload, run, seed)
            ledger.attach(traced_machine)
            traced = checker.replay(run, traced_machine)
            if plain is None or traced is None:
                continue
            untraced_ref += plain[0].ref_ns
            traced_ref += traced[0].ref_ns
            traced_wall += traced[0].wall_ns
            traced_acc += len(run.trace)
            if passes == 0:
                for key, value in _sim_counts(traced_machine, traced[1]).items():
                    counts[key] = counts.get(key, 0) + value
        passes += 1
    for run in runs:
        checker.replay(run, _machine(workload, run, seed), use_fast_path=False)
    if SYSTEMS[workload] == "hopp" and not ledger.count("hopp.hpd/process_run"):
        checker.fail("no hopp.hpd/process_run span: the batch kernel did not run")

    # Spans are wall time; the traced replays' own reference factor
    # converts them to compare with the untraced reference time.
    scale = _ratio(traced_ref, traced_wall)
    metrics: Dict[str, Dict[str, object]] = {}
    attributed = 0.0
    for layer, (count, own_ref) in ledger.layer_totals(scale).items():
        attributed += own_ref
        metrics[f"{layer}.per_kacc"] = _metric(_ratio(count * 1000.0, traced_acc), "1/kacc")
        metrics[f"{layer}.self_us"] = _metric(_ratio(own_ref / 1000.0, count), "us")
        metrics[f"{layer}.share"] = _metric(_ratio(own_ref, untraced_ref), "ratio")
    accesses = sum(len(run.trace) for run in runs)
    metrics["workloads.gen_ns_per_acc"] = _metric(_ratio(gen_ns, accesses), "ns")
    for name, (num, den) in SIM_RATIOS.items():
        metrics[name] = _metric(_ratio(counts.get(num, 0), counts.get(den, 0)), "ratio")
    metrics["trace.overhead_frac"] = _metric(_ratio(traced_ref, untraced_ref) - 1.0, "ratio")
    metrics["trace.span_ns"] = _metric(ledger.span_ns, "ns")
    metrics["ledger.residual_frac"] = _metric(
        _ratio(untraced_ref - attributed, untraced_ref), "ratio"
    )
    extra = {"replays": checker.attempted, "passes": passes, "spans": ledger.span_rows(scale)}
    return metrics, extra


def pin(workload: str, limit) -> Dict[str, object]:
    """Digests of every trace of ``workload`` for each pinned seed, from
    a fast-path replay and an oracle replay that must agree."""
    digests: Dict[str, Dict[str, str]] = {}
    problems: List[str] = []
    for seed in PINNED_SEEDS:
        checker = Checker(SYSTEMS[workload], None)
        runs, _gen_ns, _total_ns = _setup(workload, seed, limit)
        for run in runs:
            checker.replay(run, _take_machine(workload, run, seed))
            checker.replay(run, _machine(workload, run, seed), use_fast_path=False)
        digests[_seed_key(seed, limit)] = dict(checker.digests)
        problems += checker.problems
    return {"workload": workload, "digests": digests, "problems": problems}


def child(args) -> Dict[str, object]:
    """One workload, in this process."""
    workload = args.workload[0]
    if args.pin:
        return pin(workload, args.limit)
    pinned = _pinned(args.expected, workload, args.seed, args.limit)
    checker = Checker(SYSTEMS[workload], pinned)
    if pinned is None:
        print(
            f"note: seed {args.seed} is not pinned for {workload}; checking "
            "invariants and replay-to-replay digests only",
            file=sys.stderr,
        )
    kind = trace_layers if args.trace else measure
    metrics, extra = kind(workload, args.seed, args.seconds, args.limit, checker)
    return {
        "workload": workload,
        "system": SYSTEMS[workload],
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "pinned": pinned is not None,
        "problems": checker.problems,
        "digests": checker.digests,
        "metrics": metrics,
        **extra,
    }


# -- the parent: one child per workload -------------------------------------------------


def _spawn(workload: str, args) -> Optional[Dict[str, object]]:
    """Run one workload in a fresh child process and wait for it."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--expected", str(args.expected),
    ]
    if args.limit is not None:
        command += ["--limit", str(args.limit)]
    if args.pin:
        command.append("--pin")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {workload} child exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _write_pins(path: Path, records: List[Dict[str, object]]) -> None:
    data = json.loads(path.read_text()) if path.exists() else {}
    for record in records:
        data.setdefault(record["workload"], {}).update(record["digests"])
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", nargs="+", action="extend", choices=list(SYSTEMS),
        help="workloads to run (default: all, in declared order)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="measuring time per workload; every trace replays at least once",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report the per-layer ledger instead of end-to-end metrics",
    )
    parser.add_argument(
        "--pin", action="store_true",
        help=f"write the digests of seeds {PINNED_SEEDS} to --expected",
    )
    parser.add_argument("--out", type=Path, help="write the full records as JSON")
    parser.add_argument(
        "--expected", type=Path, default=EXPECTED_FILE,
        help="pinned digests (default: %(default)s)",
    )
    parser.add_argument(
        "--limit", type=int,
        help="truncate every trace to this many accesses (self-test)",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be >= 1")
    if args.child and (not args.workload or len(args.workload) != 1):
        parser.error("--child takes exactly one --workload")
    args.workload = args.workload or list(SYSTEMS)
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        print(json.dumps(child(args)))
        return 0
    records = []
    for workload in args.workload:
        record = _spawn(workload, args)
        if record is None:
            return 2
        records.append(record)
    if args.pin:
        if any(record["problems"] for record in records):
            print("error: fast path and oracle disagree; nothing pinned", file=sys.stderr)
            return 1
        _write_pins(args.expected, records)
        print(f"pinned seeds {PINNED_SEEDS} of {', '.join(args.workload)} in {args.expected}")
        return 0
    single = len(records) == 1
    metrics = {}
    for record in records:
        name = record["workload"]
        for metric, cell in record["metrics"].items():
            print(f"{name} {metric} {cell['value']!r} {cell['unit']}")
            metrics[metric if single else f"{name}/{metric}"] = cell
        print(f"{name} replays {record['replays']} count")
        print(f"{name} fail_frac {record['failed'] / record['attempted']!r} ratio")
        if "wall_acc_per_s" in record:
            print(f"{name} wall_acc_per_s {record['wall_acc_per_s']!r} 1/s")
    if args.out is not None:
        doc = {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "limit": args.limit,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "workloads": {record["workload"]: record for record in records},
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    summary = {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
