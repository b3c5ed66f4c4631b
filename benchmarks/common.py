"""Shared infrastructure for the benchmark harness.

Every bench module regenerates one of the paper's tables or figures and
prints the same rows/series the paper reports.  Simulation runs go
through the execution engine's persistent on-disk cache (keyed by
workload config, system, fraction, fabric and the code-schema version —
see ``repro.exec.cache``) layered under a process-wide memo, so benches
that share runs (e.g. Figures 9-11) do not recompute them within a
session *or* across sessions.  Set ``REPRO_NO_CACHE=1`` to force fresh
runs, or ``REPRO_CACHE_DIR`` to relocate the store; the pytest-benchmark
timing wraps exactly one representative uncached simulation per bench.

Absolute numbers are simulator artifacts; the *shapes* — who wins, by
roughly what factor, where the knees fall — are the reproduction targets
(DESIGN.md section 7).
"""

from __future__ import annotations

import itertools
import os
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.exec.cache import ResultCache, TraceCache
from repro.exec.pool import execute, local_ct_spec
from repro.exec.spec import RunSpec
from repro.net.rdma import FabricConfig
from repro.sim.machine import RunEnv
from repro.sim.metrics import RunResult
from repro.sim.multiprogram import run_corun
from repro.telemetry import TelemetryConfig
from repro.workloads import build

SEED = 7

#: The paper's local-memory settings (Section VI-B): non-JVM apps run at
#: 50% and 25%; Spark apps at 11 GB of 33 GB (1/3); Spark-KMeans at
#: 2 GB of 13 GB (~0.15).
def paper_fraction(workload_name: str) -> float:
    if workload_name == "spark-kmeans":
        return 0.15
    if workload_name.startswith(("graphx", "spark")):
        return 0.33
    return 0.5


_FABRIC = FabricConfig(seed=SEED)
_MEMO: Dict[Tuple[str, str, float], RunResult] = {}
_LOCAL_CT: Dict[str, float] = {}
_TRACES = TraceCache()
_CACHE: Optional[ResultCache] = (
    None if os.environ.get("REPRO_NO_CACHE") else ResultCache()
)


def _run_one(spec: RunSpec) -> RunResult:
    return execute([spec], cache=_CACHE, trace_cache=_TRACES)[0]


def get_result(workload_name: str, system: str, fraction: float) -> RunResult:
    key = (workload_name, system, fraction)
    if key not in _MEMO:
        _MEMO[key] = _run_one(
            RunSpec(
                workload=workload_name,
                system=system,
                fraction=fraction,
                seed=SEED,
                fabric=_FABRIC,
            )
        )
    return _MEMO[key]


def get_telemetry_result(
    workload_name: str, system: str, fraction: float, epoch_us: float = 1000.0
) -> RunResult:
    """Like :func:`get_result` but with windowed time-series telemetry
    armed; keyed separately (an instrumented result is a different
    cached artifact, see ``RunSpec.key_dict``)."""
    key = (workload_name, system, fraction, "telemetry", epoch_us)
    if key not in _MEMO:
        _MEMO[key] = _run_one(
            RunSpec(
                workload=workload_name,
                system=system,
                fraction=fraction,
                seed=SEED,
                fabric=_FABRIC,
                env=RunEnv(telemetry=TelemetryConfig(epoch_us=epoch_us)),
            )
        )
    return _MEMO[key]


def local_ct(workload_name: str) -> float:
    if workload_name not in _LOCAL_CT:
        result = _run_one(local_ct_spec(workload_name, SEED, _FABRIC))
        _LOCAL_CT[workload_name] = result.completion_time_us
    return _LOCAL_CT[workload_name]


def normperf(workload_name: str, system: str, fraction: float) -> float:
    return get_result(workload_name, system, fraction).normalized_performance(
        local_ct(workload_name)
    )


def speedup(workload_name: str, system: str, baseline: str, fraction: float) -> float:
    """1 - CT_system / CT_baseline (Section VI-D)."""
    return get_result(workload_name, system, fraction).speedup_vs(
        get_result(workload_name, baseline, fraction)
    )


def corun_result(names: Iterable[str], system: str, fraction: float = 0.5) -> RunResult:
    # Co-runs mix several seeded workloads; they stay memo-only because
    # run_corun is not expressible as a single RunSpec.
    key = ("+".join(names), system, fraction)
    if key not in _MEMO:
        workloads = [build(name, seed=SEED + i) for i, name in enumerate(names)]
        _MEMO[key] = run_corun(workloads, system, fraction, _FABRIC, seed=SEED)
    return _MEMO[key]


def param_grid(**axes: Iterable[object]) -> Iterator[Dict[str, object]]:
    """The cartesian product of named axes as dicts, in declared order
    with the rightmost axis varying fastest — the one grid-enumeration
    idiom every ablation sweep shares.

    >>> list(param_grid(nsets=[1, 4], nways=[16]))
    [{'nsets': 1, 'nways': 16}, {'nsets': 4, 'nways': 16}]
    """
    names = list(axes)
    for values in itertools.product(*(list(axes[name]) for name in names)):
        yield dict(zip(names, values))


def time_one(benchmark, fn):
    """Time exactly one execution of ``fn`` under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
