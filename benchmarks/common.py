"""Shared infrastructure for the figure suite.

Every bench module regenerates one of the paper's tables or figures and
prints the same rows/series the paper reports.  Every run that a
:class:`~repro.exec.spec.RunSpec` expresses goes through
:func:`get_result`: the execution engine's persistent on-disk cache,
layered under a process-wide memo, both keyed by
:func:`repro.exec.cache.cache_key` (workload config, system and its
HoppConfig overrides, fraction, fabric, run environment and the
code-schema version).  Benches that share runs (e.g. Figures 9-11) do
not recompute them within a session *or* across sessions.  Set
``REPRO_NO_CACHE=1`` to force fresh runs, or ``REPRO_CACHE_DIR`` to
relocate the store.  The suite times nothing itself; wall-clock
measurement lives in ``benchmarks/perf``.

Absolute numbers are simulator artifacts; the *shapes* — who wins, by
roughly what factor, where the knees fall — are the reproduction targets
(DESIGN.md section 7).
"""

from __future__ import annotations

import itertools
import os
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.exec.cache import ResultCache, TraceCache, cache_key
from repro.exec.pool import execute, local_ct_spec
from repro.exec.spec import RunSpec
from repro.net.rdma import FabricConfig
from repro.sim.machine import RunEnv
from repro.sim.metrics import RunResult
from repro.sim.multiprogram import run_corun
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


FABRIC = FabricConfig(seed=SEED)
CACHE: Optional[ResultCache] = (
    None if os.environ.get("REPRO_NO_CACHE") else ResultCache()
)
_MEMO: Dict[str, RunResult] = {}
_CORUNS: Dict[Tuple[str, str, float], RunResult] = {}
_TRACES = TraceCache()


def _memoized(spec: RunSpec) -> RunResult:
    key = cache_key(spec)
    if key not in _MEMO:
        _MEMO[key] = execute([spec], cache=CACHE, trace_cache=_TRACES)[0]
    return _MEMO[key]


def get_result(
    workload_name: str,
    system: str,
    fraction: float,
    *,
    workload_kwargs: Optional[Dict[str, object]] = None,
    system_kwargs: Optional[Dict[str, object]] = None,
    fabric: Optional[FabricConfig] = None,
    env: Optional[RunEnv] = None,
) -> RunResult:
    """One run at the suite's seed, through the memo and the result
    cache.  ``system_kwargs`` are HoppConfig knob overrides (dotted
    paths, see :func:`repro.sim.systems.variant`); ``fabric`` defaults
    to :data:`FABRIC` and ``env`` to the paper's fault-free single
    node."""
    return _memoized(
        RunSpec(
            workload=workload_name,
            system=system,
            fraction=fraction,
            seed=SEED,
            workload_kwargs=dict(workload_kwargs or {}),
            system_kwargs=dict(system_kwargs or {}),
            fabric=FABRIC if fabric is None else fabric,
            env=RunEnv() if env is None else env,
        )
    )


def local_ct(workload_name: str) -> float:
    return _memoized(local_ct_spec(workload_name, SEED, FABRIC)).completion_time_us


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
    if key not in _CORUNS:
        workloads = [build(name, seed=SEED + i) for i, name in enumerate(names)]
        _CORUNS[key] = run_corun(workloads, system, fraction, FABRIC, seed=SEED)
    return _CORUNS[key]


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
