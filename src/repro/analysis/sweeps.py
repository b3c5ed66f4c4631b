"""Parameter-sweep utilities for research use.

A light harness over the execution engine: define a grid of (workload,
system, fraction, fabric) points and get the results as labeled series
ready for tables or plotting.  Points are independent, so the grid can
fan out over worker processes (``jobs``) and reuse a persistent result
cache (``cache``) — both produce results byte-identical to a serial,
uncached sweep.  The benches hand-roll their specific sweeps for
transparency; this module is the general tool a downstream user reaches
for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exec.cache import ResultCache, TraceCache
from repro.exec.pool import execute, local_ct_spec
from repro.exec.spec import RunSpec
from repro.net.rdma import FabricConfig
from repro.sim import runner
from repro.sim import systems as systems_mod
from repro.sim.metrics import METRICS, RunResult
from repro.sim.systems import SystemSpec
from repro.workloads import build as build_workload

@dataclass(frozen=True)
class SweepPoint:
    workload: str
    system: str
    fraction: float
    seed: int = 1


@dataclass
class SweepResult:
    points: List[SweepPoint]
    results: Dict[SweepPoint, RunResult]
    ct_local: Dict[Tuple[str, int], float]

    def metric(self, point: SweepPoint, name: str) -> float:
        """``name``'s value at ``point`` (a key of
        :data:`repro.sim.metrics.METRICS`)."""
        ct_local = self.ct_local[(point.workload, point.seed)]
        return METRICS[name](self.results[point], ct_local)

    def series(
        self,
        metric: str,
        group_by: str = "system",
        x_axis: str = "fraction",
    ) -> Dict[str, List[Tuple[float, float]]]:
        """Pivot into {group_label: [(x, y), ...]} for plotting.

        ``group_by``/``x_axis`` name SweepPoint fields.
        """
        out: Dict[str, List[Tuple[float, float]]] = {}
        for point in self.points:
            label = str(getattr(point, group_by))
            x = getattr(point, x_axis)
            out.setdefault(label, []).append(
                (float(x) if not isinstance(x, str) else 0.0,
                 self.metric(point, metric))
            )
        for values in out.values():
            values.sort()
        return out

    def to_rows(self, metrics: Sequence[str]) -> List[List[object]]:
        """Flat rows (one per point) for render_table / CSV export."""
        rows: List[List[object]] = []
        for point in self.points:
            rows.append(
                [point.workload, point.system, point.fraction]
                + [self.metric(point, name) for name in metrics]
            )
        return rows


def _engine_system_name(system: Union[str, SystemSpec]) -> Optional[str]:
    """The registry name to use for ``system``, or None when the spec is
    an unregistered object the engine cannot ship by name."""
    if isinstance(system, str):
        return system
    try:
        registered = systems_mod.build(system.name)
    except KeyError:
        return None
    return system.name if registered == system else None


def sweep(
    workloads: Iterable[str],
    systems: Iterable[Union[str, SystemSpec]],
    fractions: Iterable[float],
    seed: int = 1,
    fabric: Optional[FabricConfig] = None,
    workload_kwargs: Optional[Dict[str, dict]] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> SweepResult:
    """Run the full cross product and collect results.

    ``workload_kwargs`` maps workload name -> constructor overrides
    (e.g. scaled-down instances for quick sweeps).  ``jobs`` fans the
    grid (and the CT_local reference runs) out over worker processes;
    ``cache`` serves previously computed points from disk.  Unregistered
    ``SystemSpec`` objects cannot cross a process boundary by name, so
    those points run in-process and uncached, exactly as before.
    """
    fabric = fabric or FabricConfig(seed=seed)
    workload_kwargs = workload_kwargs or {}
    workload_list = list(workloads)
    system_list = list(systems)
    fraction_list = list(fractions)

    # One CT_local reference per workload config, then the grid itself;
    # everything goes through execute() in a single batch so the pool
    # and the cache see the whole sweep at once.
    specs: List[RunSpec] = [
        local_ct_spec(name, seed, fabric, workload_kwargs.get(name, {}))
        for name in workload_list
    ]
    points: List[SweepPoint] = []
    spec_index: Dict[SweepPoint, int] = {}
    direct: Dict[SweepPoint, SystemSpec] = {}
    for name, system, fraction in itertools.product(
        workload_list, system_list, fraction_list
    ):
        system_name = system if isinstance(system, str) else system.name
        point = SweepPoint(name, system_name, fraction, seed)
        points.append(point)
        engine_name = _engine_system_name(system)
        if engine_name is None:
            direct[point] = system
            continue
        spec_index[point] = len(specs)
        specs.append(
            RunSpec(
                workload=name,
                system=engine_name,
                fraction=fraction,
                seed=seed,
                workload_kwargs=dict(workload_kwargs.get(name, {})),
                fabric=fabric,
            )
        )

    outputs = execute(specs, jobs=jobs, cache=cache)
    ct_local = {
        (name, seed): outputs[i].completion_time_us
        for i, name in enumerate(workload_list)
    }
    results: Dict[SweepPoint, RunResult] = {
        point: outputs[index] for point, index in spec_index.items()
    }
    if direct:
        traces = TraceCache()
        for point, system in direct.items():
            workload = build_workload(
                point.workload, seed=seed, **workload_kwargs.get(point.workload, {})
            )
            results[point] = runner.run(
                workload,
                system,
                point.fraction,
                fabric,
                trace=traces.get(point.workload, seed,
                                 workload_kwargs.get(point.workload, {})),
            )
    return SweepResult(points=points, results=results, ct_local=ct_local)
