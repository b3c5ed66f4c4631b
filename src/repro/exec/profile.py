"""Per-component time-share profiling of a simulation run.

Wraps one run in :mod:`cProfile` and buckets every function's *internal*
time (tottime — time in the function itself, not its callees, so the
shares sum to the total without double counting) into the simulator's
architectural components.  This is the baseline future perf PRs measure
against: ``repro run --profile ...`` prints the table, and
:func:`profile_spec` returns it as data.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exec.pool import run_spec
from repro.exec.spec import RunSpec
from repro.sim.metrics import RunResult

#: Component name -> path fragments that claim a frame (first match
#: wins, most-specific first).  Mirrors the subsystem layout in
#: docs/architecture.md.
COMPONENTS: List[Tuple[str, Tuple[str, ...]]] = [
    ("batch-kernel", ("repro/sim/batchkernel",)),
    ("kernel-swap", ("repro/kernel/", "repro/sim/machine", "repro/sim/sanitizer")),
    ("rdma-fabric", ("repro/net/", "repro/cluster/")),
    ("hopp-policy", ("repro/hopp/", "repro/baselines/")),
    ("cache-hierarchy", ("repro/memsim/",)),
    ("trace-gen", ("repro/workloads/",)),
    ("harness", ("repro/sim/", "repro/exec/", "repro/analysis/")),
]


@dataclass
class ProfileReport:
    """Where one run's wall-clock went, by architectural component."""

    total_s: float
    seconds: Dict[str, float] = field(default_factory=dict)
    result: Optional[RunResult] = None

    def share(self, component: str) -> float:
        if self.total_s <= 0:
            return 0.0
        return self.seconds.get(component, 0.0) / self.total_s

    def rows(self) -> List[List[object]]:
        """(component, seconds, share) rows, largest first — ready for
        :func:`repro.analysis.report.render_table`."""
        ordered = sorted(self.seconds.items(), key=lambda kv: -kv[1])
        return [
            [name, f"{secs:.3f}", f"{self.share(name):.1%}"]
            for name, secs in ordered
            if secs > 0.0
        ]


def classify(filename: str) -> str:
    """Map a profiled frame's filename onto a component bucket."""
    normalized = filename.replace("\\", "/")
    for name, fragments in COMPONENTS:
        for fragment in fragments:
            if fragment in normalized:
                return name
    return "other"


def profile_spec(spec: RunSpec) -> ProfileReport:
    """Run ``spec`` under the profiler and aggregate component shares."""
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_spec(spec)
    profiler.disable()
    stats = pstats.Stats(profiler)
    seconds: Dict[str, float] = {}
    total = 0.0
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, _callers) in stats.stats.items():
        bucket = classify(filename)
        seconds[bucket] = seconds.get(bucket, 0.0) + tottime
        total += tottime
    return ProfileReport(total_s=total, seconds=seconds, result=result)
