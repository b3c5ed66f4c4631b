"""HoPP: Hardware-Software Co-Designed Page Prefetching for Disaggregated
Memory (HPCA 2023) — a from-scratch, trace-driven full-system reproduction.

Quickstart::

    import repro

    wl = repro.workloads.build("omp-kmeans", seed=7)
    result = repro.run(wl, "hopp", local_memory_fraction=0.5)
    ct_local = repro.local_completion_time(wl)
    print(result.accuracy, result.coverage,
          result.normalized_performance(ct_local))

Subpackages:

* ``repro.hopp``      — the paper's contribution: HPD, RPT (+cache),
  stream training table, SSP/LSP/RSP tiers, policy and execution engines.
* ``repro.baselines`` — Fastswap, Leap, Depth-N, VMA read-ahead.
* ``repro.kernel``    — page tables, frames, swap, reclaim, cgroups.
* ``repro.memsim``    — caches and the memory controller with taps.
* ``repro.net``       — RDMA fabric + remote memory node.
* ``repro.trace``     — HMTT-format full-trace capture.
* ``repro.sim``       — the machine simulator, runner, metrics.
* ``repro.workloads`` — the 15 Table-IV applications + microbenchmarks.
* ``repro.analysis``  — offline pattern study, report formatting.
"""

from repro import analysis, baselines, hopp, kernel, memsim, net, trace, workloads
from repro.sim import (
    Comparison,
    Machine,
    MachineConfig,
    RunEnv,
    RunResult,
    SystemSpec,
    compare,
    local_completion_time,
    make_machine,
    run,
    run_corun,
)
from repro.sim import systems

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "baselines",
    "hopp",
    "kernel",
    "memsim",
    "net",
    "trace",
    "workloads",
    "systems",
    "Comparison",
    "Machine",
    "MachineConfig",
    "RunEnv",
    "RunResult",
    "SystemSpec",
    "compare",
    "local_completion_time",
    "make_machine",
    "run",
    "run_corun",
    "__version__",
]
