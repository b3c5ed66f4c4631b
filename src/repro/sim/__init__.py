"""Full-system simulator: machine, system registry, runner, metrics."""

from repro.sim.detailed import CacheFilter, VolumeReport, mmu_vs_mc_volumes
from repro.sim.machine import Machine, MachineConfig, RunEnv
from repro.sim.metrics import RunResult
from repro.sim.multiprogram import run_corun
from repro.sim.runner import (
    Comparison,
    collect,
    compare,
    local_completion_time,
    make_machine,
    run,
)
from repro.sim.systems import SystemSpec, build, names

__all__ = [
    "CacheFilter",
    "VolumeReport",
    "mmu_vs_mc_volumes",
    "Machine",
    "MachineConfig",
    "RunEnv",
    "RunResult",
    "run_corun",
    "Comparison",
    "collect",
    "compare",
    "local_completion_time",
    "make_machine",
    "run",
    "SystemSpec",
    "build",
    "names",
]
