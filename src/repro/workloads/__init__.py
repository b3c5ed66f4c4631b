"""Workload suite: the 15 Table-IV applications plus microbenchmarks."""

from repro.workloads.base import Access, ProcessSpec, Visit, Workload
from repro.workloads.registry import (
    ALL_APPS,
    NON_JVM_APPS,
    SPARK_APPS,
    build,
    names,
    register,
)

__all__ = [
    "Access",
    "ProcessSpec",
    "Visit",
    "Workload",
    "ALL_APPS",
    "NON_JVM_APPS",
    "SPARK_APPS",
    "build",
    "names",
    "register",
]
