"""Workload framework.

A workload describes one application of the paper's Table IV: its
processes, VMAs, and — most importantly — its LLC-miss reference trace.
Traces are generated lazily and deterministically from a seed so every
system under comparison replays the identical access sequence.

The unit of a trace is a cacheline READ that missed the LLC, expressed
as ``(pid, virtual_byte_address)``.  Generators work one page visit at a
time: :meth:`Workload.visits` yields ``(pid, vpn, first_block,
end_block)`` keys, each a run of consecutive cacheline touches
(``blocks_per_page`` for a whole visit; with the HPD threshold at its
default of 8, a fully visited page is extracted as hot exactly once per
visit), and :meth:`Workload.trace` expands them into accesses.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from repro.common.constants import PAGE_SHIFT
from repro.workloads import traclib
from repro.workloads.traclib import Access, Visit


@dataclass(frozen=True)
class ProcessSpec:
    """A process the workload runs as, with its VMAs."""

    pid: int
    cgroup: str = "default"
    #: (start_vpn, npages, name) triples.
    vmas: Tuple[Tuple[int, int, str], ...] = ()


class Workload(abc.ABC):
    """Base class for all Table-IV applications and microbenchmarks."""

    #: Registry name, e.g. "omp-kmeans".
    name: str = "workload"
    #: JVM-hosted workloads (Spark family) — Section VI-B treats them
    #: separately because JVM memory management fragments streams.
    jvm: bool = False
    #: Simulated non-memory work per LLC-miss access, in microseconds.
    #: This is the computation the paper's applications do between
    #: misses; it sets how much memory latency can be overlapped.
    compute_us_per_access: float = 0.3

    def __init__(self, seed: int = 1) -> None:
        self.seed = seed

    @property
    @abc.abstractmethod
    def footprint_pages(self) -> int:
        """Total distinct pages the workload touches."""

    @property
    @abc.abstractmethod
    def processes(self) -> List[ProcessSpec]:
        ...

    def visits(self) -> Iterator[Visit]:
        """Yield the LLC-miss reference stream as page visits."""
        raise NotImplementedError(
            f"{type(self).__name__} implements neither visits() nor trace()"
        )

    def trace(self) -> Iterator[Access]:
        """Yield the LLC-miss reference stream, one ``(pid, vaddr)`` per
        access.  A subclass implements :meth:`visits`, or overrides this
        method to emit accesses itself."""
        return traclib.accesses(self.visits())

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def page_addr(vpn: int, block: int = 0) -> int:
        return (vpn << PAGE_SHIFT) | (block << 6)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r} seed={self.seed}>"
