"""Virtual-memory-subsystem substrate: page tables, frames, swap,
cgroups, reclaim, and VMAs."""

from repro.kernel.cgroup import CgroupManager, CgroupOverLimitError, MemoryCgroup
from repro.kernel.frames import FrameAllocator, OutOfFramesError
from repro.kernel.page_table import PageTable, Pte, PteState
from repro.kernel.reclaim import LruPageList, Reclaimer, ReclaimStats
from repro.kernel.swap import SwapSpace
from repro.kernel.vma import VmaMap

__all__ = [
    "CgroupManager",
    "CgroupOverLimitError",
    "MemoryCgroup",
    "FrameAllocator",
    "OutOfFramesError",
    "PageTable",
    "Pte",
    "PteState",
    "LruPageList",
    "Reclaimer",
    "ReclaimStats",
    "SwapSpace",
    "VmaMap",
]
