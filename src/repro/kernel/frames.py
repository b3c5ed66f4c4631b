"""Physical frame allocator for the compute node's local DRAM."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class OutOfFramesError(RuntimeError):
    """Raised when allocation is attempted with no free frame; callers are
    expected to reclaim first (the machine does)."""


class FrameAllocator:
    """Fixed pool of physical frames with O(1) allocate/free.

    Fresh frames are preferred over recycled ones: real buddy
    allocators spread allocations across physical memory rather than
    immediately reusing the last freed frame.  This matters to HoPP's
    hardware models — a PPN that cycles between different virtual pages
    too quickly would pin stale state in the HPD table (its send bit)
    and the RPT cache.  Recycling kicks in only once the pool's fresh
    space is exhausted.
    """

    def __init__(self, total_frames: int) -> None:
        if total_frames < 1:
            raise ValueError("total_frames must be >= 1")
        self.total_frames = total_frames
        self._next_fresh = 0
        self._free: List[int] = []
        #: PPN -> (pid, vpn) owner map; -1 owner marks kernel/reserved use.
        self._owner: Dict[int, Tuple[int, int]] = {}

    def allocate(self, pid: int, vpn: int) -> int:
        """Grab a frame for (pid, vpn); raises OutOfFramesError when full."""
        if self._next_fresh < self.total_frames:
            ppn = self._next_fresh
            self._next_fresh += 1
        elif self._free:
            ppn = self._free.pop()
        else:
            raise OutOfFramesError(
                f"all {self.total_frames} frames in use"
            )
        self._owner[ppn] = (pid, vpn)
        return ppn

    def free(self, ppn: int) -> None:
        if ppn not in self._owner:
            raise ValueError(f"double free of PPN {ppn}")
        del self._owner[ppn]
        self._free.append(ppn)

    def owner(self, ppn: int) -> Optional[Tuple[int, int]]:
        return self._owner.get(ppn)

    @property
    def used(self) -> int:
        return len(self._owner)

    @property
    def available(self) -> int:
        return self.total_frames - self.used

    def __contains__(self, ppn: int) -> bool:
        return ppn in self._owner
