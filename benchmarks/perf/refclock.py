"""Host time rescaled to a reference speed.

Shared hosts change speed under a benchmark: the 2-vCPU VM this
benchmark was built on swings between two speeds about 1.45x apart
every few seconds, so a plain wall-clock median moves by 10-20% from
run to run.  :class:`RefClock` brackets every timed call with a short
reference probe, a fixed pure-Python loop, and rescales the call's
wall time by ``PROBE_REF_NS`` over the mean of the two probes.  That
cancels the host's speed of the moment but not the cost of the code
being timed.
"""

from __future__ import annotations

import time

PROBE_LOOPS = 20000
#: What one probe takes on the reference host at its usual speed, so
#: reference nanoseconds read close to that host's wall nanoseconds.
PROBE_REF_NS = 2_000_000


def probe() -> int:
    """Wall time of the reference loop (ns)."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter_ns() - t0


class RefClock:
    """Accumulates the wall and reference nanoseconds of timed calls."""

    def __init__(self) -> None:
        self.wall_ns = 0
        self.ref_ns = 0.0
        self._before = probe()

    def time(self, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)``, add its time, return its result."""
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        wall = time.perf_counter_ns() - t0
        after = probe()
        self.wall_ns += wall
        self.ref_ns += wall * 2.0 * PROBE_REF_NS / (self._before + after)
        self._before = after
        return out
