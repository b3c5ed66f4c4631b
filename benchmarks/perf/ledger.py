"""Host-time ledger: spans around the calls into each simulator layer.

The benchmark times layers from outside the program.  After building a
machine it replaces selected bound methods on that machine's own
component instances with timing wrappers; classes and other machines
are untouched.  The wrappers only observe, so a traced replay must
produce the same ``RunResult`` as an untraced one (``run.py`` checks
it), and they leave the memory controller's tap list alone, so the
machine still selects the same replay loop.

A span's *self* time is its duration minus the part its child spans
cover, minus the wrapper's own cost, which :meth:`Ledger.calibrate`
measures on a no-op before tracing.  Both are kept in the reference
nanoseconds of :mod:`refclock`, so they compare across host speeds.  Spans are aggregated in memory per
``(label, parent label)`` and read out once at the end.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional, Tuple

from refclock import RefClock

#: Every layer boundary the ledger reports, in report order.  A
#: boundary with no spans on a workload reports zeros.
LAYERS: Tuple[str, ...] = (
    "sim.run",
    "kernel.minor_fault",
    "kernel.major_fault",
    "kernel.swapcache_hit",
    "kernel.inflight_hit",
    "kernel.arrivals",
    "kernel.evict",
    "kernel.reclaim_plan",
    "sim.prefetch_issue",
    "baselines.on_fault",
    "hopp.hpd",
    "hopp.pipeline",
    "hopp.rpt",
    "hopp.stt",
    "hopp.trainer",
    "hopp.policy",
    "hopp.executor",
    "net.read",
    "net.write",
    "cluster.assign",
)

_MACHINE_METHODS = (
    ("sim.run", "run"),
    ("kernel.minor_fault", "_minor_fault"),
    ("kernel.major_fault", "_major_fault"),
    ("kernel.swapcache_hit", "_swapcache_hit"),
    ("kernel.inflight_hit", "_inflight_hit"),
    ("kernel.arrivals", "_process_arrivals"),
    ("kernel.evict", "_evict"),
    ("sim.prefetch_issue", "prefetch_page"),
    ("sim.prefetch_issue", "prefetch_batch"),
)


def boundaries(machine) -> List[Tuple[str, object, str]]:
    """``(layer, owner instance, method name)`` for every call of
    ``machine`` the ledger wraps."""
    out = [(layer, machine, method) for layer, method in _MACHINE_METHODS]
    out.append(("kernel.reclaim_plan", machine.reclaimer, "plan"))
    if machine.fault_prefetcher is not None:
        out.append(("baselines.on_fault", machine.fault_prefetcher, "on_fault"))
    plane = machine.hopp
    if plane is not None:
        # The batch kernel feeds HPD through process_run (single
        # channel) or process_batch (multi-channel); the slow path and
        # the per-access loops through process.
        for method in ("process", "process_run", "process_batch"):
            if hasattr(plane.hpd, method):
                out.append(("hopp.hpd", plane.hpd, method))
        out += [
            ("hopp.pipeline", plane, "on_hot_page"),
            ("hopp.rpt", plane.rpt_cache, "lookup"),
            ("hopp.rpt", plane.rpt_cache, "update"),
            ("hopp.stt", plane.stt, "feed"),
            ("hopp.trainer", plane.trainer, "train"),
            ("hopp.policy", plane.policy, "finalize"),
            ("hopp.policy", plane.policy, "report_timeliness"),
            ("hopp.executor", plane.executor, "submit"),
            ("hopp.executor", plane.executor, "on_first_hit"),
            ("hopp.executor", plane.executor, "on_evicted_unused"),
        ]
    for node in machine.cluster.nodes:
        out += [
            ("net.read", node.fabric, "read_page"),
            ("net.read", node.fabric, "read_batch"),
            ("net.write", node.fabric, "write_page"),
        ]
    out.append(("cluster.assign", machine.cluster, "assign"))
    return out


def _repeat(fn, calls: int) -> None:
    for _ in range(calls):
        fn(1, 2, 3)


class _Noop:
    def call(self, a, b, c) -> None:
        return None


class Ledger:
    """Spans of every machine attached to it, aggregated in memory."""

    def __init__(self) -> None:
        #: Open spans, innermost last, above a root sentinel:
        #: ``[label, children's ns, children's count]``.
        self._stack: List[list] = [[None, 0, 0]]
        #: label -> parent label (None at top level) -> ``[count,
        #: duration minus children's durations in ns, child spans]``.
        self._cells: Dict[str, Dict[Optional[str], list]] = {}
        #: Calibrated wrapper cost per span, split into the part inside
        #: the span's own clock reads and the part its parent sees.
        self.span_ns = 0.0
        self.inner_ns = 0.0
        self.outer_ns = 0.0

    def attach(self, machine) -> None:
        """Wrap every boundary method of ``machine``'s instances."""
        for layer, owner, method in boundaries(machine):
            self._wrap(owner, method, f"{layer}/{method}")

    def _wrap(self, owner, method: str, label: str) -> None:
        fn = getattr(owner, method)
        stack = self._stack
        push = stack.append
        pop = stack.pop
        cells = self._cells.setdefault(label, {})
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            frame = [label, 0, 0]
            push(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                pop()
                parent = stack[-1]
                parent[1] += dur
                parent[2] += 1
                cell = cells.get(parent[0])
                if cell is None:
                    cells[parent[0]] = [1, dur - frame[1], frame[2]]
                else:
                    cell[0] += 1
                    cell[1] += dur - frame[1]
                    cell[2] += frame[2]

        setattr(owner, method, span)

    def calibrate(self, calls: int = 20000, rounds: int = 7) -> None:
        """Measure the wrapper's cost, in reference ns, on a nested
        three-argument no-op span: the median of ``rounds`` rounds of
        ``calls`` calls."""
        probe = Ledger()
        raw, wrapped = _Noop(), _Noop()
        probe._wrap(wrapped, "call", "noop")
        probe._stack.append(["parent", 0, 0])
        totals, inners = [], []
        for _ in range(rounds):
            clock = RefClock()
            clock.time(_repeat, raw.call, calls)
            raw_ref = clock.ref_ns / calls
            wall, ref = clock.wall_ns, clock.ref_ns
            clock.time(_repeat, wrapped.call, calls)
            scale = (clock.ref_ns - ref) / (clock.wall_ns - wall)
            totals.append((clock.ref_ns - ref) / calls - raw_ref)
            count, own, _children = probe._cells["noop"].pop("parent")
            inners.append(own * scale / count - raw_ref)
        self.span_ns = max(statistics.median(totals), 0.0)
        self.inner_ns = min(max(statistics.median(inners), 0.0), self.span_ns)
        self.outer_ns = self.span_ns - self.inner_ns

    # -- read-out ---------------------------------------------------------------

    def _self_ns(self, cell: list, scale: float) -> float:
        count, own, children = cell
        return own * scale - count * self.inner_ns - children * self.outer_ns

    def layer_totals(self, scale: float) -> Dict[str, Tuple[int, float]]:
        """``layer -> (span count, self reference ns)`` over every layer
        in :data:`LAYERS`, zeros where no span occurred.  ``scale``
        converts the spans' wall ns to reference ns (the traced
        replays' ratio of the two)."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for label, parents in self._cells.items():
            total = totals[label.split("/", 1)[0]]
            for cell in parents.values():
                total[0] += cell[0]
                total[1] += self._self_ns(cell, scale)
        return {layer: (count, own) for layer, (count, own) in totals.items()}

    def count(self, label: str) -> int:
        """Spans recorded under ``label`` (``layer/method``), any parent."""
        return sum(cell[0] for cell in self._cells.get(label, {}).values())

    def span_rows(self, scale: float) -> List[Dict[str, object]]:
        """The aggregated spans, one row per ``(label, parent)``, with
        self time in reference ns."""
        return [
            {
                "span": label,
                "parent": parent,
                "count": cell[0],
                "self_ns": round(self._self_ns(cell, scale)),
            }
            for label in sorted(self._cells)
            for parent, cell in sorted(
                self._cells[label].items(), key=lambda item: item[0] or ""
            )
        ]
