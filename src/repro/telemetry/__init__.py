"""Telemetry subsystem: event-bus probes, windowed time-series, and
trace-timeline export.

Disabled (the default) it is a null-object: ``RunEnv.telemetry``
is ``None``, no bus exists, every probe site in the simulator is a
single ``is not None`` check on the cold path, and run output is
byte-identical to the pinned goldens.  Enabled, a :class:`Telemetry`
facade owns one :class:`~repro.telemetry.events.EventBus` wired to a
:class:`~repro.telemetry.timeseries.TimeSeriesEngine` (always) and a
:class:`~repro.telemetry.exporters.TraceRecorder` (when
``TelemetryConfig.trace``), and :meth:`Telemetry.export` folds the
whole thing into the plain-JSON dict that rides on
``RunResult.telemetry``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .events import EventBus
from .exporters import TraceRecorder, chrome_trace, prometheus_snapshot
from .timeseries import TimeSeriesEngine

__all__ = [
    "EventBus",
    "Telemetry",
    "TelemetryConfig",
    "TimeSeriesEngine",
    "TraceRecorder",
    "chrome_trace",
    "prometheus_snapshot",
]


@dataclass(frozen=True)
class TelemetryConfig:
    """What to record.  Frozen: it participates in the exec-cache key
    (``RunSpec.key_dict``), so it must be hashable and immutable."""

    #: Fixed simulated-time window width for the time-series engine.
    epoch_us: float = 1000.0
    #: Record the Chrome trace timeline (memory-bounded by trace_limit).
    trace: bool = False
    #: Hard cap on stored trace events; past it they are counted, not kept.
    trace_limit: int = 200_000

    def __post_init__(self) -> None:
        if self.epoch_us <= 0:
            raise ValueError("epoch_us must be positive")
        if self.trace_limit <= 0:
            raise ValueError("trace_limit must be positive")


class Telemetry:
    """Per-run facade: one bus, its consumers, and the export step."""

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self.bus = EventBus()
        self.timeseries = TimeSeriesEngine(self.config.epoch_us)
        self.bus.subscribe(self.timeseries.on_event)
        self.recorder: Optional[TraceRecorder] = (
            TraceRecorder(self.bus, self.config.trace_limit)
            if self.config.trace
            else None
        )

    def export(
        self,
        end_us: float,
        node_metrics: Optional[List[Dict[str, object]]] = None,
    ) -> Dict[str, object]:
        """The JSON-serializable blob stored on ``RunResult.telemetry``.

        ``node_metrics`` is the per-node list of unified
        ``metrics_snapshot()`` dicts captured at collect time so the
        Prometheus exporter can run on a deserialized result."""
        out: Dict[str, object] = {
            "config": {
                "epoch_us": self.config.epoch_us,
                "trace": self.config.trace,
                "trace_limit": self.config.trace_limit,
            },
            "events_total": self.bus.events_emitted,
            "timeseries": self.timeseries.export(end_us),
        }
        if node_metrics is not None:
            out["node_metrics"] = list(node_metrics)
        if self.recorder is not None:
            out["trace_events"] = list(self.recorder.events)
            out["trace_truncated"] = self.recorder.truncated
            out["trace_dropped"] = self.recorder.dropped
        return out
