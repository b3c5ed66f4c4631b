"""Offline trace analysis and report formatting."""

from repro.analysis.offline import OfflineStudy, replay_study
from repro.analysis.patterns import (
    PatternBreakdown,
    analyze_trace,
    classify_window,
    page_sequence,
)
from repro.analysis.report import print_artifact, render_table
from repro.analysis.sweeps import SweepPoint, SweepResult, sweep

__all__ = [
    "OfflineStudy",
    "replay_study",
    "PatternBreakdown",
    "analyze_trace",
    "classify_window",
    "page_sequence",
    "print_artifact",
    "render_table",
    "SweepPoint",
    "SweepResult",
    "sweep",
]
