"""Lightweight statistics helpers used across the simulator."""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, List, Optional, Sequence


class RunningStat:
    """Streaming mean/variance/min/max (Welford's algorithm)."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "RunningStat") -> None:
        """Fold ``other`` into this stat (Chan's parallel Welford
        combination); the result is exact, as if every sample had been
        added to one stat."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RunningStat(count={self.count}, mean={self.mean:.4g}, "
            f"min={self.min}, max={self.max})"
        )


class Histogram:
    """A fixed-bucket histogram over [0, +inf) with log-spaced bounds,
    used for the timeliness distribution (Section VI-A)."""

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        if bounds is None:
            # 1 us .. ~1e6 us, half-decade buckets.
            bounds = [10 ** (exp / 2.0) for exp in range(0, 13)]
        self.bounds: List[float] = sorted(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.stat = RunningStat()

    def add(self, value: float) -> None:
        """Count ``value`` in the first bucket whose bound is >= it; past
        the last bound it lands in the overflow bucket."""
        self.stat.add(value)
        self.counts[bisect_left(self.bounds, value)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts)

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s buckets and running stat into this one.
        Both histograms must share the same bucket bounds — merging
        across different binnings has no well-defined result."""
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.stat.merge(other.stat)

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket upper bounds."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.total == 0:
            return 0.0
        target = q * self.total
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= target:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.stat.max or self.bounds[-1]
        return self.stat.max or self.bounds[-1]


def safe_ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0.0 when the denominator is zero."""
    return numerator / denominator if denominator else 0.0


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values; 0.0 for an empty sequence."""
    positives = [value for value in values if value > 0]
    if not positives:
        return 0.0
    return math.exp(sum(math.log(value) for value in positives) / len(positives))
