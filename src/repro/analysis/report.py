"""Plain-text table/series formatting for the benchmark harness.

Every bench prints the same rows/series its paper artifact reports; the
helpers here keep that output consistent and diffable.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def format_cell(value: Cell, precision: int = 3) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    precision: int = 3,
    title: str = "",
) -> str:
    """Fixed-width table with a separator under the header."""
    text_rows: List[List[str]] = [
        [format_cell(cell, precision) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_artifact(artifact_id: str, body: str) -> None:
    """Print one reproduced table/figure with a recognizable banner."""
    banner = f"=== {artifact_id} ==="
    print()
    print(banner)
    print(body)
    print("=" * len(banner))
