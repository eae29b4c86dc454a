"""Shared report rendering: tables, CSV, and ASCII charts.

No plotting libraries are available offline, so figures render as CSV
series (for external plotting) plus a compact ASCII chart for terminal
inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["Table", "Series", "Figure", "si", "ascii_chart"]


def si(value: float, unit: str = "", digits: int = 3) -> str:
    """Format with SI prefixes: 1.44e15 → '1.44P'."""
    if value == 0:
        return f"0{unit}"
    prefixes = [
        (1e18, "E"), (1e15, "P"), (1e12, "T"), (1e9, "G"),
        (1e6, "M"), (1e3, "K"),
    ]
    sign = "-" if value < 0 else ""
    v = abs(value)
    for scale, prefix in prefixes:
        if v >= scale:
            return f"{sign}{v / scale:.{digits}g}{prefix}{unit}"
    return f"{sign}{v:.{digits}g}{unit}"


@dataclass
class Table:
    """A rendered evaluation table (one paper table)."""

    title: str
    headers: List[str]
    rows: List[List[str]]
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(str(cell)))

        def fmt(cells) -> str:
            return "  ".join(
                str(c).ljust(w) for c, w in zip(cells, widths)
            ).rstrip()

        lines = [self.title, "=" * len(self.title), fmt(self.headers),
                 fmt(["-" * w for w in widths])]
        lines += [fmt(row) for row in self.rows]
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        out = [",".join(self.headers)]
        out += [",".join(str(c) for c in row) for row in self.rows]
        return "\n".join(out)


@dataclass
class Series:
    """One line of a figure."""

    label: str
    x: List[float]
    y: List[float]


def _csv_number(value) -> str:
    """Full-precision CSV cell: ``repr(float(v))``, so NumPy scalars
    print as ``1.0`` rather than ``np.float64(1.0)``."""
    return "None" if value is None else repr(float(value))


@dataclass
class Figure:
    """A rendered evaluation figure (one paper figure)."""

    title: str
    x_label: str
    y_label: str
    series: List[Series]
    log_x: bool = False
    log_y: bool = False
    notes: List[str] = field(default_factory=list)

    def render(self, *, width: int = 72, height: int = 16) -> str:
        lines = [self.title, "=" * len(self.title)]
        lines.append(
            ascii_chart(self.series, width=width, height=height,
                        log_x=self.log_x, log_y=self.log_y,
                        x_label=self.x_label, y_label=self.y_label)
        )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        out = ["series,x,y"]
        for s in self.series:
            for x, y in zip(s.x, s.y):
                out.append(f"{s.label},{_csv_number(x)},"
                           f"{_csv_number(y)}")
        return "\n".join(out)


_MARKS = "ox+*#@%&"


def ascii_chart(series: Sequence[Series], *, width: int = 72,
                height: int = 16, log_x: bool = False,
                log_y: bool = False, x_label: str = "",
                y_label: str = "") -> str:
    """Scatter multiple series onto a character grid."""
    points = [
        (s_idx, x, y)
        for s_idx, s in enumerate(series)
        for x, y in zip(s.x, s.y)
        if y is not None and not (log_x and x <= 0)
        and not (log_y and y <= 0)
    ]
    if not points:
        return "(no data)"

    def tx(x: float) -> float:
        return math.log10(x) if log_x else x

    def ty(y: float) -> float:
        return math.log10(y) if log_y else y

    xs = [tx(x) for _, x, _ in points]
    ys = [ty(y) for _, _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for s_idx, x, y in points:
        col = int((tx(x) - x_lo) / x_span * (width - 1))
        row = int((ty(y) - y_lo) / y_span * (height - 1))
        grid[height - 1 - row][col] = _MARKS[s_idx % len(_MARKS)]

    lines = []
    top = f"{10**y_hi if log_y else y_hi:.3g}"
    bottom = f"{10**y_lo if log_y else y_lo:.3g}"
    margin = max(len(top), len(bottom)) + 1
    for i, row in enumerate(grid):
        label = top if i == 0 else bottom if i == height - 1 else ""
        lines.append(label.rjust(margin) + "|" + "".join(row))
    left = f"{10**x_lo if log_x else x_lo:.3g}"
    right = f"{10**x_hi if log_x else x_hi:.3g}"
    axis = " " * margin + "+" + "-" * width
    lines.append(axis)
    lines.append(" " * margin + left.ljust(width - len(right)) + right)
    if x_label or y_label:
        lines.append(" " * margin + f"x: {x_label}   y: {y_label}")
    legend = "   ".join(
        f"{_MARKS[i % len(_MARKS)]} {s.label}" for i, s in enumerate(series)
    )
    lines.append(" " * margin + legend)
    return "\n".join(lines)
