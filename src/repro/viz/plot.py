"""ASCII rendering of line plots."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["line_plot"]

_MARKERS = "*+ox#@%&"


def _finite_pairs(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.shape != ys.shape:
        raise ValueError(f"series length mismatch: {xs.size} xs vs "
                         f"{ys.size} ys")
    keep = np.isfinite(xs) & np.isfinite(ys)
    return xs[keep], ys[keep]


def _axis_transform(values: np.ndarray, log: bool, name: str) -> np.ndarray:
    if not log:
        return values
    if np.any(values <= 0):
        raise ValueError(f"log {name}-axis requires positive values")
    return np.log10(values)


def _span(lo: float, hi: float) -> tuple[float, float]:
    """Pad a degenerate range so mapping to columns never divides by 0."""
    if hi > lo:
        return lo, hi
    pad = abs(lo) * 0.5 + 1.0
    return lo - pad, hi + pad


def _format_tick(value: float, log: bool) -> str:
    if log:
        return f"{10 ** value:.3g}"
    return f"{value:.4g}"


def line_plot(series: dict[str, tuple[Sequence, Sequence]],
              title: str = "", width: int = 64, height: int = 18,
              x_log: bool = False, y_log: bool = False,
              x_label: str = "", y_label: str = "") -> str:
    """Render multi-series (x, y) data on a character grid.

    ``series`` maps a legend label to an ``(xs, ys)`` pair.  Each series
    gets its own marker; overlapping points show the later series.  NaN and
    infinite points are dropped per series.
    """
    if not series:
        raise ValueError("need at least one series")
    if width < 16 or height < 4:
        raise ValueError("plot must be at least 16x4 characters")

    cleaned: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for label, (xs, ys) in series.items():
        xs, ys = _finite_pairs(xs, ys)
        if xs.size == 0:
            continue
        cleaned[label] = (_axis_transform(xs, x_log, "x"),
                          _axis_transform(ys, y_log, "y"))
    if not cleaned:
        raise ValueError("no finite data points in any series")

    all_x = np.concatenate([xs for xs, _ in cleaned.values()])
    all_y = np.concatenate([ys for _, ys in cleaned.values()])
    x_lo, x_hi = _span(float(all_x.min()), float(all_x.max()))
    y_lo, y_hi = _span(float(all_y.min()), float(all_y.max()))

    grid = [[" "] * width for _ in range(height)]
    for index, (label, (xs, ys)) in enumerate(cleaned.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        cols = np.clip(((xs - x_lo) / (x_hi - x_lo) * (width - 1)).round()
                       .astype(int), 0, width - 1)
        rows = np.clip(((ys - y_lo) / (y_hi - y_lo) * (height - 1)).round()
                       .astype(int), 0, height - 1)
        order = np.argsort(cols)
        # Connect consecutive points with interpolated markers so sparse
        # series read as curves.
        for a, b in zip(order[:-1], order[1:]):
            c0, r0, c1, r1 = cols[a], rows[a], cols[b], rows[b]
            steps = max(abs(int(c1) - int(c0)), abs(int(r1) - int(r0)), 1)
            for t in range(steps + 1):
                c = round(c0 + (c1 - c0) * t / steps)
                r = round(r0 + (r1 - r0) * t / steps)
                grid[height - 1 - r][c] = marker
        if len(order) == 1:
            grid[height - 1 - rows[order[0]]][cols[order[0]]] = marker

    left_labels = [_format_tick(y_hi, y_log), _format_tick(y_lo, y_log)]
    margin = max(len(s) for s in left_labels) + 1

    lines: list[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    for i, row in enumerate(grid):
        if i == 0:
            prefix = left_labels[0].rjust(margin)
        elif i == height - 1:
            prefix = left_labels[1].rjust(margin)
        else:
            prefix = " " * margin
        lines.append(f"{prefix}|" + "".join(row))
    lines.append(" " * margin + "+" + "-" * width)
    x_ticks = (_format_tick(x_lo, x_log), _format_tick(x_hi, x_log))
    gap = max(1, width - len(x_ticks[0]) - len(x_ticks[1]))
    lines.append(" " * (margin + 1) + x_ticks[0] + " " * gap + x_ticks[1])
    if x_label:
        lines.append(" " * (margin + 1) + x_label.center(width))
    legend = "   ".join(f"{_MARKERS[i % len(_MARKERS)]} {label}"
                        for i, label in enumerate(cleaned))
    lines.append(" " * (margin + 1) + legend)
    if y_label:
        lines.insert(len(lines) - 2 - bool(x_label),
                     " " * (margin + 1) + f"[y: {y_label}]")
    return "\n".join(lines)
