"""Self-contained SVG charts.

Output is deterministic: fixed palette, fixed geometry, coordinates printed
with %.2f.  Rendering the same series twice yields identical bytes, so chart
files can be diffed across runs.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

from .metrics import EmptySeries, constant_span

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")

_WIDTH = 960
_HEIGHT = 540
_MARGIN = {"left": 72.0, "right": 24.0, "top": 44.0, "bottom": 58.0}


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list:
    lo, hi = float(lo), float(hi)  # a float width overflows without a warning
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("tick range must be finite")
    if hi == lo:
        lo, hi = constant_span(lo)
    raw = (hi - lo) / max(target - 1, 1)
    # a width that overflows or underflows has no magnitude
    magnitude = (10.0 ** math.floor(math.log10(raw))
                 if 0.0 < raw < math.inf else 0.0)
    step = 10.0 * magnitude
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * magnitude:
            step = mult * magnitude
            break
    if step == 0.0:  # also where the magnitude itself underflows
        raise ValueError(f"cannot chart values from {lo!r} to {hi!r}")
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(value) < 1e-12 else value)
        if value + step == value:  # a step below the value's resolution
            break
        value += step
    return ticks


def _fmt_tick(value: float) -> str:
    text = f"{value:.6g}"
    return "0" if text == "-0" else text


class _Canvas:
    def __init__(self):
        self.parts = []

    def add(self, element: str):
        self.parts.append(element)

    def text(self, x, y, content, size=13, anchor="middle", color="#333333",
             rotate=None):
        transform = ""
        if rotate is not None:
            transform = f' transform="rotate({rotate} {x:.2f} {y:.2f})"'
        self.add(f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" '
                 f'font-family="sans-serif" text-anchor="{anchor}" '
                 f'fill="{color}"{transform}>{escape(str(content))}</text>')

    def line(self, x1, y1, x2, y2, color="#cccccc", width=1.0):
        self.add(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
                 f'y2="{y2:.2f}" stroke="{color}" '
                 f'stroke-width="{width:g}"/>')

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
                f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
                f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>'
                f'\n{body}\n</svg>\n')


def _frame(canvas, x_ticks, y_ticks, x_lo, x_hi, y_lo, y_hi, x_label,
           y_label, title):
    left = _MARGIN["left"]
    right = _WIDTH - _MARGIN["right"]
    top = _MARGIN["top"]
    bottom = _HEIGHT - _MARGIN["bottom"]

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * (right - left)

    def sy(v):
        return bottom - (v - y_lo) / (y_hi - y_lo) * (bottom - top)

    for tick in y_ticks:
        y = sy(tick)
        canvas.line(left, y, right, y)
        canvas.text(left - 8, y + 4, _fmt_tick(tick), anchor="end", size=12)
    for tick in x_ticks:
        x = sx(tick)
        canvas.line(x, bottom, x, bottom + 5, color="#333333")
        canvas.text(x, bottom + 20, _fmt_tick(tick), size=12)
    canvas.line(left, top, left, bottom, color="#333333", width=1.2)
    canvas.line(left, bottom, right, bottom, color="#333333", width=1.2)
    canvas.text((left + right) / 2, _HEIGHT - 16, x_label, size=14)
    canvas.text(20, (top + bottom) / 2, y_label, size=14, rotate=-90)
    if title:
        canvas.text((left + right) / 2, 24, title, size=16)
    return sx, sy


def line_chart(series: dict, x_label: str = "episode",
               y_label: str = "value", title: str = "") -> str:
    """Render named series as polylines with a shared axis frame."""
    if not series:
        raise EmptySeries("no series to plot")
    arrays = {}
    for name, values in series.items():
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise EmptySeries(f"series {name!r} is empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"series {name!r} has non-finite values")
        arrays[name] = arr

    x_hi = max(arr.size - 1 for arr in arrays.values())
    y_lo = min(arr.min() for arr in arrays.values())
    y_hi = max(arr.max() for arr in arrays.values())
    if y_hi == y_lo:
        y_lo, y_hi = constant_span(float(y_lo))
    x_ticks = _nice_ticks(0, max(x_hi, 1))
    y_ticks = _nice_ticks(y_lo, y_hi)
    y_lo = min(y_lo, y_ticks[0])
    y_hi = max(y_hi, y_ticks[-1])

    canvas = _Canvas()
    sx, sy = _frame(canvas, x_ticks, y_ticks, 0, max(x_hi, 1), y_lo, y_hi,
                    x_label, y_label, title)
    for k, (name, arr) in enumerate(arrays.items()):
        color = PALETTE[k % len(PALETTE)]
        points = " ".join(f"{sx(t):.2f},{sy(v):.2f}"
                          for t, v in enumerate(arr))
        canvas.add(f'<polyline points="{points}" fill="none" '
                   f'stroke="{color}" stroke-width="1.6"/>')
        legend_y = _MARGIN["top"] + 16 + 18 * k
        legend_x = _WIDTH - _MARGIN["right"] - 150
        canvas.line(legend_x, legend_y - 4, legend_x + 22, legend_y - 4,
                    color=color, width=2.0)
        canvas.text(legend_x + 28, legend_y, name, anchor="start", size=12)
    return canvas.render()


def histogram_chart(counts, edges, x_label: str = "value",
                    y_label: str = "episodes", title: str = "") -> str:
    counts = np.asarray(counts, dtype=float)
    edges = np.asarray(edges, dtype=float)
    if counts.size == 0 or edges.size != counts.size + 1:
        raise ValueError("need N counts and N+1 edges")
    x_ticks = _nice_ticks(edges[0], edges[-1])
    y_ticks = _nice_ticks(0.0, max(counts.max(), 1.0))
    canvas = _Canvas()
    sx, sy = _frame(canvas, x_ticks, y_ticks,
                    min(edges[0], x_ticks[0]), max(edges[-1], x_ticks[-1]),
                    0.0, max(counts.max(), y_ticks[-1], 1.0),
                    x_label, y_label, title)
    base = sy(0.0)
    for i, count in enumerate(counts):
        x0 = sx(edges[i])
        x1 = sx(edges[i + 1])
        y = sy(count)
        canvas.add(f'<rect x="{x0:.2f}" y="{y:.2f}" '
                   f'width="{max(x1 - x0, 0.5):.2f}" '
                   f'height="{max(base - y, 0.0):.2f}" '
                   f'fill="{PALETTE[0]}" fill-opacity="0.8" '
                   f'stroke="#ffffff" stroke-width="0.5"/>')
    return canvas.render()
