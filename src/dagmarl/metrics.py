"""Series summaries used by the plotting and evaluation tools."""

from __future__ import annotations

import math

import numpy as np


class EmptySeries(ValueError):
    pass


def moving_average(series, window: int = 100) -> np.ndarray:
    """Trailing mean over ``window`` points; the prefix averages what exists.

    out[t] = mean(series[max(0, t - window + 1) : t + 1])
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(series, dtype=float)
    if values.size == 0:
        raise EmptySeries("cannot average an empty series")
    sums = np.cumsum(values)
    out = np.empty_like(values)
    head = min(window, values.size)
    out[:head] = sums[:head] / np.arange(1, head + 1)
    if values.size > window:
        out[window:] = (sums[window:] - sums[:-window]) / window
    return out


def constant_span(value: float) -> tuple:
    """(lo, hi) drawn around a constant ``value``: half a unit each side,
    or the floats next to it where half a unit rounds away, from 2**53."""
    lo, hi = value - 0.5, value + 0.5
    if lo == hi:
        lo = math.nextafter(value, -math.inf)
        hi = math.nextafter(value, math.inf)
    return lo, hi


def min_max_normalize(series) -> np.ndarray:
    """Rescale into [0, 1]; a constant series maps to 0.5 everywhere."""
    values = np.asarray(series, dtype=float)
    if values.size == 0:
        raise EmptySeries("cannot normalize an empty series")
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.full_like(values, 0.5)
    width = hi - lo  # a float width overflows without a warning
    if width == math.inf:
        raise ValueError(f"cannot normalize values from {lo!r} to {hi!r}")
    return (values - lo) / width


def histogram(series, bins: int = 30):
    """Counts and edges; a constant series collapses to one unit-wide bin."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    values = np.asarray(series, dtype=float)
    if values.size == 0:
        raise EmptySeries("cannot bin an empty series")
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.array([values.size]), np.array(constant_span(float(lo)))
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return counts, edges
