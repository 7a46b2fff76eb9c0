"""Scaling-exponent estimation for the shape experiments.

Bench E6 measures the maximum per-round message count at several ``n`` and
asks: what exponent ``alpha`` best explains ``messages ~ n^alpha``?  The
paper predicts ``alpha = 1 + C/sqrt(dmin)`` plus polylog corrections, so
the fitted exponent should (a) sit well below 2 for long deadlines, and
(b) decrease as ``dmin`` grows.

Pure-Python least squares in log-log space; no numpy dependency so the
core library stays dependency-free (numpy remains available for heavier
analysis if installed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["PowerFit", "fit_power_law", "fit_with_polylog"]


@dataclass(frozen=True)
class PowerFit:
    """Result of fitting ``y = scale * x^exponent``."""

    exponent: float
    scale: float
    r_squared: float


def _linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        raise ValueError("degenerate fit: all x equal")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)
    )
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 - (ss_res / ss_tot if ss_tot else 0.0)
    return slope, intercept, r_squared


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerFit:
    """Least-squares fit of ``y = scale * x^exponent`` in log-log space."""
    if len(xs) != len(ys):
        raise ValueError("x and y lengths differ")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("power-law fit needs positive data")
    log_xs = [math.log(x) for x in xs]
    log_ys = [math.log(y) for y in ys]
    slope, intercept, r_squared = _linear_fit(log_xs, log_ys)
    return PowerFit(exponent=slope, scale=math.exp(intercept), r_squared=r_squared)


def fit_with_polylog(
    ns: Sequence[float], ys: Sequence[float], polylog_power: float = 2.0
) -> PowerFit:
    """Fit ``y = scale * n^exponent * log2(n)^polylog_power``.

    Divides out the assumed polylog factor first, so the returned exponent
    isolates the polynomial part the theorems speak about.
    """
    adjusted = [
        y / (max(1.0, math.log2(max(2, n))) ** polylog_power)
        for n, y in zip(ns, ys)
    ]
    return fit_power_law(ns, adjusted)
