"""Fractal roughness of a series on the unit time grid.

The estimator compares the total absolute increment of the series at grid
scales l/n and converts the log-log slope into a dimension in [1, 2):
1 for a straight line, 1.5 for a symmetric random walk, higher for rougher
paths. The two-scale form (L = 2) is the production default; the general
OLS form over scales 1..L is available for sensitivity runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from .errors import DegenerateSeriesError, SeriesTooShortError
from .ingest import PriceSeries


@dataclass(frozen=True)
class UnitGridSeries:
    """Values X_t at implicit times t = i/n, i = 0..n."""

    values: np.ndarray

    def __post_init__(self):
        if len(self.values) < 3:
            raise SeriesTooShortError(
                f"unit-grid series needs at least 3 values, got {len(self.values)}"
            )

    @property
    def n(self) -> int:
        return len(self.values) - 1

    @classmethod
    def from_values(cls, values) -> "UnitGridSeries":
        return cls(np.asarray(values, dtype=float))


@dataclass(frozen=True)
class DimensionEstimate:
    """Raw estimator output plus the reported value, `raw` clamped to [1, 2)."""

    raw: float
    value: float


def to_unit_grid(s: PriceSeries) -> UnitGridSeries:
    """Drop real timestamps and place the prices on the unit grid, treating
    the series as equally spaced daily closes."""
    return UnitGridSeries.from_values(s.prices)


def hw_area(g: UnitGridSeries, l: int) -> float:
    """Estimated box area at scale l/n: (l/n) * sum of |X_{il/n} - X_{(i-1)l/n}|."""
    n = g.n
    if not 1 <= l <= n // 2:
        raise ValueError(f"scale l={l} out of range [1, {n // 2}] for n={n}")
    increments = np.abs(np.diff(g.values[::l]))
    return float(l * increments.sum() / n)


def _areas(g: UnitGridSeries, L: int) -> list[float]:
    """A(l/n) for the scales l = 1..L, none of which may be zero."""
    areas = [hw_area(g, l) for l in range(1, L + 1)]
    if 0 in areas:
        raise DegenerateSeriesError(
            f"zero increment area at scale l={areas.index(0) + 1}; dimension undefined"
        )
    return areas


def _clamp(raw: float) -> float:
    upper = np.nextafter(2.0, 1.0)
    return float(min(max(raw, 1.0), upper))


def hall_wood_dimension(g: UnitGridSeries) -> DimensionEstimate:
    """Two-scale estimator: 2 - (log A(2/n) - log A(1/n)) / log 2.

    Degenerate series (zero area at either scale) raise rather than
    returning NaN.
    """
    a1, a2 = _areas(g, 2)
    raw = 2.0 - log(a2 / a1) / log(2.0)
    return DimensionEstimate(raw=raw, value=_clamp(raw))


def hall_wood_ols(g: UnitGridSeries, L: int) -> float:
    """OLS slope form over scales l = 1..L: 2 minus the regression slope of
    log A(l/n) on log(l/n). Reduces algebraically to the two-scale
    estimator at L = 2."""
    if L < 2:
        raise ValueError("L must be at least 2")
    n = g.n
    if L > n // 2:
        raise ValueError(f"L={L} exceeds floor(n/2)={n // 2}")
    areas = _areas(g, L)
    s = np.log(np.arange(1, L + 1) / n)
    s_bar = s.mean()
    slope = np.sum((s - s_bar) * np.log(areas)) / np.sum((s - s_bar) ** 2)
    return float(2.0 - slope)


def hall_wood(s: PriceSeries, L: int = 2) -> DimensionEstimate:
    """Roughness of a price path over scales 1..L: the two-scale estimator
    at L = 2, the OLS form otherwise; either value is clamped to [1, 2)."""
    grid = to_unit_grid(s)
    if L == 2:
        return hall_wood_dimension(grid)
    raw = hall_wood_ols(grid, L)
    return DimensionEstimate(raw=raw, value=_clamp(raw))
