"""Peak-anchored linear time scaling and nearest-timestamp filtering.

Two markets are put on a common clock by mapping the absolute times of one
onto the other with the straight line through their two major price peaks,
then truncating to the overlapping span and pairing every source point with
the nearest destination point in time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError
from .ingest import PriceSeries, SampledSeries


@dataclass(frozen=True)
class LinearTimeMap:
    slope: float
    intercept: float

    def __post_init__(self):
        if not self.slope > 0:
            raise ValueError(f"time map slope must be positive, got {self.slope}")

    def apply(self, t):
        return self.slope * np.asarray(t, dtype=float) + self.intercept


@dataclass(frozen=True)
class AlignedPair:
    times: np.ndarray
    source_prices: np.ndarray
    dest_prices: np.ndarray

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.source_prices) == len(self.dest_prices) == n):
            raise ValueError("aligned pair arrays must have equal length")
        if n < 2:
            raise AlignmentError("aligned pair must contain at least 2 points")

    def __len__(self) -> int:
        return len(self.times)

    def to_csv(self) -> str:
        columns = (self.times, self.source_prices, self.dest_prices)
        rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
        return "dest_time,source_price,dest_price\n" + "".join(
            [f"{t!r},{sp!r},{dp!r}\n" for t, sp, dp in rows]
        )


def detect_peaks(s: PriceSeries, k: int) -> list[tuple[float, float]]:
    """The k largest local price maxima, returned in chronological order
    as (absolute time, price).

    A local maximum is strictly greater than both neighbours; an endpoint
    qualifies when greater than its single neighbour. Significance is raw
    price magnitude, not prominence.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if len(s) < 3:
        raise AlignmentError(f"series {s.id!r} too short for peak detection")
    prices = s.prices
    left_ok = np.concatenate(([True], prices[1:] > prices[:-1]))
    right_ok = np.concatenate((prices[:-1] > prices[1:], [True]))
    maxima = np.flatnonzero(left_ok & right_ok)
    if len(maxima) < k:
        raise AlignmentError(
            f"series {s.id!r}: found {len(maxima)} local maxima, need {k}"
        )
    # highest first; a stable sort keeps equal peaks in time order
    by_height = maxima[np.argsort(-prices[maxima], kind="stable")]
    top = np.sort(by_height[:k])
    times = s.abs_times()
    return [(float(times[i]), float(prices[i])) for i in top]


def peak_anchors(s: PriceSeries) -> tuple[float, float]:
    """Times of the two largest price peaks: the anchors that put one
    market on another's clock."""
    (t1, _), (t2, _) = detect_peaks(s, 2)
    return t1, t2


def fit_time_map(
    src_anchors: tuple[float, float], dst_anchors: tuple[float, float]
) -> LinearTimeMap:
    """Straight line mapping the two source anchor times onto the two
    destination anchor times exactly."""
    s1, s2 = (float(t) for t in src_anchors)
    d1, d2 = (float(t) for t in dst_anchors)
    if s2 <= s1:
        raise AlignmentError("source anchors must be distinct and chronological")
    if d2 <= d1:
        raise AlignmentError("destination anchors must be distinct and chronological")
    slope = (d2 - d1) / (s2 - s1)
    intercept = d1 - slope * s1
    return LinearTimeMap(slope, intercept)


def nearest_indices(src_times: np.ndarray, dst_times: np.ndarray) -> np.ndarray:
    """Index of the dst timestamp nearest each src timestamp; equidistant
    candidates resolve to the earlier dst timestamp."""
    right = np.searchsorted(dst_times, src_times, side="left")
    right = np.clip(right, 0, len(dst_times) - 1)
    left = np.clip(right - 1, 0, len(dst_times) - 1)
    d_left = np.abs(src_times - dst_times[left])
    d_right = np.abs(src_times - dst_times[right])
    return np.where(d_left <= d_right, left, right)


def nearest_filter(src: SampledSeries, dst: SampledSeries) -> AlignedPair:
    """Pair every source point with the destination point nearest in time.

    Output length equals the source length; a destination point may be
    selected more than once.
    """
    if len(dst) == 0:
        raise AlignmentError("destination series is empty")
    idx = nearest_indices(src.times, dst.times)
    return AlignedPair(
        times=dst.times[idx].copy(),
        source_prices=src.prices.copy(),
        dest_prices=dst.prices[idx].copy(),
    )


def align(
    src: SampledSeries,
    dst: SampledSeries,
    src_anchors: tuple[float, float],
    dst_anchors: tuple[float, float],
) -> AlignedPair:
    """Full pipeline: fit the anchor map, put the source times on the
    destination clock, keep the span both series cover, and pair every
    kept source point with the nearest kept destination point."""
    src_times = fit_time_map(src_anchors, dst_anchors).apply(src.times)
    if len(src) == 0 or len(dst) == 0:
        raise AlignmentError("cannot truncate an empty series")
    lo = max(src_times[0], dst.times[0])
    hi = min(src_times[-1], dst.times[-1])
    if hi < lo:
        raise AlignmentError("series time spans are disjoint")
    kept = []
    for series in (SampledSeries(src.id, src_times, src.prices), dst):
        mask = (series.times >= lo) & (series.times <= hi)
        if mask.sum() < 2:
            raise AlignmentError(
                f"series {series.id!r}: overlap [{lo}, {hi}] holds fewer than 2 points"
            )
        kept.append(SampledSeries(series.id, series.times[mask], series.prices[mask]))
    return nearest_filter(*kept)
