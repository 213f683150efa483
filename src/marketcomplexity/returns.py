"""Daily returns, moment statistics, and lognormal-reference histograms.

Kurtosis is reported plain (Pearson, normal -> 3), not excess; subtract 3
if you need the excess convention. Log returns use the natural log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateSeriesError
from .ingest import PriceSeries


@dataclass(frozen=True)
class ReturnStatistics:
    mean: float
    std_dev: float
    kurtosis: float
    skewness: float
    n: int


@dataclass(frozen=True)
class HistogramSpec:
    bin_edges: np.ndarray
    observed_counts: np.ndarray
    expected_counts: np.ndarray

    def __post_init__(self):
        if len(self.observed_counts) != len(self.bin_edges) - 1:
            raise ValueError("observed_counts length must be len(bin_edges) - 1")
        if len(self.expected_counts) != len(self.observed_counts):
            raise ValueError("expected_counts length mismatch")

    def to_csv(self) -> str:
        lines = ["bin_lo,bin_hi,observed,expected"]
        for lo, hi, obs, exp in zip(
            self.bin_edges[:-1], self.bin_edges[1:],
            self.observed_counts, self.expected_counts,
        ):
            lines.append(f"{float(lo)!r},{float(hi)!r},{int(obs)},{float(exp)!r}")
        return "\n".join(lines) + "\n"


def daily_returns(s: PriceSeries) -> np.ndarray:
    """return(n) = price(n) / price(n-1), one per consecutive day pair."""
    return s.prices[1:] / s.prices[:-1]


def log_returns(s: PriceSeries) -> np.ndarray:
    return np.log(daily_returns(s))


def moments(x) -> ReturnStatistics:
    """Mean, sample standard deviation (n-1 divisor), and the standardized
    third/fourth central moments (n divisor) of a sample.

    Raises on zero variance, where skewness and kurtosis are undefined, and
    on NaN or infinite samples.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 2:
        raise DegenerateSeriesError(f"need at least 2 samples, got {n}")
    if not np.isfinite(x).all():
        raise DegenerateSeriesError("non-finite sample value")
    mean = x.mean()
    centered = x - mean
    m2 = np.mean(centered**2)
    if m2 == 0:
        raise DegenerateSeriesError(
            "zero variance: skewness and kurtosis are undefined"
        )
    # standardize before the higher powers so tiny variances don't underflow
    z = centered / np.sqrt(m2)
    return ReturnStatistics(
        mean=float(mean),
        std_dev=float(x.std(ddof=1)),
        kurtosis=float(np.mean(z**4)),
        skewness=float(np.mean(z**3)),
        n=n,
    )


def lognormal_reference(
    stats: ReturnStatistics, edges, n: int
) -> np.ndarray:
    """Expected per-bin counts were the sample normal with the given
    mean/std: n * (Phi((b-mu)/sigma) - Phi((a-mu)/sigma)) per bin [a, b)."""
    if not stats.std_dev > 0:
        raise DegenerateSeriesError("zero standard deviation")
    edges = np.asarray(edges, dtype=float)
    cdf = ndtr((edges - stats.mean) / stats.std_dev)
    return n * np.diff(cdf)


def build_histogram(x, bins="fd") -> HistogramSpec:
    """Observed counts plus the normal-reference expectation on the same
    bins. Default binning is the Freedman-Diaconis rule."""
    x = np.asarray(x, dtype=float)
    stats = moments(x)
    edges = np.histogram_bin_edges(x, bins=bins)
    observed, _ = np.histogram(x, bins=edges)
    expected = lognormal_reference(stats, edges, len(x))
    return HistogramSpec(edges, observed, expected)
