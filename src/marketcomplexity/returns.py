"""Daily returns, moment statistics, and lognormal-reference histograms.

Kurtosis is reported plain (Pearson, normal -> 3), not excess; subtract 3
if you need the excess convention. Log returns use the natural log.

The normal CDF of the reference histograms is a scalar port of `ndtr` from
S. L. Moshier's Cephes Math Library, the routine `scipy.special.ndtr`
evaluates, and it returns the same doubles bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError
from .ingest import PriceSeries, numeric_csv

# far above what real-looking series need (tier-1's largest is about 1 150
# bins, for 7 returns) and far below what would exhaust memory
MAX_HISTOGRAM_BINS = 100_000


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
        edges = np.asarray(self.bin_edges, dtype=float)
        return numeric_csv(
            "bin_lo,bin_hi,observed,expected", edges[:-1], edges[1:],
            np.asarray(self.observed_counts).astype(int),
            np.asarray(self.expected_counts, dtype=float),
        )


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
    z = (edges - stats.mean) / stats.std_dev
    cdf = np.array([_ndtr(a) for a in z.tolist()])
    return n * np.diff(cdf)


def build_histogram(x, stats: ReturnStatistics | None = None) -> HistogramSpec:
    """Observed counts plus the normal-reference expectation on the same
    bins, chosen by the Freedman-Diaconis rule. `stats` are the moments of
    `x` when the caller has them already."""
    x = np.asarray(x, dtype=float)
    if stats is None:
        stats = moments(x)
    edges = np.histogram_bin_edges(x, bins=_fd_bin_count(x))
    observed, _ = np.histogram(x, bins=edges)
    expected = lognormal_reference(stats, edges, len(x))
    return HistogramSpec(edges, observed, expected)


def _fd_bin_count(x: np.ndarray) -> int:
    """The bin count numpy's `bins="fd"` gives the finite, non-constant
    sample x, refused above MAX_HISTOGRAM_BINS: a jump beside a near-zero
    spread would otherwise ask for terabytes of bins."""
    q75, q25 = _quartiles(x)
    width = 2.0 * (q75 - q25) * x.size ** (-1.0 / 3.0)
    if not width:
        return 1
    bins = np.ceil((x.max() - x.min()) / width)
    if bins > MAX_HISTOGRAM_BINS:
        raise DegenerateSeriesError(
            f"Freedman-Diaconis binning asks for {bins:.3g} bins, "
            f"more than the limit of {MAX_HISTOGRAM_BINS}"
        )
    return int(bins)


def _quartiles(x: np.ndarray) -> list:
    """`np.percentile(x, [75, 25])` of a sample of two or more values, by
    numpy's linear rule. `np.percentile` itself would import `numpy.ma`
    (through `np.unique`), which `report` otherwise never needs."""
    at = [divmod((x.size - 1) * k, 4) for k in (3, 1)]  # lower index and 4 * weight
    part = np.partition(x, [i + d for i, _ in at for d in (0, 1)])
    out = []
    for i, k in at:
        a, b, t = part[i], part[i + 1], k / 4
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


# Cephes ndtr.c: polynomial coefficients, highest order first; the leading
# 1.0 of U, Q and S, implicit in Cephes (p1evl), is written out.
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = 0.70710678118654752440


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr(a: float) -> float:
    """Standard normal CDF, Cephes `ndtr`."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def _erf(x: float) -> float:
    """Cephes `erf` for |x| < 1, the only range `_ndtr` and `_erfc` use."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _erfc(a: float) -> float:
    """Cephes `erfc` for a >= sqrt(1/2), the only range `_ndtr` uses."""
    if a < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if a < 8.0:
        p, q = _polevl(a, _P), _polevl(a, _Q)
    else:
        p, q = _polevl(a, _R), _polevl(a, _S)
    return (z * p) / q
