"""Cross-market correlation, the consolidated metric report, and
distance-based market grouping."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .align import align
from .errors import DegenerateSeriesError, MarketComplexityError
from .ingest import PriceSeries, format_number
from .returns import HistogramSpec

# column order of the metric report export
METRIC_COLUMNS = [
    "n_points",
    "n_window",
    "mean_log_return",
    "std_log_return",
    "kurtosis",
    "skewness",
    "block_entropy_bits",
    "block_entropy_normalized",
    "compressibility_binary",
    "compressibility_real",
    "bdm_bits",
    "bdm_normalized",
    "bdm_deficiency",
    "bdm_blocks_missing",
    "hall_wood_window",
    "hall_wood_full",
]


@dataclass
class MarketMetrics:
    id: str
    kind: str
    values: dict[str, float] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    # the return histogram of the window, when it could be built
    histogram: HistogramSpec | None = field(default=None, repr=False, compare=False)

    def cell(self, metric: str) -> str:
        if metric in self.values:
            v = float(self.values[metric])
            if not math.isfinite(v):
                return f"FAILED: non-finite value {v!r}"
            return format_number(v)
        if metric in self.failures:
            return f"FAILED: {self.failures[metric]}"
        return "FAILED: not computed"


def report_csv(markets: list[MarketMetrics]) -> str:
    """One row per market: its id, kind and a cell per metric column."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "kind"] + METRIC_COLUMNS)
    for m in markets:
        writer.writerow([m.id, m.kind] + [m.cell(c) for c in METRIC_COLUMNS])
    return buf.getvalue()


def compute_market_metrics(
    full: PriceSeries,
    windowed: PriceSeries | None,
    ctm_table,
    max_block: int = 4,
    bdm_d: int = 4,
    bdm_overlap: int | None = None,
    hw_L: int = 2,
) -> MarketMetrics:
    """Every metric for one market, with per-metric failure isolation.

    `windowed` is the series restricted to the analysis window (None when
    the window left too little data); the full history feeds only the
    full-history roughness column. Each group of columns comes from one
    call: if it raises, every column of the group fails with its reason; a
    NaN or infinite value fails only its own column. The return histogram
    of the window is one more group, with no column: it is kept as
    `histogram`, or fails under the key `histogram`.
    """
    from . import encode, entropy, fractal, lzw, returns
    from .bdm import bdm as bdm_fn

    m = MarketMetrics(id=full.id, kind=full.kind)
    groups = [
        (("n_points",), lambda: (len(full),)),
        (("hall_wood_full",), lambda: (fractal.hall_wood(full, hw_L).value,)),
    ]
    if windowed is not None:
        moves = encode.binarize(windowed)
        log_returns = returns.log_returns(windowed)
        stats = None

        def moments():
            nonlocal stats
            stats = returns.moments(log_returns)
            return stats.mean, stats.std_dev, stats.kurtosis, stats.skewness

        def histogram():
            # with no moments, `build_histogram` fails for their reason
            m.histogram = returns.build_histogram(log_returns, stats)
            return ()

        def blockent():
            r = entropy.block_entropy(moves, max_block=max_block)
            return r.bits, r.normalized

        def bdm_metrics():
            r = bdm_fn(moves, ctm_table, d=bdm_d, overlap=bdm_overlap)
            return r.k_estimate, r.normalized, r.deficiency, r.blocks_missing_from_table

        groups += [
            (("n_window",), lambda: (len(windowed),)),
            (("mean_log_return", "std_log_return", "kurtosis", "skewness"), moments),
            (("histogram",), histogram),
            (("block_entropy_bits", "block_entropy_normalized"), blockent),
            (
                ("compressibility_binary",),
                lambda: (lzw.compressibility(moves.encode("ascii")),),
            ),
            (
                ("compressibility_real",),
                lambda: (lzw.compressibility(encode.serialize_prices(windowed)),),
            ),
            (("bdm_bits", "bdm_normalized", "bdm_deficiency", "bdm_blocks_missing"), bdm_metrics),
            (("hall_wood_window",), lambda: (fractal.hall_wood(windowed, hw_L).value,)),
        ]

    for columns, fn in groups:
        try:
            values = fn()
        except Exception as exc:  # noqa: BLE001 - failure isolation by design
            m.failures.update(dict.fromkeys(columns, str(exc)))
            continue
        for name, v in zip(columns, values):
            v = float(v)
            if math.isfinite(v):
                m.values[name] = v
            else:
                m.failures[name] = f"non-finite value {v!r}"
    for col in METRIC_COLUMNS:
        if col not in m.values and col not in m.failures:
            m.failures[col] = "empty window"
    return m


def pearson_correlation(a, b) -> float:
    """Standard product-moment coefficient in [-1, 1]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("need at least 2 samples")
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt(np.sum(da**2) * np.sum(db**2))
    if denom == 0:
        raise DegenerateSeriesError("zero variance in at least one input")
    return float(np.clip(np.sum(da * db) / denom, -1.0, 1.0))


def correlate_markets(
    src: PriceSeries,
    dst: PriceSeries,
    src_anchors: tuple[float, float],
    dst_anchors: tuple[float, float],
    movements: bool = False,
) -> float:
    """Correlation of two markets after peak-anchored alignment.

    With `movements`, the step signs (-1, 0, +1) of each paired price list
    are correlated instead of the prices: a flat step, which in an aligned
    pair also comes from one destination point paired twice, is 0, not a
    non-rise as in `encode.binarize`.
    """
    pair = align(src.sampled(), dst.sampled(), src_anchors, dst_anchors)
    if movements:
        a = np.sign(np.diff(pair.source_prices))
        b = np.sign(np.diff(pair.dest_prices))
    else:
        a, b = pair.source_prices, pair.dest_prices
    return pearson_correlation(a, b)


def group_markets(
    markets: list[MarketMetrics], features: list[str], k: int
) -> list[list[str]]:
    """Partition markets into k groups (fewer where merge heights tie) by
    complete-linkage clustering of z-scored feature vectors, taken in id
    order so that the result does not depend on the input order."""
    if k < 1:
        raise ValueError("k must be at least 1")
    markets = sorted(markets, key=lambda m: m.id)
    if k > len(markets):
        raise ValueError(f"k={k} exceeds market count {len(markets)}")
    rows = []
    for m in markets:
        missing = [f for f in features if f not in m.values]
        if missing:
            raise MarketComplexityError(
                f"market {m.id!r} is missing features {missing}"
            )
        rows.append([m.values[f] for f in features])
    x = np.asarray(rows, dtype=float)
    # before z-scoring, which would warn about an infinite feature
    if k < len(x) and not np.isfinite(x).all():
        raise ValueError("feature distances must be finite")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0] = 1.0
    labels = _complete_linkage_cut((x - mean) / std, k)
    groups: dict[int, list[str]] = {}
    for m, lab in zip(markets, labels):
        groups.setdefault(int(lab), []).append(m.id)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def _complete_linkage_cut(z: np.ndarray, k: int) -> np.ndarray:
    """Cluster labels of the rows of `z`, partitioned as scipy's
    `fcluster(linkage(z, "complete"), k, "maxclust")` partitions them.

    scipy's nearest-neighbour chain (Müllner, arXiv:1109.2378): the last
    cluster steps to its nearest one, the lowest index among equals, unless
    the previous element is as near; then both merge into the larger index
    with the larger of their distances. The cut applies every merge at or
    below the (n-k)-th smallest height. Distances sum the features in
    `pdist`'s order, so ties fall the same way. Non-finite distances raise
    ValueError, unless k == n and nothing merges.
    """
    n = len(z)
    d = np.zeros((n, n))
    for col in z.T:
        d += (col[:, None] - col) ** 2
    d = np.sqrt(d)
    if k < n and not np.isfinite(d).all():
        raise ValueError("feature distances must be finite")
    active = np.ones(n, dtype=bool)
    merges, chain = [], []
    for _ in range(n - 1):
        chain = chain or [int(active.argmax())]
        while True:
            row = np.where(active, d[chain[-1]], np.inf)
            row[chain[-1]] = np.inf
            if len(chain) > 1 and row[chain[-2]] == row.min():
                break
            chain.append(int(row.argmin()))
        x, y = sorted(chain[-2:])
        del chain[-2:]
        merges.append((d[x, y], x, y))
        active[x] = False
        d[y] = d[:, y] = np.maximum(d[x], d[y])
    cut = max(sorted(h for h, _, _ in merges)[: n - k], default=-np.inf)
    labels = np.arange(n)
    for h, x, y in merges:
        if h <= cut:
            labels[labels == labels[x]] = labels[y]
    return labels
