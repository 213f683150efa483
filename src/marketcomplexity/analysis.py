"""Cross-market correlation, the consolidated metric report, and
distance-based market grouping."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage

from .align import align
from .errors import DegenerateSeriesError, MarketComplexityError
from .ingest import PriceSeries

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

    def cell(self, metric: str) -> str:
        if metric in self.values:
            v = float(self.values[metric])
            if not math.isfinite(v):
                return f"FAILED: non-finite value {v!r}"
            return str(int(v)) if v == int(v) else repr(v)
        if metric in self.failures:
            return f"FAILED: {self.failures[metric]}"
        return "FAILED: not computed"


@dataclass
class MetricReport:
    markets: list[MarketMetrics]

    def to_csv(self) -> str:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "kind"] + METRIC_COLUMNS)
        for m in self.markets:
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
    full-history roughness column.
    """
    from . import encode, entropy, fractal, lzw, returns
    from .bdm import bdm as bdm_fn

    m = MarketMetrics(id=full.id, kind=full.kind)
    m.values["n_points"] = len(full)

    def attempt(name, fn):
        try:
            m.values[name] = float(fn())
        except Exception as exc:  # noqa: BLE001 - failure isolation by design
            m.failures[name] = str(exc)

    def hw(series):
        def run():
            grid = fractal.to_unit_grid(series)
            if hw_L == 2:
                return fractal.hall_wood_dimension(grid).value
            return fractal.hall_wood_ols(grid, hw_L)

        return run

    attempt("hall_wood_full", hw(full))
    if windowed is None:
        for col in METRIC_COLUMNS:
            if col not in m.values and col not in m.failures:
                m.failures[col] = "empty window"
        return _fail_non_finite(m)
    m.values["n_window"] = len(windowed)

    try:
        st = returns.moments(returns.log_returns(windowed))
        m.values["mean_log_return"] = st.mean
        m.values["std_log_return"] = st.std_dev
        m.values["kurtosis"] = st.kurtosis
        m.values["skewness"] = st.skewness
    except Exception as exc:  # noqa: BLE001
        for col in ("mean_log_return", "std_log_return", "kurtosis", "skewness"):
            m.failures[col] = str(exc)

    moves = encode.binarize(windowed)

    def blockent():
        r = entropy.block_entropy(moves.to_ascii(), max_block=max_block)
        m.values["block_entropy_bits"] = r.bits
        return r.normalized

    attempt("block_entropy_normalized", blockent)
    attempt(
        "compressibility_binary",
        lambda: lzw.compressibility(moves.to_ascii().encode("ascii")),
    )
    attempt(
        "compressibility_real",
        lambda: lzw.compressibility(encode.serialize_prices(windowed)),
    )

    def bdm_metrics():
        r = bdm_fn(moves, ctm_table, d=bdm_d, overlap=bdm_overlap)
        m.values["bdm_bits"] = r.k_estimate
        m.values["bdm_deficiency"] = r.deficiency
        m.values["bdm_blocks_missing"] = r.blocks_missing_from_table
        return r.normalized

    attempt("bdm_normalized", bdm_metrics)
    attempt("hall_wood_window", hw(windowed))
    if "block_entropy_normalized" in m.failures:
        m.failures.setdefault("block_entropy_bits", m.failures["block_entropy_normalized"])
    if "bdm_normalized" in m.failures:
        for col in ("bdm_bits", "bdm_deficiency", "bdm_blocks_missing"):
            m.failures.setdefault(col, m.failures["bdm_normalized"])
    return _fail_non_finite(m)


def _fail_non_finite(m: MarketMetrics) -> MarketMetrics:
    """Turn every NaN or infinite value into a failure with its reason."""
    for name, v in list(m.values.items()):
        if not math.isfinite(v):
            del m.values[name]
            m.failures[name] = f"non-finite value {float(v)!r}"
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

    With `movements`, the up/down indicator of each paired price list is
    correlated instead of the prices themselves.
    """
    pair = align(src.sampled(), dst.sampled(), src_anchors, dst_anchors)
    if movements:
        a = np.sign(np.diff(pair.source_prices))
        b = np.sign(np.diff(pair.dest_prices))
    else:
        a, b = pair.source_prices, pair.dest_prices
    return pearson_correlation(a, b)


def group_markets(
    report: MetricReport, features: list[str], k: int
) -> list[list[str]]:
    """Partition markets into k groups by complete-linkage agglomerative
    clustering of z-scored feature vectors. Markets are processed in
    lexicographic id order so the result is input-order independent."""
    if k < 1:
        raise ValueError("k must be at least 1")
    markets = sorted(report.markets, key=lambda m: m.id)
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
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0] = 1.0
    z = (x - mean) / std
    if k == len(markets):
        labels = np.arange(len(markets))
    else:
        tree = linkage(z, method="complete", metric="euclidean")
        labels = fcluster(tree, t=k, criterion="maxclust")
    groups: dict[int, list[str]] = {}
    for m, lab in zip(markets, labels):
        groups.setdefault(int(lab), []).append(m.id)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])
