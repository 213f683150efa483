"""Seeded inputs for the benchmark workloads.

The generator is the benchmark's own, so a change to the package cannot
change what the benchmark feeds it. It follows the package's 12-market
fixture: random walks for cryptocurrencies, precious metals and stock
indices, smooth fractional Brownian paths (H = 0.85) for foreign exchange,
each exponentiated into a positive daily-close series.
"""

from __future__ import annotations

from datetime import date, timedelta
from pathlib import Path

import numpy as np

# (id, kind, hurst); 0.5 means a Gaussian random walk
FIXTURE_SPEC = [
    ("COIN-A", "cryptocurrency", 0.5),
    ("COIN-B", "cryptocurrency", 0.5),
    ("METAL-A", "precious metal", 0.5),
    ("METAL-B", "precious metal", 0.5),
    ("FX-A", "foreign exchange", 0.85),
    ("FX-B", "foreign exchange", 0.85),
    ("FX-C", "foreign exchange", 0.85),
    ("INDEX-A", "stock index", 0.5),
    ("INDEX-B", "stock index", 0.5),
    ("INDEX-C", "stock index", 0.5),
    ("INDEX-D", "stock index", 0.5),
    ("INDEX-E", "stock index", 0.5),
]


def _fbm(steps: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Fractional Brownian path of steps+1 positions by circulant embedding."""
    k = np.arange(steps + 1, dtype=float)
    gamma = 0.5 * (
        np.abs(k + 1) ** (2 * hurst)
        - 2 * np.abs(k) ** (2 * hurst)
        + np.abs(k - 1) ** (2 * hurst)
    )
    circ = np.concatenate([gamma, gamma[-2:0:-1]])
    eigs = np.fft.fft(circ).real
    eigs[eigs < 0] = 0.0
    m = len(circ)
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    noise = np.fft.fft(np.sqrt(eigs / (2 * m)) * z)[:steps].real * np.sqrt(2)
    return np.concatenate(([0.0], np.cumsum(noise)))


def closes(points: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """`points` positive closes: 100 * exp(scale * path / std(path))."""
    if hurst == 0.5:
        path = np.concatenate(([0.0], np.cumsum(rng.standard_normal(points - 1))))
        scale = 0.08
    else:
        path = _fbm(points - 1, hurst, rng)
        scale = 0.01
    return 100.0 * np.exp(scale * path / np.std(path))


def csv_text(prices: np.ndarray, start: date) -> str:
    """`date,price` lines with ISO dates, one per calendar day from `start`."""
    lines = [f"{(start + timedelta(days=i)).isoformat()},{float(p)!r}" for i, p in enumerate(prices)]
    return "\n".join(lines) + "\n"


def write_report_inputs(
    workdir: Path,
    seed: int,
    markets: int,
    points: int,
    start: date,
    pairs: int,
) -> tuple[dict, list[str], list[tuple[str, str]]]:
    """Write one CSV for each of the first `markets` fixture markets, and
    `run.cfg`, under `workdir`.

    The config names inputs by paths relative to `workdir`, so its bytes,
    and with them the `config=<hash>` header of every output, do not depend
    on where the checkout lives. Returns the input sizes, the market ids
    and the pairs.
    """
    rng = np.random.default_rng(seed)
    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    cfg = []
    ids = []
    total_bytes = 0
    for id, kind, hurst in FIXTURE_SPEC[:markets]:
        text = csv_text(closes(points, hurst, rng), start)
        data = text.encode("ascii")
        (workdir / "inputs" / f"{id}.csv").write_bytes(data)
        total_bytes += len(data)
        cfg.append(f"market = {id}, {kind}, inputs/{id}.csv")
        ids.append(id)
    pair_ids = [(ids[2 * p], ids[2 * p + 1]) for p in range(pairs)]
    cfg.extend(f"pair = {a}, {b}" for a, b in pair_ids)
    cfg.append("output.dir = out")
    (workdir / "run.cfg").write_text("\n".join(cfg) + "\n", encoding="utf-8")
    sizes = {"markets": markets, "points": markets * points, "bytes": total_bytes}
    return sizes, ids, pair_ids
