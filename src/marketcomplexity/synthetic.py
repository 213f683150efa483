"""Synthetic series generators: random walks, fractional Brownian motion,
and a 12-market fixture mimicking the product families under study.

These exist for calibration and testing; none of the production measures
depend on them.
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np

from .ingest import DAY_US, PriceSeries, epoch_us


def random_walk(n: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetric random walk of n+1 positions starting at 0, with standard
    normal steps (a discretized Brownian path, true roughness dimension 1.5).

    Gaussian rather than +-1 steps: a lattice walk has deterministic
    unit increments at the finest scale, which degenerates the two-scale
    roughness estimator; the Gaussian walk is the calibration target."""
    steps = rng.standard_normal(n)
    return np.concatenate(([0.0], np.cumsum(steps)))


def fbm(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Fractional Brownian motion path of n+1 positions via circulant
    embedding of the fractional Gaussian noise covariance."""
    if not 0 < hurst < 1:
        raise ValueError("hurst must lie in (0, 1)")
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * (
        np.abs(k + 1) ** (2 * hurst)
        - 2 * np.abs(k) ** (2 * hurst)
        + np.abs(k - 1) ** (2 * hurst)
    )
    circ = np.concatenate([gamma, gamma[-2:0:-1]])
    eigs = np.fft.fft(circ).real
    eigs[eigs < 0] = 0.0  # round-off guard; true eigenvalues are nonnegative
    m = len(circ)
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    noise = np.fft.fft(np.sqrt(eigs / (2 * m)) * z)[:n].real * np.sqrt(2)
    return np.concatenate(([0.0], np.cumsum(noise)))


def path_to_series(path: np.ndarray, id: str, kind: str, scale: float = 0.05) -> PriceSeries:
    """Wrap a real-valued path as a positive daily-close price series from
    2012-07-13 via exponentiation of the standardized path."""
    spread = np.std(path)
    if spread == 0:
        spread = 1.0
    prices = 100.0 * np.exp(scale * path / spread)
    start = epoch_us(datetime(2012, 7, 13, tzinfo=timezone.utc))
    times = start + DAY_US * np.arange(len(prices), dtype=np.int64)
    return PriceSeries(id=id, kind=kind, times=times, prices=prices)


# (id, kind, generator): FX-like markets are smooth (high-Hurst) paths,
# everything else is walk-like, mirroring the roughness split observed
# across real product families.
_FIXTURE_SPEC = [
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


def market_fixture(n: int = 1500, seed: int = 20140717) -> list[PriceSeries]:
    """Twelve synthetic markets: two cryptocurrencies, two precious metals,
    three foreign exchanges, five stock indices."""
    rng = np.random.default_rng(seed)
    out = []
    for id, kind, hurst in _FIXTURE_SPEC:
        if hurst == 0.5:
            path = random_walk(n, rng)
            scale = 0.08
        else:
            path = fbm(n, hurst, rng)
            scale = 0.01
        out.append(path_to_series(path, id, kind, scale=scale))
    return out
