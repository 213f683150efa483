from datetime import datetime, timezone

import numpy as np
import pytest

from marketcomplexity.bdm import ctm_from_frequency, enumerate_machines
from marketcomplexity.ingest import DAY_US, PriceSeries, epoch_us

START = datetime(2013, 1, 1, tzinfo=timezone.utc)

# the line ends of every text input, and the other characters
# `str.splitlines` breaks at, which stay inside their line
LINE_ENDS = ["\n", "\r\n", "\r"]
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def daily_series(prices, id="TEST", kind="stock index", start=START):
    times = epoch_us(start) + DAY_US * np.arange(len(prices))
    return PriceSeries(id=id, kind=kind, times=times, prices=prices)


def edge_floats(seed: int, n: int = 300) -> np.ndarray:
    """Positive floats that stress a decimal formatter, in random order:
    random magnitudes, integral values, neighbours of 1e16 and 2**53, and
    subnormals."""
    rng = np.random.default_rng(seed)
    edges = [1e16, 2.0**53, 1e-310, 5e-324, 2.2250738585072014e-308, 0.5, 1.0]
    edges += [np.nextafter(v, d) for v in (1e16, 2.0**53) for d in (0, np.inf)]
    return rng.permutation(np.concatenate([
        rng.lognormal(0, 20, n),
        np.ceil(rng.lognormal(0, 20, n)),
        rng.integers(1, 10**6, n).astype(float),
        edges,
    ]))


@pytest.fixture(scope="session")
def dist2():
    return enumerate_machines(2)


@pytest.fixture(scope="session")
def table2(dist2):
    return ctm_from_frequency(dist2, d_max=7)


@pytest.fixture(scope="session")
def dist3():
    return enumerate_machines(3)


@pytest.fixture(scope="session")
def table3(dist3):
    return ctm_from_frequency(dist3, d_max=8)
