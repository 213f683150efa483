from datetime import datetime, timezone

import numpy as np
import pytest

from marketcomplexity.bdm import ctm_from_frequency, enumerate_machines
from marketcomplexity.ingest import DAY_US, PriceSeries, epoch_us

START = datetime(2013, 1, 1, tzinfo=timezone.utc)


def daily_series(prices, id="TEST", kind="stock index", start=START):
    times = epoch_us(start) + DAY_US * np.arange(len(prices))
    return PriceSeries(id=id, kind=kind, times=times, prices=prices)


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
