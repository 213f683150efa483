"""Discretization of price series into symbol streams.

The binary movement encoding maps each consecutive price change to 1
(increase) or 0 (non-increase, so a flat day counts as 0) and returns the
movements as `0`/`1` text, the input of the entropy, LZW and BDM measures.
"""

from __future__ import annotations

import numpy as np

from .ingest import PriceSeries, format_number


def binarize(s: PriceSeries) -> str:
    """Up/down encoding of consecutive price changes; one character per change."""
    ups = (np.diff(s.prices) > 0).astype(np.uint8) + ord("0")
    return ups.tobytes().decode("ascii")


def serialize_prices(s: PriceSeries) -> bytes:
    """Canonical comma-joined decimal text of the prices, for feeding the
    real-value path of a generic lossless compressor."""
    return ",".join(map(format_number, s.prices.tolist())).encode("ascii")
