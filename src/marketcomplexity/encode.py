"""Discretization of price series into symbol streams.

The binary movement encoding maps each consecutive price change to 1
(increase) or 0 (non-increase); a flat day counts as 0 unless strict mode
is requested, which rejects ties instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError
from .ingest import PriceSeries, format_price


@dataclass(frozen=True)
class BinaryMovementSeries:
    """Movements as ASCII text, one '0' or '1' per price change."""

    text: str
    source_id: str

    def __post_init__(self):
        if self.text.strip("01"):
            raise ValueError("movement text may contain only '0' and '1'")

    def __len__(self) -> int:
        return len(self.text)

    def to_ascii(self) -> str:
        return self.text


def binarize(s: PriceSeries, strict: bool = False) -> BinaryMovementSeries:
    """Up/down encoding of consecutive price changes; one bit per change."""
    diffs = np.diff(s.prices)
    if strict and np.any(diffs == 0):
        raise DegenerateSeriesError(
            f"series {s.id!r} has a zero price change (strict mode)"
        )
    ups = (diffs > 0).astype(np.uint8) + ord("0")
    return BinaryMovementSeries(ups.tobytes().decode("ascii"), s.id)


def serialize_prices(s: PriceSeries) -> bytes:
    """Canonical comma-joined decimal text of the prices, for feeding the
    real-value path of a generic lossless compressor."""
    return ",".join(map(format_price, s.prices.tolist())).encode("ascii")
