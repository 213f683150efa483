"""Price-history parsing and calendar-to-absolute-time conversion.

The absolute-time scale counts seconds since 1900-01-01T00:00 UTC on the
proleptic Gregorian calendar, with no leap seconds and 86400 s per day.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timezone

import numpy as np

from .errors import CsvParseError, SeriesTooShortError

EPOCH = datetime(1900, 1, 1, tzinfo=timezone.utc)

KINDS = ("cryptocurrency", "precious metal", "foreign exchange", "stock index")

_DMY_RE = re.compile(r"^(\d{2})/(\d{2})/(\d{4})$")


def to_absolute_time(d: datetime | date) -> float:
    """Seconds since the 1900-01-01 UTC epoch for a calendar date-time."""
    if not isinstance(d, datetime):
        d = datetime(d.year, d.month, d.day, tzinfo=timezone.utc)
    elif d.tzinfo is None:
        d = d.replace(tzinfo=timezone.utc)
    seconds = (d - EPOCH).total_seconds()
    if seconds < 0:
        raise ValueError(f"date {d.isoformat()} precedes the 1900-01-01 epoch")
    return seconds


def parse_date(text: str) -> datetime:
    """Accepts ISO-8601 (YYYY-MM-DD, optional time) or DD/MM/YYYY. Nothing else."""
    text = text.strip()
    m = _DMY_RE.match(text)
    if m:
        day, month, year = int(m.group(1)), int(m.group(2)), int(m.group(3))
        try:
            return datetime(year, month, day, tzinfo=timezone.utc)
        except ValueError as exc:
            raise ValueError(f"invalid DD/MM/YYYY date {text!r}: {exc}") from None
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(
            f"unrecognized date {text!r} (expected ISO-8601 or DD/MM/YYYY)"
        ) from None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.astimezone(timezone.utc)


@dataclass(frozen=True)
class PricePoint:
    timestamp: datetime
    price: float

    def __post_init__(self):
        if not self.price > 0:
            raise ValueError(f"price must be positive, got {self.price}")


@dataclass(frozen=True)
class PriceSeries:
    """A named, time-ordered close-price history for one market."""

    id: str
    kind: str
    points: tuple[PricePoint, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown product kind {self.kind!r}, expected one of {KINDS}")
        if len(self.points) < 2:
            raise SeriesTooShortError(
                f"series {self.id!r} has {len(self.points)} points, need at least 2"
            )
        for a, b in zip(self.points, self.points[1:]):
            if a.timestamp >= b.timestamp:
                raise ValueError(
                    f"series {self.id!r}: timestamps not strictly increasing "
                    f"at {b.timestamp.isoformat()}"
                )

    def __len__(self) -> int:
        return len(self.points)

    def prices(self) -> np.ndarray:
        return np.array([p.price for p in self.points], dtype=float)

    def abs_times(self) -> np.ndarray:
        return np.array([to_absolute_time(p.timestamp) for p in self.points])

    def sampled(self) -> "SampledSeries":
        return SampledSeries(self.id, self.abs_times(), self.prices())


@dataclass(frozen=True)
class SampledSeries:
    """A series on the numeric absolute-time axis (used once calendar dates
    have been mapped; times need not correspond to real dates anymore)."""

    id: str
    times: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.prices):
            raise ValueError("times and prices length mismatch")
        if len(self.times) >= 2 and not np.all(np.diff(self.times) > 0):
            raise ValueError(f"series {self.id!r}: times not strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


def format_price(value: float) -> str:
    """Shortest decimal that round-trips; integral values drop the fraction."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def parse_csv(data: bytes | str, id: str, kind: str) -> PriceSeries:
    """Parse `date,price` lines into a validated PriceSeries.

    A single header line is tolerated. Duplicate calendar days are rejected
    rather than averaged.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CsvParseError(f"input is not UTF-8: {exc}")
    points = []
    seen_days: set[date] = set()
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise CsvParseError(f"expected 2 columns, got {len(parts)}", line=lineno)
        if lineno == 1 and not _looks_like_record(parts):
            continue  # header
        try:
            ts = parse_date(parts[0])
        except ValueError as exc:
            raise CsvParseError(str(exc), line=lineno)
        try:
            price = float(parts[1])
        except ValueError:
            raise CsvParseError(f"invalid price {parts[1]!r}", line=lineno)
        if not 0 < price < math.inf:
            raise CsvParseError(f"price {parts[1]!r} is not positive and finite", line=lineno)
        day = ts.date()
        if day in seen_days:
            raise CsvParseError(f"duplicate date {day.isoformat()}", line=lineno)
        seen_days.add(day)
        points.append(PricePoint(ts, price))
    if len(points) < 2:
        raise SeriesTooShortError(
            f"series {id!r}: parsed {len(points)} points, need at least 2"
        )
    points.sort(key=lambda p: p.timestamp)
    return PriceSeries(id=id, kind=kind, points=tuple(points))


def _looks_like_record(parts: list[str]) -> bool:
    try:
        parse_date(parts[0])
        float(parts[1])
        return True
    except ValueError:
        return False


def serialize_csv(series: PriceSeries) -> str:
    """Canonical serialization: ISO-8601 dates, full-precision prices."""
    lines = []
    for p in series.points:
        ts = p.timestamp
        if (ts.hour, ts.minute, ts.second, ts.microsecond) == (0, 0, 0, 0):
            stamp = ts.date().isoformat()
        else:
            stamp = ts.replace(tzinfo=None).isoformat()
        lines.append(f"{stamp},{format_price(p.price)}")
    return "\n".join(lines) + "\n"
