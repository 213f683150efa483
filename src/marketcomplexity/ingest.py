"""Price-history parsing and calendar-to-absolute-time conversion.

The absolute-time scale counts seconds since 1900-01-01T00:00 UTC on the
proleptic Gregorian calendar, with no leap seconds and 86400 s per day.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone

import numpy as np

from .errors import CsvParseError, SeriesTooShortError

EPOCH = datetime(1900, 1, 1, tzinfo=timezone.utc)

KINDS = ("cryptocurrency", "precious metal", "foreign exchange", "stock index")

_DMY_RE = re.compile(r"^(\d{2})/(\d{2})/(\d{4})$")

_US = timedelta(microseconds=1)
DAY_US = 86_400_000_000

# the bulk pass: where a raw `YYYY-MM-DD,` head has its separators and its
# digits, and the epoch's day on numpy's calendar
_SEPARATORS = np.frombuffer(b"--,", dtype=np.uint8)
_DIGIT_COLUMNS = [0, 1, 2, 3, 5, 6, 8, 9]
_EPOCH_DAY = np.datetime64("1900-01-01", "D")


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


def epoch_us(d: datetime) -> int:
    """Whole microseconds from the epoch to an aware date-time; negative
    before the epoch."""
    return (d - EPOCH) // _US


def from_epoch_us(us: int) -> datetime:
    return EPOCH + timedelta(microseconds=int(us))


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
        return parsed.replace(tzinfo=timezone.utc)
    try:
        return parsed.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"date {text!r} falls outside years 1-9999 in UTC") from None


@dataclass(frozen=True)
class PricePoint:
    timestamp: datetime
    price: float


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """A named, time-ordered close-price history for one market, held as
    two read-only columns: `times` in whole microseconds since the 1900-01-01
    UTC epoch (int64) and `prices` (float64)."""

    id: str
    kind: str
    times: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown product kind {self.kind!r}, expected one of {KINDS}")
        times = np.array(self.times, dtype=np.int64)
        prices = np.array(self.prices, dtype=np.float64)
        if times.shape != prices.shape or times.ndim != 1:
            raise ValueError(f"series {self.id!r}: times and prices length mismatch")
        if len(times) < 2:
            raise SeriesTooShortError(
                f"series {self.id!r} has {len(times)} points, need at least 2"
            )
        if not (prices > 0).all():
            raise ValueError(f"price must be positive, got {prices[~(prices > 0)][0]}")
        if not (prices < np.inf).all():
            raise ValueError(f"series {self.id!r}: price must be finite, got inf")
        steps = np.flatnonzero(np.diff(times) <= 0)
        if len(steps):
            raise ValueError(
                f"series {self.id!r}: timestamps not strictly increasing "
                f"at {from_epoch_us(times[steps[0] + 1]).isoformat()}"
            )
        times.flags.writeable = prices.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "prices", prices)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def points(self) -> tuple[PricePoint, ...]:
        """Per-point (datetime, price) view, built on each access."""
        return tuple(
            PricePoint(from_epoch_us(t), p)
            for t, p in zip(self.times.tolist(), self.prices.tolist())
        )

    def abs_times(self) -> np.ndarray:
        """Seconds since the epoch: the float nearest each times / 10**6."""
        # below 2**53 the cast to float64 is exact and one division rounds
        # once; above it, whole seconds are exact and adding the fraction
        # cannot round differently from the exact quotient
        whole, us = np.divmod(self.times, 1_000_000)
        return np.where(self.times < 2**53, self.times / 1e6, whole + us / 1e6)

    def sampled(self) -> "SampledSeries":
        return SampledSeries(self.id, self.abs_times(), self.prices)

    def window(self, start: datetime | None, end: datetime | None) -> "PriceSeries | None":
        """The points with start <= time <= end (an open end when None), or
        None when fewer than 2 remain."""
        lo = 0 if start is None else np.searchsorted(self.times, epoch_us(start))
        hi = len(self) if end is None else np.searchsorted(self.times, epoch_us(end), "right")
        if hi - lo < 2:
            return None
        return PriceSeries(self.id, self.kind, self.times[lo:hi], self.prices[lo:hi])


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
        # order is what nearest-time matching needs; equal neighbours are
        # allowed, since distinct microsecond times can share a float second
        if len(self.times) >= 2 and not np.all(np.diff(self.times) >= 0):
            raise ValueError(f"series {self.id!r}: times not in increasing order")

    def __len__(self) -> int:
        return len(self.times)


def format_number(v: float) -> str:
    """The shortest decimal that round-trips; integral values below 1e16
    drop the fraction."""
    return str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)


def numeric_csv(header: str, *columns: np.ndarray) -> str:
    """The `header` line, then a line per row of the equal-length `columns`,
    each cell its value's `repr`."""
    rows = zip(*[map(repr, c.tolist()) for c in columns])
    return "\n".join([header, *map(",".join, rows), ""])


def parse_csv(data: bytes | str, id: str, kind: str) -> PriceSeries:
    """Parse `date,price` lines into a validated PriceSeries.

    Line 1 is skipped as a header when neither of its fields parses (as
    in `date,price`); a line 1 with one bad field is an error. Duplicate
    calendar days are rejected rather than averaged, and so are dates
    before the 1900 epoch.

    A file made only of raw `YYYY-MM-DD,<price>` lines, with strictly
    increasing days on or after the epoch and positive finite prices, is
    read in one bulk pass over its columns. Any other file, and every
    error, goes through one strip/split/`parse_date` loop over the lines.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise CsvParseError(f"input is not UTF-8: {exc}")
    lines = data.splitlines()
    columns = _parse_iso_rows(lines)
    if columns is not None:
        return PriceSeries(id, kind, *columns)
    times: list[int] = []
    prices: list[float] = []
    seen_days: set[int] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise CsvParseError(f"expected 2 columns, got {len(parts)}", line=lineno)
        if lineno == 1 and not (_parses(parse_date, parts[0]) or _parses(float, parts[1])):
            continue  # a header: neither field parses
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
        us = epoch_us(ts)
        if us < 0:
            raise CsvParseError(
                f"date {ts.isoformat()} precedes the 1900-01-01 epoch", line=lineno
            )
        day = us // DAY_US
        if day in seen_days:
            raise CsvParseError(f"duplicate date {ts.date().isoformat()}", line=lineno)
        seen_days.add(day)
        times.append(us)
        prices.append(price)
    if len(times) < 2:
        raise SeriesTooShortError(
            f"series {id!r}: parsed {len(times)} points, need at least 2"
        )
    order = np.argsort(times, kind="stable")
    return PriceSeries(id, kind, np.array(times)[order], np.array(prices)[order])


def _parse_iso_rows(lines: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """The times and prices of at least 2 raw `YYYY-MM-DD,<price>` lines
    with strictly increasing days on or after the epoch and prices in
    (0, inf), or None when the lines are anything else. Prices come from
    the same `float` as in the per-line loop."""
    if len(lines) < 2:
        return None
    try:
        heads = "".join([line[:11] for line in lines]).encode("ascii")
    except UnicodeEncodeError:
        return None
    if len(heads) != 11 * len(lines):
        return None
    chars = np.frombuffer(heads, dtype=np.uint8).reshape(-1, 11)
    digits = chars[:, _DIGIT_COLUMNS] - ord("0")  # uint8: a byte below "0" wraps past 9
    if (chars[:, [4, 7, 10]] != _SEPARATORS).any() or (digits > 9).any():
        return None
    try:  # numpy's proleptic Gregorian calendar refuses an impossible month or day
        dates = chars[:, :10].view("S10").ravel().astype("datetime64[D]")
    except ValueError:
        return None
    days = (dates - _EPOCH_DAY).astype(np.int64)
    if days[0] < 0 or not (np.diff(days) > 0).all():
        return None
    try:  # last, so that a file with other heads never pays for it
        prices = np.fromiter(map(float, [line[11:] for line in lines]), np.float64, len(lines))
    except ValueError:
        return None
    if not ((prices > 0) & (prices < math.inf)).all():
        return None
    return days * DAY_US, prices


def _parses(parse, text: str) -> bool:
    try:
        parse(text)
    except ValueError:
        return False
    return True


def serialize_csv(series: PriceSeries) -> str:
    """Canonical serialization: ISO-8601 dates, full-precision prices."""
    lines = []
    for us, price in zip(series.times.tolist(), series.prices.tolist()):
        ts = from_epoch_us(us).replace(tzinfo=None)
        stamp = ts.date().isoformat() if us % DAY_US == 0 else ts.isoformat()
        lines.append(f"{stamp},{format_number(price)}")
    return "\n".join(lines) + "\n"
