"""Price-history parsing and calendar-to-absolute-time conversion.

The absolute-time scale counts seconds since 1900-01-01T00:00 UTC on the
proleptic Gregorian calendar, with no leap seconds and 86400 s per day.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from itertools import compress

import numpy as np

from .errors import CsvParseError, SeriesTooShortError

EPOCH = datetime(1900, 1, 1, tzinfo=timezone.utc)

KINDS = ("cryptocurrency", "precious metal", "foreign exchange", "stock index")

_DMY_RE = re.compile(r"^(\d{2})/(\d{2})/(\d{4})$")

_US = timedelta(microseconds=1)
DAY_US = 86_400_000_000

# the epoch's day on numpy's calendar
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


def text_lines(data: bytes | str) -> list[str]:
    """The lines of a text input: bytes are UTF-8 after at most one
    byte-order mark, a line ends at `\\n`, `\\r\\n` or a lone `\\r` only, and
    a final line end adds no empty line. Raises UnicodeDecodeError."""
    if isinstance(data, bytes):
        data = data.decode("utf-8-sig")
    if "\r" in data:
        data = data.replace("\r\n", "\n").replace("\r", "\n")
    return data.removesuffix("\n").split("\n") if data else []


def parse_csv(data: bytes | str, id: str, kind: str) -> PriceSeries:
    """Parse `date,price` lines into a validated PriceSeries.

    Line 1 is skipped as a header when neither of its fields parses (as in `date,price`);
    a line 1 with one bad field is an error. Duplicate calendar days are rejected rather
    than averaged, and so are dates before the 1900 epoch. Every file takes one path:
    raw `YYYY-MM-DD,<price>` rows are read over their columns wherever they sit, every
    other line by `_row`, and an error names the first bad line.
    """
    try:
        lines = text_lines(data)
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"input is not UTF-8: {exc}")
    rows, times, prices = _plain_rows(lines)
    error, others = None, []
    for i in np.flatnonzero(~rows).tolist():
        try:
            if (row := _row(i + 1, lines[i])) is not None:
                others.append((i, *row))
        except CsvParseError as exc:
            error, rows[i:] = exc, False  # reading in order stops here
            break
    if others:
        at, us, price = map(np.array, zip(*others))
        rows[at], times[at], prices[at] = True, us, price
    times, prices = times[rows], prices[rows]
    days = times // DAY_US
    if (np.diff(days) <= 0).any():  # else the rows are in order, with no day twice
        order = np.argsort(days, kind="stable")
        repeats = order[1:][np.diff(days[order]) == 0]  # each but the first of its day
        if len(repeats):
            first = repeats.min()
            day = from_epoch_us(times[first]).date()
            raise CsvParseError(f"duplicate date {day}", line=int(np.flatnonzero(rows)[first]) + 1)
        times, prices = times[order], prices[order]
    if error is not None:
        raise error
    if len(times) < 2:
        raise SeriesTooShortError(f"series {id!r}: parsed {len(times)} points, need at least 2")
    return PriceSeries(id, kind, times, prices)


def _plain_rows(lines: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A mask of the raw `YYYY-MM-DD,<price>` lines on or after the epoch with a price
    in (0, inf) by `float`, and times and prices columns over all lines, set there."""
    times, prices = np.zeros(len(lines), np.int64), np.zeros(len(lines))
    # a byte a character, line i starts after the i-th "\n", and a line shorter
    # than a head reads a "\n" or a " " past its end, which no head column accepts
    chars = np.frombuffer(("\n".join(["", *lines]) + " " * 11).encode("ascii", "replace"), "u1")
    heads = np.lib.stride_tricks.sliding_window_view(chars, 11)[np.flatnonzero(chars == 10) + 1]
    digits = heads[:, [0, 1, 2, 3, 5, 6, 8, 9]] - ord("0")  # uint8: below "0" wraps past 9
    plain = (heads[:, [4, 7, 10]] == list(b"--,")).all(1) & (digits <= 9).all(1)
    if not plain.any():
        return plain, times, prices
    century, year, month, day = (10 * digits[:, ::2] + digits[:, 1::2]).astype(np.int64).T
    months = ((100 * century + year - 1970) * 12 + month - 1).astype("datetime64[M]")
    # a day past its month's end lands in a later month, day 0 in an earlier one
    dates = months.astype("datetime64[D]") + (day - 1)
    days = (dates - _EPOCH_DAY).astype(np.int64)
    plain &= (month >= 1) & (month <= 12) & (dates.astype("datetime64[M]") == months) & (days >= 0)
    texts = [line[11:] for line in compress(lines, plain.tolist())]
    try:
        closes = np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:  # a bad price, which `_row` names
        closes = np.array([float(t) if _parses(float, t) else math.nan for t in texts])
    plain[plain] = valid = (closes > 0) & (closes < math.inf)
    times[plain], prices[plain] = days[plain] * DAY_US, closes[valid]
    return plain, times, prices


def _row(lineno: int, raw: str) -> tuple[int, float] | None:
    """Time and price of line `lineno`; None for a blank, `#` or line-1 header line."""
    line = raw.strip()
    if not line or line.startswith("#"):
        return None
    parts = line.split(",")
    if len(parts) != 2:
        raise CsvParseError(f"expected 2 columns, got {len(parts)}", line=lineno)
    stamp, close = parts[0].strip(), parts[1].strip()
    if lineno == 1 and not (_parses(parse_date, stamp) or _parses(float, close)):
        return None  # a header: neither field parses
    try:
        ts = parse_date(stamp)
    except ValueError as exc:
        raise CsvParseError(str(exc), line=lineno)
    try:
        price = float(close)
    except ValueError:
        raise CsvParseError(f"invalid price {close!r}", line=lineno)
    if not 0 < price < math.inf:
        raise CsvParseError(f"price {close!r} is not positive and finite", line=lineno)
    us = epoch_us(ts)
    if us < 0:
        raise CsvParseError(f"date {ts.isoformat()} precedes the 1900-01-01 epoch", line=lineno)
    return us, price


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
