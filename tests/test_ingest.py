import math
import re
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from marketcomplexity import ingest
from marketcomplexity.errors import CsvParseError, SeriesTooShortError
from marketcomplexity.ingest import (
    EPOCH,
    PriceSeries,
    epoch_us,
    parse_csv,
    parse_date,
    serialize_csv,
    text_lines,
    to_absolute_time,
)

from conftest import LINE_ENDS, NOT_LINE_ENDS, daily_series, edge_floats


def gregorian_day_count(target: date) -> int:
    """Independent oracle: walk the calendar one day at a time."""
    d = date(1900, 1, 1)
    n = 0
    while d < target:
        d += timedelta(days=1)
        n += 1
    return n


class TestAbsoluteTime:
    def test_epoch_is_zero(self):
        assert to_absolute_time(datetime(1900, 1, 1, tzinfo=timezone.utc)) == 0.0

    def test_one_day(self):
        assert to_absolute_time(datetime(1900, 1, 2, tzinfo=timezone.utc)) == 86400.0

    def test_against_calendar_walk_oracle(self):
        target = date(1980, 1, 22)
        expected = gregorian_day_count(target) * 86400
        assert to_absolute_time(target) == expected

    def test_pre_epoch_rejected(self):
        with pytest.raises(ValueError):
            to_absolute_time(datetime(1899, 12, 31, tzinfo=timezone.utc))

    def test_naive_datetime_treated_as_utc(self):
        assert to_absolute_time(datetime(1900, 1, 2)) == 86400.0

    @given(
        st.integers(min_value=0, max_value=60000),
    )
    def test_day_increment_is_86400(self, days):
        d = EPOCH + timedelta(days=days)
        assert to_absolute_time(d + timedelta(days=1)) - to_absolute_time(d) == 86400

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**6))
    def test_strictly_monotone(self, seconds, gap):
        a = EPOCH + timedelta(seconds=seconds)
        b = a + timedelta(seconds=gap)
        assert to_absolute_time(a) < to_absolute_time(b)


class TestParseDate:
    def test_iso(self):
        assert parse_date("2013-04-09") == datetime(2013, 4, 9, tzinfo=timezone.utc)

    def test_dmy(self):
        assert parse_date("09/04/2013") == datetime(2013, 4, 9, tzinfo=timezone.utc)

    def test_iso_datetime(self):
        got = parse_date("2013-04-09T12:30:00")
        assert got == datetime(2013, 4, 9, 12, 30, tzinfo=timezone.utc)

    def test_z_suffix_is_utc(self):
        # `datetime.fromisoformat` reads "Z" from Python 3.11 on
        assert parse_date("2013-01-01T00:00Z") == parse_date("2013-01-01T00:00+00:00")

    @pytest.mark.parametrize("bad", ["04-09-2013", "2013/04/09", "9/4/2013", "hello"])
    def test_other_formats_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_date(bad)

    @pytest.mark.parametrize("text", ["9999-12-31T23:00:00-05:00", "0001-01-01T00:00+05:00"])
    def test_offset_past_year_range_is_value_error(self, text):
        with pytest.raises(ValueError, match="outside years 1-9999"):
            parse_date(text)


class TestParseCsv:
    def test_two_points(self):
        s = parse_csv(b"2013-04-09,213.72\n2013-11-29,1132.26", "BTC", "cryptocurrency")
        assert len(s) == 2
        assert [p.price for p in s.points] == [213.72, 1132.26]

    def test_empty_input_errors(self):
        with pytest.raises(SeriesTooShortError):
            parse_csv(b"", "X", "stock index")

    def test_negative_price_errors(self):
        with pytest.raises(CsvParseError, match="line 1"):
            parse_csv(b"2013-04-09,-5", "X", "stock index")

    def test_zero_price_errors(self):
        with pytest.raises(CsvParseError):
            parse_csv(b"2013-04-09,0\n2013-04-10,1", "X", "stock index")

    @pytest.mark.parametrize("price", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_price_errors(self, price):
        data = f"2013-04-09,1\n2013-04-10,2\n2013-04-11,{price}\n"
        with pytest.raises(CsvParseError, match="line 3"):
            parse_csv(data, "X", "stock index")

    def test_pre_epoch_date_rejected(self):
        data = b"1900-01-01,1\n1899-12-31T23:59:59.999999,2\n"
        with pytest.raises(CsvParseError, match="line 2: .*precedes the 1900-01-01 epoch"):
            parse_csv(data, "X", "stock index")

    def test_duplicate_day_after_utc_conversion_rejected(self):
        data = b"2013-04-09T23:00:00,1\n2013-04-10T01:00:00+02:00,2\n"
        with pytest.raises(CsvParseError, match="line 2: duplicate date 2013-04-09"):
            parse_csv(data, "X", "stock index")

    def test_duplicate_date_rejected(self):
        with pytest.raises(CsvParseError, match="duplicate"):
            parse_csv(b"2013-04-09,1\n2013-04-09,2", "X", "stock index")

    def test_header_tolerated(self):
        for header in ("date,price", "date,close"):
            s = parse_csv(f"{header}\n2013-04-09,1\n2013-04-10,2", "X", "stock index")
            assert len(s) == 2

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2013-13-01,5", "unrecognized date '2013-13-01'"),
            ("2013-01-01,5x", "invalid price '5x'"),
        ],
    )
    def test_first_row_with_one_bad_field_is_not_a_header(self, row, message):
        # only a line 1 where neither field parses is skipped as a header
        with pytest.raises(CsvParseError, match=message) as exc:
            parse_csv(f"{row}\n2013-01-02,6\n2013-01-03,7\n", "X", "stock index")
        assert exc.value.line == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(CsvParseError, match="line 2"):
            parse_csv(b"2013-04-09,1\nnot-a-date,2\n2013-04-11,3", "X", "stock index")

    def test_unsorted_input_sorted(self):
        s = parse_csv(b"2013-04-10,2\n2013-04-09,1", "X", "stock index")
        assert [p.price for p in s.points] == [1.0, 2.0]

    def test_time_of_day_roundtrip(self):
        text = "2013-04-09,1.5\n2013-04-10T12:30:00.250000,2\n"
        assert serialize_csv(parse_csv(text, "X", "stock index")) == text

    def test_roundtrip_identity(self):
        text = "2013-04-09,213.72\n2013-11-29,1132.26\n2014-01-05,800.5\n"
        s = parse_csv(text, "BTC", "cryptocurrency")
        assert serialize_csv(s) == text
        s2 = parse_csv(serialize_csv(s), "BTC", "cryptocurrency")
        assert s2.points == s.points

    def test_serialize_csv_formats_edge_prices(self):
        # integral values below 1e16 as ints, every other price as its repr
        for seed in range(3):
            prices = edge_floats(seed).tolist()
            text = serialize_csv(daily_series(prices))
            expected = [str(int(p)) if p == int(p) and p < 1e16 else repr(p) for p in prices]
            assert [line.split(",")[1] for line in text.splitlines()] == expected


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """A UTF-8 byte-order mark that starts a price file is not data."""

    @staticmethod
    def assert_same_series(data):
        want, got = parse_csv(data, "X", "stock index"), parse_csv(BOM + data, "X", "stock index")
        assert got.times.tolist() == want.times.tolist()
        assert got.prices.tolist() == want.prices.tolist()

    def test_clean_iso_file_takes_bulk_pass(self, monkeypatch):
        def per_line(*args):
            raise AssertionError("per-line loop reached")

        monkeypatch.setattr(ingest, "parse_date", per_line)
        self.assert_same_series(b"2013-01-01,1.5\n2013-01-02,2\n2013-01-04,3\n")

    def test_dmy_file_takes_per_line_loop(self):
        self.assert_same_series(b"01/01/2013,1.5\n02/01/2013,2\n04/01/2013,3\n")

    def test_second_mark_is_an_error(self):
        with pytest.raises(CsvParseError) as exc:
            parse_csv(BOM + BOM + b"2013-01-01,1\n2013-01-02,2\n", "X", "stock index")
        assert str(exc.value) == (
            "line 1: unrecognized date '\\ufeff2013-01-01' (expected ISO-8601 or DD/MM/YYYY)"
        )


class TestTextLines:
    """One rule for every text input: a line ends at `\\n`, `\\r\\n` or a lone
    `\\r`, and bytes are UTF-8 after at most one byte-order mark."""

    @pytest.mark.parametrize(
        "data, lines",
        [
            ("", []),
            ("\n", [""]),
            ("a", ["a"]),
            ("a\n", ["a"]),
            ("a\n\n", ["a", ""]),
            ("a\r\nb\rc\n", ["a", "b", "c"]),
            ("a\r\rb", ["a", "", "b"]),
            ("a\n\rb", ["a", "", "b"]),
            (BOM + b"a\r\n", ["a"]),
            (BOM + BOM + b"a", ["\ufeffa"]),
            ("\ufeffa", ["\ufeffa"]),  # text is taken as it is
        ],
    )
    def test_line_ends(self, data, lines):
        assert text_lines(data) == lines

    @pytest.mark.parametrize("char", NOT_LINE_ENDS)
    def test_other_separators_stay_in_their_line(self, char):
        assert text_lines(f"a{char}b\nc{char}\n") == [f"a{char}b", f"c{char}"]
        assert text_lines(f"a{char}b\n".encode()) == [f"a{char}b"]

    def test_bytes_must_be_utf8(self):
        with pytest.raises(UnicodeDecodeError):
            text_lines(b"a\xe9\n")

    @pytest.mark.parametrize("end", LINE_ENDS)
    def test_every_line_end_reads_the_same_series(self, end):
        rows = ["2013-01-01,1.5", "2013-01-02,2", "03/01/2013,3"]
        for data in (rows[:2], rows):  # plain rows only, then a row that `_row` reads
            want = parse_csv("\n".join(data) + "\n", "X", "stock index")
            got = parse_csv(end.join(data).encode(), "X", "stock index")
            assert got.times.tolist() == want.times.tolist()
            assert got.prices.tolist() == want.prices.tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["row", "blank", "comment"]),
                st.sampled_from(["", *NOT_LINE_ENDS]),
                st.sampled_from(LINE_ENDS),
            ),
            max_size=20,
        ),
        st.sampled_from(["2099-01-01,x", "2013-02-30,1", "2099-01-01,1,2"]),
        st.sampled_from(LINE_ENDS),
    )
    def test_error_line_counts_line_ends(self, good, fault, end):
        # the other separators, here at the end of a line, end none; a
        # `\r` then a `\n` is one line end
        text = ""
        for i, (kind, char, line_end) in enumerate(good):
            line = {
                "row": f"{date(2013, 1, 1) + timedelta(days=i)},{i + 1}",
                "blank": "",
                "comment": "# note",
            }[kind]
            text += line + char + line_end
        line_ends = len(re.findall("\r\n|\r|\n", text))
        with pytest.raises(CsvParseError) as exc:
            parse_csv(text + fault + end + "2099-01-02,1" + end, "X", "stock index")
        assert exc.value.line == line_ends + 1


class TestColumnarSeries:
    def test_columns(self):
        s = parse_csv(b"1900-01-02T00:00:00.5,2\n1900-01-01,1", "X", "stock index")
        assert s.times.dtype == np.int64 and s.prices.dtype == np.float64
        assert s.times.tolist() == [0, 86_400_000_000 + 500_000]
        assert s.prices.tolist() == [1.0, 2.0]
        assert not s.times.flags.writeable and not s.prices.flags.writeable

    @pytest.mark.parametrize(
        "times, prices, error",
        [
            ([0, 1], [1.0], ValueError),
            ([0], [1.0], SeriesTooShortError),
            ([0, 1], [1.0, 0.0], ValueError),
            ([0, 1], [1.0, float("nan")], ValueError),
            ([1, 1], [1.0, 2.0], ValueError),
            ([2, 1], [1.0, 2.0], ValueError),
        ],
    )
    def test_validation(self, times, prices, error):
        with pytest.raises(error):
            PriceSeries("X", "stock index", times, prices)

    @pytest.mark.parametrize(
        "prices, message",
        [
            ([1.0, float("inf")], "'X': price must be finite, got inf"),
            ([float("inf"), -1.0], "price must be positive, got -1.0"),
            ([1.0, float("nan")], "price must be positive, got nan"),
        ],
    )
    def test_prices_positive_and_finite(self, prices, message):
        """The rule of the CSV reader: a close is positive and finite."""
        with pytest.raises(ValueError, match=re.escape(message)):
            PriceSeries("X", "stock index", [0, ingest.DAY_US], prices)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            PriceSeries("X", "bond", [0, 1], [1.0, 2.0])

    @given(
        st.lists(
            st.datetimes(min_value=datetime(1900, 1, 1)),
            min_size=2,
            max_size=20,
            unique=True,
        )
    )
    def test_abs_times_match_calendar_conversion(self, stamps):
        # after 2185 the microsecond count passes 2**53, where a plain
        # float division would round twice
        stamps = sorted(t.replace(tzinfo=timezone.utc) for t in stamps)
        s = PriceSeries("X", "stock index", [epoch_us(t) for t in stamps], [1.0] * len(stamps))
        assert s.abs_times().tolist() == [to_absolute_time(t) for t in stamps]
        assert [p.timestamp for p in s.points] == stamps

    def test_window_bounds_are_inclusive(self):
        s = parse_csv(
            b"2013-01-01,1\n2013-01-02,2\n2013-01-03,3\n2013-01-04T12:00,4", "X", "stock index"
        )
        w = s.window(parse_date("2013-01-02"), parse_date("2013-01-03"))
        assert w.prices.tolist() == [2.0, 3.0]
        assert s.window(None, parse_date("2013-01-02")).prices.tolist() == [1.0, 2.0]
        assert s.window(parse_date("2013-01-03"), None).prices.tolist() == [3.0, 4.0]
        assert s.window(None, None).prices.tolist() == [1.0, 2.0, 3.0, 4.0]
        # the 12:00 close lies past an end given as a bare date
        assert s.window(parse_date("2013-01-03"), parse_date("2013-01-04")) is None


def _outcome(text, parse=parse_csv):
    try:
        s = parse(text, "X", "stock index")
    except (CsvParseError, SeriesTooShortError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return s.times.tolist(), s.prices.tolist()


_ISO_DATES = st.one_of(
    st.dates(min_value=date(1890, 1, 1), max_value=date(2030, 12, 31)).map(date.isoformat),
    st.sampled_from(["2020-01-01", "2020-01-02", "1900-01-01", "1899-12-31"]),
)
_OTHER_DATES = st.one_of(
    st.builds(
        "{:04d}-{:02d}-{:02d}".format,
        st.integers(0, 10000), st.integers(0, 13), st.integers(0, 32),
    ),
    st.dates(min_value=date(1890, 1, 1)).map(lambda d: d.strftime("%d/%m/%Y")),
    st.builds(
        "{}T{:02d}:{:02d}{}".format,
        st.dates(min_value=date(1899, 12, 30), max_value=date(2030, 1, 1)),
        st.integers(0, 23), st.integers(0, 59),
        st.sampled_from(["", ":00.5", "+05:00", "-11:30", "Z"]),
    ),
    st.sampled_from(["date", "Date", "", "2020-W01-1", "20200101", "２０２０-01-01", "2020-1-1"]),
)
_PRICES = st.one_of(
    st.floats(min_value=1e-3, max_value=1e6).map(repr),
    st.integers(-2, 1000).map(str),
    st.sampled_from(
        ["price", "0", "-0.0", "nan", "inf", "-inf", "1e999", "1e-400", " 5", "5 ",
         "1_0", "1,2", "", "abc", "0x10", "\u00a07"]
    ),
)
_ROWS = st.one_of(
    # the fixed-width shape, and every other shape the per-line reader reads
    st.builds(
        "{},{}{}".format, _ISO_DATES, _PRICES, st.sampled_from(["", "", "", ",", ",2", " "])
    ),
    st.builds(
        "{}{}{}".format,
        st.one_of(_ISO_DATES, _OTHER_DATES),
        st.sampled_from([",", ", ", " ,", ",,", ";"]),
        _PRICES,
    ),
    st.sampled_from(["", "# comment", "#2020-01-01,1", "date,price", "  ", "\t"]),
)


class TestParseCsvFastBranch:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_ROWS, max_size=8))
    def test_agrees_with_general_path(self, rows):
        # a leading space sends every row through `_row`, the per-line reader
        text = "\n".join(rows)
        general = "\n".join(" " + row for row in rows)
        assert _outcome(text) == _outcome(general)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2020-02-30,1",
             "line 2: unrecognized date '2020-02-30' (expected ISO-8601 or DD/MM/YYYY)"),
            ("1899-12-31,1",
             "line 2: date 1899-12-31T00:00:00+00:00 precedes the 1900-01-01 epoch"),
            ("2020-01-01,0", "line 2: price '0' is not positive and finite"),
            ("2013-01-01,3", "line 2: duplicate date 2013-01-01"),
            # a byte-order mark is skipped only at the start of a file
            ("\ufeff2013-01-02,2",
             "line 2: unrecognized date '\\ufeff2013-01-02' (expected ISO-8601 or DD/MM/YYYY)"),
            ("2013-01-02,\ufeff2", "line 2: invalid price '\\ufeff2'"),
        ],
    )
    def test_rejected_rows_keep_general_errors(self, row, message):
        with pytest.raises(CsvParseError) as exc:
            parse_csv(f"2013-01-01,1\n{row}\n2013-01-03,2\n", "X", "stock index")
        assert str(exc.value) == message
        assert exc.value.line == 2


_BAD_DAYS = ["00", "29", "30", "31", "32", "0:", "1:", "3:", "0/", "1 ", "1\x00"]
_BAD_MONTHS = ["00", "13", "0:", "1 "]
_EARLY_DATES = ["1899-12-31", "1000-01-01", "0000-01-01"]
_BAD_PRICES = ["0", "-1", "-0.0", "nan", "inf", "1e999", "1_0", "", "1e-400"]
_DEFECTS = ["none"] * 3 + [
    "day", "month", "early", "duplicate", "order", "price", "trail", "crlf", "cr", "blank"
]
_PRICES_OK = st.floats(min_value=1e-300, max_value=1e300).map(repr) | st.integers(1, 99).map(str)


@st.composite
def _fixed_width_files(draw):
    """Rows `YYYY-MM-DD,<price>` on increasing days from the epoch on, and
    at most one defect; returns the rows and the line separator."""
    day = draw(st.dates(min_value=date(1900, 1, 1), max_value=date(2200, 1, 1)))
    rows = []
    for step in draw(st.lists(st.integers(1, 400), min_size=1, max_size=10)):
        rows.append(f"{day.isoformat()},{draw(_PRICES_OK)}")
        day += timedelta(days=step)
    defect = draw(st.sampled_from(_DEFECTS))
    i = draw(st.integers(0, len(rows) - 1))
    j = max(i, 1) if len(rows) > 1 else None
    sep = "\n"
    if defect == "day":
        rows[i] = rows[i][:8] + draw(st.sampled_from(_BAD_DAYS)) + rows[i][10:]
    elif defect == "month":
        rows[i] = rows[i][:5] + draw(st.sampled_from(_BAD_MONTHS)) + rows[i][7:]
    elif defect == "early":
        rows[0] = draw(st.sampled_from(_EARLY_DATES)) + rows[0][10:]
    elif defect == "duplicate" and j:
        rows[j] = rows[j - 1][:10] + rows[j][10:]
    elif defect == "order" and j:
        rows[j - 1], rows[j] = rows[j], rows[j - 1]
    elif defect == "price":
        rows[i] = rows[i][:11] + draw(st.sampled_from(_BAD_PRICES))
    elif defect == "trail":
        rows[i] += draw(st.sampled_from([" ", "\t"]))
    elif defect == "crlf":
        sep = "\r\n"
    elif defect == "cr":
        sep = "\r"
    elif defect == "blank":
        rows.append("")
    return rows, sep


class TestParseCsvBulkPass:
    @settings(max_examples=500, deadline=None)
    @given(_fixed_width_files())
    def test_agrees_with_per_line_loop(self, file):
        # a leading space sends every row through `_row`, the per-line
        # reader; without it, the plain rows are read over their columns
        rows, sep = file
        text = sep.join(rows) + sep
        general = sep.join(" " + row for row in rows) + sep
        assert _outcome(text) == _outcome(general)

    def test_every_day_to_2400_matches_calendar(self):
        # leap rules for 1900, 2000, 2100 and 2400, and every month length
        days = [date(1900, 1, 1) + timedelta(days=k) for k in range(183_000)]
        s = parse_csv("".join(f"{d.isoformat()},1\n" for d in days), "X", "stock index")
        expected = [(d - date(1900, 1, 1)).days * 86_400_000_000 for d in days]
        assert days[-1].year == 2401 and s.times.tolist() == expected

    def test_clean_file_takes_bulk_pass(self, monkeypatch):
        def per_line(*args):
            raise AssertionError("per-line loop reached")

        monkeypatch.setattr(ingest, "parse_date", per_line)
        text = "1900-01-01,1.5\n2000-02-29,2\n2100-03-01,1e-3\n"
        s = parse_csv(text, "X", "stock index")
        days = [date(1900, 1, 1), date(2000, 2, 29), date(2100, 3, 1)]
        assert s.times.tolist() == [gregorian_day_count(d) * 86_400_000_000 for d in days]
        assert s.prices.tolist() == [1.5, 2.0, 1e-3]

    @pytest.mark.parametrize(
        "variant, dates_parsed",
        [
            (lambda f: "date,price\n" + f, ["date"]),  # the header check reads its date field
            (lambda f: "# note\n" + f, []),
            (lambda f: "\n".join(f.splitlines()[::-1]) + "\n", []),
            (lambda f: f.replace("\n", "\r\n") + "\r\n", []),
        ],
        ids=["header", "comment", "newest-first", "crlf-and-blank"],
    )
    def test_messy_file_reads_plain_rows_in_bulk(self, monkeypatch, variant, dates_parsed):
        # no line sends the whole file to the per-line reader: only the
        # lines that are not plain rows reach `parse_date`
        start = date(1999, 12, 1)
        f = "".join(f"{start + timedelta(days=i)},{i % 97 + 0.5}\n" for i in range(400))
        want = parse_csv(f, "X", "stock index")
        calls = []

        def counted(text):
            calls.append(text)
            return parse_date(text)

        monkeypatch.setattr(ingest, "parse_date", counted)
        got = parse_csv(variant(f), "X", "stock index")
        assert calls == dates_parsed
        assert got.times.tolist() == want.times.tolist()
        assert got.prices.tolist() == want.prices.tolist()


def reference_csv(data: bytes | str, id: str, kind: str) -> PriceSeries:
    """The per-line reader that `parse_csv` replaced, kept as its oracle:
    every line is stripped, split and read in order through `parse_date`
    up to the first bad one, then the rows are sorted by time."""
    try:
        lines = text_lines(data)
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"input is not UTF-8: {exc}")
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
        day = us // ingest.DAY_US
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


def _parses(parse, text: str) -> bool:
    try:
        parse(text)
    except ValueError:
        return False
    return True


_DAYS = st.integers(0, 400).map(lambda k: date(2013, 1, 1) + timedelta(days=k))
_GOOD_DATES = st.one_of(
    _DAYS.map(date.isoformat),
    _DAYS.map(date.isoformat),
    _DAYS.map(lambda d: d.strftime("%d/%m/%Y")),
    st.builds(
        "{}T{:02d}:{:02d}{}".format,
        _DAYS, st.integers(0, 23), st.integers(0, 59),
        st.sampled_from(["", ":00.5", "+05:00", "-11:30", "Z"]),
    ),
)
_GOOD_ROWS = st.builds("{},{!r}".format, _GOOD_DATES, st.floats(min_value=1e-3, max_value=1e6))
_CLEAN_LINES = st.one_of(
    _GOOD_ROWS,
    _GOOD_ROWS.map(lambda row: " " + row),
    _GOOD_ROWS.map(lambda row: row.replace(",", " , ") + " "),
    st.sampled_from(["", "# note", "  "]),
)
_BAD_DATES = ["2013-02-30", "2013-13-01", "2013-00-10", "1899-12-31", "31/02/2013", "2013-1-5"]
_MIXED_LINES = st.one_of(
    _CLEAN_LINES,
    st.just("date,price"),
    st.sampled_from(_BAD_DATES).map("{},1".format),
    st.sampled_from(_BAD_DATES).map("{},1".format),
    st.builds("{},{}".format, _GOOD_DATES, st.sampled_from(["0", "-1", "nan", "inf", "abc", ""])),
)


class TestOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.booleans().flatmap(
            lambda clean: st.lists(
                st.tuples(_CLEAN_LINES if clean else _MIXED_LINES, st.sampled_from(LINE_ENDS)),
                min_size=2 * clean,
                max_size=12,
            )
        ),
        st.sampled_from(["", "date,price\n", "# note\n"]),
        st.booleans(),
    )
    def test_agrees_with_per_line_reader(self, lines, first, bom):
        # plain rows among every other kind of line, in any order: the
        # same series, or the same error type, message and line
        data = (first + "".join(line + end for line, end in lines)).encode()
        data = BOM + data if bom else data
        assert _outcome(data) == _outcome(data, reference_csv)
