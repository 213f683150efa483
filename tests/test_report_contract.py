"""The `report` contract: exact output bytes on the input paths the benchmark
does not run, exit codes 0/1/2 with no traceback on any input, and a stderr
that carries only the report's own lines."""

import hashlib
import subprocess
import sys
import tempfile
import warnings
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import marketcomplexity
from marketcomplexity.cli import main


def _closes(seed: int, n: int) -> list[str]:
    rng = np.random.default_rng(seed)
    return [f"{p:.6f}" for p in 40 * np.exp(np.cumsum(rng.standard_normal(n)) * 0.02)]


def _write_dmy_market(path: Path, seed: int, n: int, timed: dict[int, str]) -> None:
    """A header line, DD/MM/YYYY dates in shuffled row order, and on the
    days in `timed` an ISO timestamp with that time of day instead."""
    start = date(2013, 1, 1)
    rows = []
    for i, price in enumerate(_closes(seed, n)):
        day = start + timedelta(days=i)
        stamp = f"{day.isoformat()}T{timed[i]}" if i in timed else day.strftime("%d/%m/%Y")
        rows.append(f"{stamp},{price}")
    order = np.random.default_rng(seed + 1).permutation(n)
    path.write_text("date,close\n" + "\n".join(rows[i] for i in order) + "\n", encoding="utf-8")


class TestPinnedReportBytes:
    """sha256 of every output file, recorded at 4eadf18 (before the series
    became columnar) and unchanged since."""

    EXPECTED = {
        "A__B_aligned.csv": "3165086419e53bbd958d1a2630a6957be7fe8f89f35e5b0b2b37ba93770349a5",
        "A_hist.csv": "8d4b36713dae3c2a4454e27cc15c184631166d0ceede6d2aaff7000bad10aa0a",
        "B_hist.csv": "958bc273c256971d1b13a0fc2e8218aaf82fe2371354422cc5fd1d1e04c2b95d",
        "report.csv": "d686d0094ab57f6be3a47d051f516cb5354490ac4078ba709d1c1415eda0ccb5",
        "report.txt": "4184a064f85fdfd4ec7fdf8ff4672dc7067d95ed4e6f974b0ca42ae2dd8501b8",
    }

    def test_windowed_dmy_overlap_table_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["ctm-gen", "--states", "2", "--out", "ctm2.tsv"]) == 0
        # day 200 falls on window.end (2013-07-20); its 12:30 close lies past it
        _write_dmy_market(tmp_path / "a.csv", 31, 260, {45: "09:15:00", 200: "12:30:00"})
        _write_dmy_market(tmp_path / "b.csv", 32, 240, {120: "06:00:00.250000"})
        (tmp_path / "run.cfg").write_text(
            "market = A, precious metal, a.csv\n"
            "market = B, foreign exchange, b.csv\n"
            "pair = A, B\n"
            "window.start = 10/01/2013\n"
            "window.end = 2013-07-20\n"
            "bdm.table = ctm2.tsv\n"
            "bdm.overlap = 2\n"
            "fractal.L = 3\n",
            encoding="utf-8",
        )
        assert main(["report", "--config", "run.cfg", "--output-dir", "out"]) == 0
        got = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tmp_path / "out").iterdir())
        }
        assert got == self.EXPECTED


def _write_iso_market(path: Path, seed: int, n: int = 60, start=date(2013, 1, 1)) -> Path:
    rows = [f"{start + timedelta(days=i)},{p}" for i, p in enumerate(_closes(seed, n))]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestDateInputsExitTwo:
    """Dates that cannot be put on the 1900-epoch clock end in `error:` and
    exit 2, not in a traceback."""

    @pytest.fixture
    def markets(self, tmp_path):
        old = _write_iso_market(tmp_path / "old.csv", 41, start=date(1899, 12, 1))
        new = _write_iso_market(tmp_path / "new.csv", 42)
        return old, new

    def run(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def test_pre_epoch_date(self, tmp_path, capsys, markets):
        old, new = markets
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"market = OLD, stock index, {old}\nmarket = NEW, stock index, {new}\n"
            "pair = OLD, NEW\n",
            encoding="utf-8",
        )
        out = str(tmp_path / "out")
        err = self.run(capsys, ["report", "--config", str(cfg), "--output-dir", out])
        assert "line 1: date 1899-12-01" in err and "precedes the 1900-01-01 epoch" in err
        self.run(capsys, ["ingest", str(old)])
        self.run(capsys, ["align", str(old), str(new)])
        self.run(capsys, ["correlate", str(new), str(old)])

    def test_offset_past_year_range(self, tmp_path, capsys, markets):
        _, new = markets
        for key, value in [
            ("window.start", "0001-01-01T00:00+05:00"),
            ("window.end", "9999-12-31T23:00:00-05:00"),
        ]:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(
                f"market = NEW, stock index, {new}\n{key} = {value}\n", encoding="utf-8"
            )
            out = str(tmp_path / "out")
            err = self.run(capsys, ["report", "--config", str(cfg), "--output-dir", out])
            assert f"{cfg}:2:" in err and "outside years 1-9999" in err
        late = tmp_path / "late.csv"
        late.write_text(
            "2013-01-01,1\n2013-01-02,2\n9999-12-31T23:00:00-05:00,3\n", encoding="utf-8"
        )
        assert "line 3:" in self.run(capsys, ["ingest", str(late)])
        self.run(capsys, ["align", str(late), str(new)])
        self.run(capsys, ["correlate", str(new), str(late)])


def test_unreadable_paths_exit_2(tmp_path, monkeypatch, capsys):
    """A directory where a file belongs, a file where the output directory
    belongs, or a config that is not UTF-8 is a configuration error."""
    monkeypatch.chdir(tmp_path)
    _write_iso_market(tmp_path / "m.csv", 44)
    cases = {
        "table.cfg": b"market = M, stock index, m.csv\nbdm.table = .\n",
        "market.cfg": b"market = M, stock index, .\n",
        "latin1.cfg": "market = M, stock index, m.csv\n# caf\u00e9\n".encode("latin-1"),
    }
    for name, body in cases.items():
        (tmp_path / name).write_bytes(body)
    (tmp_path / "ok.cfg").write_text("market = M, stock index, m.csv\n", encoding="utf-8")
    for argv in [
        *(["report", "--config", name, "--output-dir", "out"] for name in cases),
        ["report", "--config", ".", "--output-dir", "out"],
        ["bdm", "m.csv", "--table", "."],
        ["report", "--config", "ok.cfg", "--output-dir", "m.csv"],
    ]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def _write_wild_market(path: Path) -> Path:
    """Closes alternating 1e308 and 1e-308: every return overflows."""
    start = date(2013, 1, 1)
    rows = [f"{start + timedelta(days=i)},{('1e308', '1e-308')[i % 2]}" for i in range(40)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_overflowing_returns_print_only_report_warnings(tmp_path):
    """numpy's own RuntimeWarnings about the inf/0 returns of a 1e308/1e-308
    market stay off stderr; the failures show as `warning:` lines."""
    good = _write_iso_market(tmp_path / "good.csv", 43)
    wild = _write_wild_market(tmp_path / "wild.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"market = GOOD, stock index, {good}\nmarket = WILD, stock index, {wild}\n",
        encoding="utf-8",
    )
    src = Path(marketcomplexity.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "marketcomplexity.cli", "report",
         "--config", str(cfg), "--output-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env={"PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("warning: ") for line in lines), proc.stderr


@pytest.mark.parametrize("command", ["returns", "fractal"])
def test_single_measure_commands_raise_no_numpy_warnings(tmp_path, capsys, command):
    wild = _write_wild_market(tmp_path / "wild.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(wild)]) in (0, 2)
    capsys.readouterr()


_KEYS = [
    "market", "pair", "window.start", "window.end", "entropy.max_block",
    "bdm.d", "bdm.overlap", "bdm.table", "fractal.L", "output.dir",
]
_cell = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_zones = st.integers(-12, 12).map(lambda h: timezone(timedelta(hours=h)))
# each keeps the calendar day in UTC, so consecutive days stay distinct
_STAMPS = [
    lambda d: d.isoformat(),
    lambda d: f"{d.day:02d}/{d.month:02d}/{d.year:04d}",
    lambda d: f"{d.isoformat()}T12:00:00+05:00",
    lambda d: f"{d.isoformat()}T06:30:00.5-05:00",
]
_dates = st.one_of(
    st.builds(lambda d, i: _STAMPS[i](d), st.dates(), st.integers(0, 3)),
    st.datetimes(timezones=_zones).map(datetime.isoformat),
    st.sampled_from(["0001-01-01T00:00+05:00", "9999-12-31T23:00:00-05:00", "1899-12-31"]),
    _cell,
)
_prices = st.one_of(
    st.floats().map(repr), st.sampled_from(["0", "-1", "", "1e999"]), _cell
)
_no_rows = st.just([])
# consecutive days in mixed formats from a start that may lie at either end
# of the calendar or before the epoch, now and then with one arbitrary row
_markets = st.builds(
    lambda start, rows, junk: [
        f"{_STAMPS[fmt](start + timedelta(days=i))},{price!r}"
        for i, (fmt, price) in enumerate(rows)
    ] + junk,
    st.one_of(
        *[st.dates(date(1900, 1, 1), date(2100, 1, 1))] * 3,
        st.sampled_from([date(1, 1, 1), date(1899, 12, 20), date(9999, 10, 1)]),
    ),
    st.lists(
        st.tuples(st.integers(0, 3), st.floats(0.5, 2.0) | st.floats(5e-324, 1e308)),
        min_size=2,
        max_size=60,
    ),
    st.one_of(
        _no_rows, _no_rows, _no_rows,
        st.lists(st.tuples(_dates, _prices).map(",".join) | _cell, min_size=1, max_size=1),
    ),
)
_values = st.one_of(
    _dates, st.integers(-3, 12).map(str), st.sampled_from([".", "m0.csv", "run.cfg"]), _cell
)
_config_lines = st.lists(st.tuples(st.sampled_from(_KEYS), _values).map(" = ".join), max_size=2)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(markets=st.lists(_markets, min_size=1, max_size=3), extra=_config_lines, pair=st.booleans())
def test_report_exit_code_is_total(markets, extra, pair, monkeypatch, capsys):
    """Arbitrary CSV rows and config lines: `report` returns 0, 1 or 2 and
    never raises."""
    with tempfile.TemporaryDirectory() as tmp:
        monkeypatch.chdir(tmp)
        lines = []
        for i, rows in enumerate(markets):
            Path(f"m{i}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
            lines.append(f"market = M{i}, stock index, m{i}.csv")
        if pair:
            lines.append(f"pair = M0, M{len(markets) - 1}")
        Path("run.cfg").write_text("\n".join(lines + extra) + "\n", encoding="utf-8")
        assert main(["report", "--config", "run.cfg", "--output-dir", "out"]) in (0, 1, 2)
    capsys.readouterr()
