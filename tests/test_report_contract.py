"""The `report` contract: exact output bytes on the input paths the benchmark
does not run, exit codes 0/1/2 with no traceback on any input (to `report`
and to every other subcommand), and a stderr that carries only the report's
own lines."""

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


@pytest.mark.parametrize("id", ["", "../esc", ".", "..", "a/b", "a\\b"])
def test_market_id_not_a_plain_file_name_exit_2(tmp_path, monkeypatch, capsys, id):
    """A market's id names the files `report` writes for it. An empty id
    wrote `_hist.csv` while `report.csv` named the market after its file,
    and `../esc` wrote `esc_hist.csv` outside the output directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in").mkdir()
    _write_iso_market(tmp_path / "in" / "a.csv", 46)
    (tmp_path / "in" / "run.cfg").write_text(
        f"market = {id}, stock index, in/a.csv\n", encoding="utf-8"
    )
    assert main(["report", "--config", "in/run.cfg", "--output-dir", "in/out"]) == 2
    assert capsys.readouterr().err == f"error: market {id!r}: id must be a plain file name\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.csv", "in", "run.cfg"]


@pytest.mark.parametrize(
    "pairs, message",
    [
        (["A__B, C", "A, B__C"], "pairs A__B,C and A,B__C both write A__B__C_aligned.csv"),
        (["A, C", "A, C"], "pairs A,C and A,C both write A__C_aligned.csv"),
    ],
)
def test_pairs_writing_one_file_exit_2(tmp_path, monkeypatch, capsys, pairs, message):
    """Two pairs whose ids name one aligned file: the second would
    overwrite the first's."""
    monkeypatch.chdir(tmp_path)
    markets = [f"market = {id}, stock index, m.csv" for id in ("A", "B", "C", "A__B", "B__C")]
    _write_iso_market(tmp_path / "m.csv", 47)
    lines = markets + ["pair = A, B", *(f"pair = {p}" for p in pairs)]
    (tmp_path / "run.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["report", "--config", "run.cfg", "--output-dir", "out"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


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


def test_histogram_bin_bound(tmp_path, monkeypatch, capsys):
    """A jump beside a near-zero spread, for which Freedman-Diaconis asks
    for about 3e13 bins: `report` writes a histogram failure and exits 1,
    `returns --hist-out` exits 2; neither ends in a traceback."""
    rng = np.random.default_rng(0)
    prices = 100 * np.exp(np.cumsum(1e-13 * rng.standard_normal(400)))
    prices[200:] *= 3
    start = date(2013, 1, 1)
    jump = tmp_path / "jump.csv"
    rows = [f"{start + timedelta(days=i)},{p!r}\n" for i, p in enumerate(prices.tolist())]
    jump.write_text("".join(rows), encoding="utf-8")
    good = _write_iso_market(tmp_path / "good.csv", 45)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"market = JUMP, stock index, {jump}\nmarket = GOOD, stock index, {good}\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["report", "--config", str(cfg), "--output-dir", str(out)]) == 1
    reason = "Freedman-Diaconis binning asks for 2.99e+13 bins, more than the limit of 100000"
    assert f"  JUMP histogram: {reason}\n" in (out / "report.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().err == f"warning: JUMP histogram: {reason}\n"
    assert sorted(p.name for p in out.iterdir()) == ["GOOD_hist.csv", "report.csv", "report.txt"]

    hist = tmp_path / "jump_hist.csv"
    assert main(["returns", str(jump), "--hist-out", str(hist)]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"
    assert not hist.exists()


def test_report_computes_moments_once_per_market(tmp_path, monkeypatch):
    """The histogram reuses the moments of the metric columns; when they
    fail, it fails with their reason."""
    from marketcomplexity import returns

    calls = []
    moments = returns.moments

    def counted(x):
        calls.append(len(x))
        return moments(x)

    monkeypatch.setattr(returns, "moments", counted)
    good = _write_iso_market(tmp_path / "good.csv", 46)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "".join(f"market = {id}, stock index, {good}\n" for id in ("A", "B", "C")),
        encoding="utf-8",
    )
    assert main(["report", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
    assert len(calls) == 3

    wild = _write_wild_market(tmp_path / "wild.csv")
    cfg.write_text(f"market = WILD, stock index, {wild}\n", encoding="utf-8")
    assert main(["report", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
    text = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
    assert "  WILD histogram: non-finite sample value\n" in text
    assert "  WILD kurtosis: non-finite sample value\n" in text


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


def _write_microsecond_market(path: Path, year: int, n: int, peaks: dict[int, float]) -> Path:
    """Daily closes with two rows 1 us apart (days 3 and 4) and the given
    peak prices; every other close lies between 5 and 6."""
    start = date(year, 1, 1)
    rows = []
    for i in range(n):
        stamp = (start + timedelta(days=i)).isoformat()
        price = peaks.get(i, 5 + i * 7 % 11 / 10)
        if i == 3:
            stamp, price = f"{stamp}T23:59:59.999999", 2
        elif i == 4:
            stamp, price = f"{stamp}T00:00:00", 3
        rows.append(f"{stamp},{price}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "year, src_peaks, dst_n, dst_peaks",
    [
        # peaks 100 days apart onto 2 days: slope 0.02 maps the two source
        # rows onto one float second
        (2020, {10: 100, 110: 90}, 40, {10: 100, 12: 90}),
        # identical markets in year 9000, where a float second is ~3e-5 s
        # wide and the two rows already share one in `sampled()`
        (9000, {10: 100, 110: 90}, 130, {10: 100, 110: 90}),
    ],
)
def test_microsecond_rows_align(tmp_path, capsys, year, src_peaks, dst_n, dst_peaks):
    """Valid rows 1 us apart can share a float second on the aligned clock;
    alignment pairs them and every output is written."""
    src = _write_microsecond_market(tmp_path / "src.csv", year, 130, src_peaks)
    dst = _write_microsecond_market(tmp_path / "dst.csv", year, dst_n, dst_peaks)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"market = SRC, stock index, {src}\nmarket = DST, stock index, {dst}\n"
        "pair = SRC, DST\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["report", "--config", str(cfg), "--output-dir", str(out)]) in (0, 1)
    assert sorted(p.name for p in out.iterdir()) == [
        "DST_hist.csv", "SRC__DST_aligned.csv", "SRC_hist.csv", "report.csv", "report.txt",
    ]
    assert main(["align", str(src), str(dst), "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["correlate", str(src), str(dst)]) == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "m.csv", "--out", "missing/x.csv"],
        ["returns", "m.csv", "--hist-out", "missing/h.csv"],
        ["align", "m.csv", "m.csv", "--out", "missing/a.csv"],
        ["ctm-gen", "--states", "1", "--out", "missing/t.tsv"],
        ["ctm-gen", "--states", "1", "--budget", "50", "--out", "missing/t.tsv"],
    ],
)
def test_unwritable_output_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    _write_iso_market(tmp_path / "m.csv", 45)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err and "Traceback" not in err


@pytest.mark.parametrize("states", ["-1", "0", "5"])
def test_ctm_gen_sampled_states_out_of_range_exit_2(tmp_path, capsys, states):
    argv = ["ctm-gen", "--states", states, "--budget", "10", "--out", str(tmp_path / "t.tsv")]
    assert main(argv) == 2
    assert "states must be in 1..4" in capsys.readouterr().err


@pytest.mark.parametrize("states", ["1", "2", "3", "4"])
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_ctm_gen_budget_not_positive_exit_2(tmp_path, capsys, states, budget):
    # a budget of 0 is a sampled run of no machines, not an exhaustive run
    out = tmp_path / "t.tsv"
    argv = ["ctm-gen", "--states", states, "--budget", budget, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: budget must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("d_max", ["0", "-1", "17", "99", str(2**70)])
def test_ctm_gen_d_max_out_of_range_exit_2(tmp_path, capsys, d_max):
    out = tmp_path / "t.tsv"
    argv = ["ctm-gen", "--states", "2", "--d-max", d_max, "--out", str(out)]
    assert main(argv) == 2
    assert "d_max must be in 1..16" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("run", [["--states", "3"], ["--states", "4", "--budget", "10"]])
def test_ctm_gen_checks_d_max_before_any_machine(tmp_path, capsys, monkeypatch, run):
    def never(*args, **kwargs):
        raise AssertionError("machines ran before --d-max was checked")

    monkeypatch.setattr("marketcomplexity.bdm.enumerate_machines", never)
    monkeypatch.setattr("marketcomplexity.cli.sample_machines", never)
    out = tmp_path / "t.tsv"
    assert main(["ctm-gen", *run, "--d-max", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: d_max must be in 1..16, got 0\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "run, error",
    [
        (["--states", "2", "--budget", "10", "--shards", "2"],
         "--shards applies only to exhaustive mode, not with --budget"),
        (["--states", "2", "--budget", "10", "--shards", "0"],
         "--shards applies only to exhaustive mode, not with --budget"),
        (["--states", "4", "--budget", "10", "--resume"],
         "--resume applies only to exhaustive mode, not with --budget"),
        (["--states", "2", "--seed", "3"], "--seed applies only to sampled mode (--budget)"),
        (["--states", "4", "--seed", "3"], "states=4 requires --budget (sampled mode)"),
        (["--states", "2", "--shards", "0"], "shards must be at least 1"),
        (["--states", "5"], "states must be in 1..4"),
        (["--states", "0", "--shards", "2", "--resume"], "states must be in 1..4"),
        (["--states", "3", "--out", "gone/c3.tsv"], "--out: gone is not an existing directory"),
        (["--states", "4", "--budget", "300000", "--out", "gone/c4.tsv"],
         "--out: gone is not an existing directory"),
        (["--states", "2", "--shards", "3", "--out", "odir"], "--out: odir is a directory"),
        (["--states", "4", "--budget", "10", "--out", "odir"], "--out: odir is a directory"),
    ],
)
def test_ctm_gen_flags_refused_before_any_machine(tmp_path, capsys, monkeypatch, run, error):
    """A flag the chosen mode would never read, a state or shard count out
    of range, or an --out in a missing directory or naming a directory is
    refused before any machine runs or any file is written."""

    def never(*args, **kwargs):
        raise AssertionError("machines ran before the flags were checked")

    monkeypatch.setattr("marketcomplexity.bdm.machines._run_batch", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "odir").mkdir()
    # an --out in `run` comes last, so it replaces this one
    assert main(["ctm-gen", "--out", "t.tsv", *run]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["odir"]
    assert list((tmp_path / "odir").iterdir()) == []


@pytest.mark.parametrize(
    "body, error",
    [
        (b"2013-01-01,1\n31/02/2013,2\n2013-01-03,3\n",
         "line 2: invalid DD/MM/YYYY date '31/02/2013': day is out of range for month"),
        (b"2013-01-01,1\n2013-01-02,2\xe9\n",
         "input is not UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 25: "
         "invalid continuation byte"),
    ],
    ids=["dmy-day-out-of-range", "not-utf-8"],
)
def test_bad_price_file_exit_2(tmp_path, capsys, body, error):
    (tmp_path / "m.csv").write_bytes(body)
    assert main(["ingest", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def _main_exit_code(argv: list[str]) -> int:
    """`main`'s return value, or the status of argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# in range for most flags a third of the time
_flag_int = st.one_of(
    st.integers(1, 8).map(str),
    st.integers(-3, 70).map(str),
    st.sampled_from([str(10**9), str(2**70), "x", ""]),
)
_out_path = st.sampled_from(["o.csv", "missing/o.csv", ".", "m0.csv"])


def _opt(flag: str, values) -> st.SearchStrategy:
    """`[flag, value]` or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _argv(command: str, *parts) -> st.SearchStrategy:
    return st.tuples(*parts).map(lambda ps: [command] + [a for p in ps for a in p])


_one = st.just(["m0.csv"])
_two = st.sampled_from([["m0.csv", "m1.csv"], ["m1.csv", "m0.csv"], ["m0.csv", "m0.csv"]])
_kinds = st.sampled_from(["stock index", "precious metal", "crypto"])
_ARGVS = st.one_of(
    _argv("ingest", _one, _opt("--out", _out_path), _opt("--kind", _kinds)),
    _argv("align", _two, _opt("--out", _out_path)),
    _argv("returns", _one, _opt("--hist-out", _out_path)),
    _argv("entropy", _one, _opt("--max-block", _flag_int)),
    _argv("compress", _one, _opt("--mode", st.sampled_from(["binary", "real", "x"]))),
    _argv(
        "bdm", _one, st.just(["--table", "t.tsv"]),
        _opt("--d", _flag_int), _opt("--overlap", _flag_int),
    ),
    _argv("fractal", _one, _opt("--L", _flag_int)),
    _argv("correlate", _two, st.sampled_from([[], ["--movements"]])),
    # ctm-gen stays at 1-2 states, small budgets and table lengths, or at
    # values its validation rejects before any run
    _argv(
        "ctm-gen",
        (st.integers(1, 2) | st.sampled_from([-1, 0, 5])).map(lambda n: ["--states", str(n)]),
        _out_path.map(lambda p: ["--out", p.replace(".csv", ".tsv")]),
        _opt("--shards", st.integers(-1, 4).map(str)),
        _opt("--budget", st.integers(-5, 2000).map(str)),
        _opt("--d-max", (st.integers(1, 8) | st.sampled_from([-1, 0, 17, 99, 2**70])).map(str)),
        st.sampled_from([[], ["--resume"]]),
    ),
    _argv(
        "report",
        st.just(["--config", "run.cfg"]),
        st.sampled_from([["--output-dir", "out"], ["--output-dir", "m0.csv"]]),
    ),
)
# the first k lines of a valid 2-state table (all 255 at 300), then one
# arbitrary or empty line
_tables = st.tuples(st.just(300) | st.integers(2, 40), st.just("") | st.just("") | _cell)
# random-walk closes on consecutive ISO days, which parse
_valid_markets = st.builds(
    lambda seed, n: [
        f"{date(2013, 1, 1) + timedelta(days=i)},{p}" for i, p in enumerate(_closes(seed, n))
    ],
    st.integers(0, 99),
    st.integers(2, 80),
)


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    argv=_ARGVS,
    markets=st.lists(_valid_markets | _valid_markets | _markets, min_size=2, max_size=2),
    extra=_config_lines,
    table=_tables,
)
def test_every_subcommand_exit_code_is_total(
    argv, markets, extra, table, table2, monkeypatch, capsys
):
    """Arbitrary flags, CSV rows, table files and output paths: every
    subcommand returns 0, 1 or 2 and never raises."""
    with tempfile.TemporaryDirectory() as tmp:
        monkeypatch.chdir(tmp)
        for i, rows in enumerate(markets):
            Path(f"m{i}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        table2.save("t.tsv")
        keep, junk = table
        lines = Path("t.tsv").read_text(encoding="utf-8").splitlines()[:keep] + [junk]
        Path("t.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = ["market = M0, stock index, m0.csv", "market = M1, cryptocurrency, m1.csv"]
        config += ["pair = M0, M1", "bdm.table = t.tsv", *extra]
        Path("run.cfg").write_text("\n".join(config) + "\n", encoding="utf-8")
        assert _main_exit_code(argv) in (0, 1, 2)
    capsys.readouterr()
