import hashlib
import json
import re
import subprocess
import sys
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import marketcomplexity
from marketcomplexity import __version__
from marketcomplexity.bdm import CtmTable
from marketcomplexity.bdm.machines import (
    _shard_path,
    enumerate_range,
    shard_ranges,
)
from marketcomplexity.cli import build_parser, main, parse_config
from marketcomplexity.errors import ConfigError

from conftest import LINE_ENDS, NOT_LINE_ENDS


def write_market(dir, name, prices, start=date(2013, 1, 1)):
    lines = [
        f"{(start + timedelta(days=i)).isoformat()},{p}"
        for i, p in enumerate(prices)
    ]
    path = dir / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def walk_prices(seed, n=120):
    rng = np.random.default_rng(seed)
    return [round(float(p), 6) for p in 50 * np.exp(np.cumsum(rng.standard_normal(n)) * 0.02)]


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            build_parser().parse_args(["--version"])
        assert e.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestIngest:
    def test_stdout_canonical(self, tmp_path, capsys):
        p = write_market(tmp_path, "m.csv", [1.5, 2.0, 3.25])
        assert main(["ingest", str(p)]) == 0
        out = capsys.readouterr().out
        assert out == "2013-01-01,1.5\n2013-01-02,2\n2013-01-03,3.25\n"

    def test_out_file_has_header(self, tmp_path, capsys):
        p = write_market(tmp_path, "m.csv", [1, 2, 3])
        out = tmp_path / "canon.csv"
        assert main(["ingest", str(p), "--out", str(out)]) == 0
        first = out.read_text().splitlines()[0]
        assert first == f"# marketcomplexity {__version__} config=none"

    def test_idempotent(self, tmp_path, capsys):
        p = write_market(tmp_path, "m.csv", [1.5, 2.0, 3.25])
        main(["ingest", str(p)])
        once = capsys.readouterr().out
        q = tmp_path / "again.csv"
        q.write_text(once, encoding="utf-8")
        main(["ingest", str(q)])
        assert capsys.readouterr().out == once

    def test_bad_csv_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("2013-01-01,1\n2013-01-02,not-a-price\n")
        assert main(["ingest", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "nope.csv")]) == 2


class TestMeasureCommands:
    def test_returns_values_match_library(self, tmp_path, capsys):
        from marketcomplexity.ingest import parse_csv
        from marketcomplexity.returns import log_returns, moments

        p = write_market(tmp_path, "m.csv", walk_prices(1))
        assert main(["returns", str(p)]) == 0
        out = capsys.readouterr().out
        st = moments(log_returns(parse_csv(p.read_bytes(), "m", "stock index")))
        fields = dict(tok.split("=", 1) for tok in out.split())
        assert int(fields["n"]) == st.n
        assert float(fields["mean"]) == pytest.approx(st.mean, rel=1e-12)
        assert float(fields["kurtosis"]) == pytest.approx(st.kurtosis, rel=1e-12)

    def test_entropy_smoke(self, tmp_path, capsys):
        p = write_market(tmp_path, "m.csv", walk_prices(2))
        assert main(["entropy", str(p), "--max-block", "3"]) == 0
        fields = dict(tok.split("=", 1) for tok in capsys.readouterr().out.split())
        assert 0.0 <= float(fields["normalized"]) <= 1.0
        assert int(fields["block_max"]) == 3

    def test_compress_modes_differ(self, tmp_path, capsys):
        p = write_market(tmp_path, "m.csv", walk_prices(3))
        assert main(["compress", str(p), "--mode", "binary"]) == 0
        binary = capsys.readouterr().out
        assert main(["compress", str(p), "--mode", "real"]) == 0
        real = capsys.readouterr().out
        assert "mode=binary" in binary and "mode=real" in real
        b = float(dict(t.split("=", 1) for t in binary.split())["compressibility"])
        r = float(dict(t.split("=", 1) for t in real.split())["compressibility"])
        assert b != r

    def test_fractal_smoke(self, tmp_path, capsys):
        p = write_market(tmp_path, "m.csv", walk_prices(4))
        assert main(["fractal", str(p)]) == 0
        fields = dict(tok.split("=", 1) for tok in capsys.readouterr().out.split())
        assert 1.0 <= float(fields["dimension"]) < 2.0
        assert "L" not in fields  # the default two-scale form names no L
        assert main(["fractal", str(p), "--L", "3"]) == 0
        fields = dict(tok.split("=", 1) for tok in capsys.readouterr().out.split())
        assert fields["L"] == "3" and 1.0 <= float(fields["dimension"]) < 2.0

    def test_align_shifted_copy(self, tmp_path, capsys):
        prices = walk_prices(5)
        a = write_market(tmp_path, "a.csv", prices)
        b = write_market(tmp_path, "b.csv", prices, start=date(2015, 6, 1))
        out = tmp_path / "pair.csv"
        assert main(["align", str(a), str(b), "--out", str(out)]) == 0
        fields = dict(tok.split("=", 1) for tok in capsys.readouterr().out.split())
        assert float(fields["slope"]) == pytest.approx(1.0)
        assert out.exists() and out.read_text().startswith("# marketcomplexity")

    def test_correlate_shifted_copy(self, tmp_path, capsys):
        prices = walk_prices(6)
        a = write_market(tmp_path, "a.csv", prices)
        b = write_market(tmp_path, "b.csv", prices, start=date(2015, 6, 1))
        assert main(["correlate", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        value = float(out.split("=", 1)[1])
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_bdm_uses_table_file(self, tmp_path, capsys, table2):
        table_path = tmp_path / "ctm.tsv"
        table2.save(table_path)
        p = write_market(tmp_path, "m.csv", walk_prices(7))
        assert main(["bdm", str(p), "--table", str(table_path)]) == 0
        fields = dict(tok.split("=", 1) for tok in capsys.readouterr().out.split())
        assert float(fields["k_estimate"]) > 0
        assert 0.0 <= float(fields["normalized"]) <= 1.0

    @pytest.mark.parametrize(
        "flags",
        [
            ["bdm", "--overlap", "9"],
            ["bdm", "--d", "0"],
            ["entropy", "--max-block", "0"],
            ["fractal", "--L", "1"],
            ["fractal", "--L", "9999"],
        ],
    )
    def test_out_of_range_flag_exit_2(self, tmp_path, capsys, table2, flags):
        p = write_market(tmp_path, "m.csv", walk_prices(8))
        argv = [flags[0], str(p)] + flags[1:]
        if flags[0] == "bdm":
            table2.save(tmp_path / "ctm.tsv")
            argv += ["--table", str(tmp_path / "ctm.tsv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag",
        [
            (command, flag)
            for command in ("ingest", "returns", "entropy", "compress", "bdm", "fractal")
            for flag in ("--id", "--kind")
        ]
        + [
            (command, flag)
            for command in ("align", "correlate")
            for flag in ("--src-id", "--src-kind", "--dst-id", "--dst-kind")
        ],
    )
    def test_series_flags_retired_exit_2(self, tmp_path, capsys, table2, command, flag):
        """Ids and kinds are set only in a `report` config."""
        p = write_market(tmp_path, "m.csv", walk_prices(9))
        argv = [command, str(p)] + ([str(p)] if command in ("align", "correlate") else [])
        if command == "bdm":
            table2.save(tmp_path / "ctm.tsv")
            argv += ["--table", str(tmp_path / "ctm.tsv")]
        value = "stock index" if flag.endswith("kind") else "X"
        with pytest.raises(SystemExit) as e:
            main(argv + [flag, value])
        assert e.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_series_named_after_file_stem(self, tmp_path, capsys):
        a = write_market(tmp_path, "a.csv", walk_prices(9))
        short = write_market(tmp_path, "short.csv", [1.0, 2.0])
        assert main(["align", str(a), str(short)]) == 2
        assert capsys.readouterr().err == (
            "error: series 'short' too short for peak detection\n"
        )


class TestImportCost:
    SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

    def run_python(self, code):
        src = Path(marketcomplexity.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env={"PYTHONPATH": str(src)}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_cli_import_skips_scipy_stats_and_cluster(self):
        # the two cost about a second
        code = (
            "import sys, marketcomplexity.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.stats', 'scipy.cluster'))))"
        )
        assert self.run_python(code).strip() == "[]"

    def test_cli_import_and_report_load_no_scipy(self, tmp_path):
        cfg = TestReportCommand().good_config(tmp_path)
        code = (
            "import sys; from marketcomplexity.cli import main; "
            f"print({self.SCIPY}); "
            f"rc = main(['report', '--config', {str(cfg)!r}]); print(rc, {self.SCIPY})"
        )
        assert self.run_python(code).split("\n")[:2] == ["[]", "0 []"]
        assert (tmp_path / "out" / "ALPHA_hist.csv").exists()

    def test_report_skips_numpy_ma(self, tmp_path):
        # np.percentile would load numpy.ma (about 14 ms) for the histogram
        cfg = TestReportCommand().good_config(tmp_path)
        code = (
            "import sys; from marketcomplexity.cli import main; "
            f"rc = main(['report', '--config', {str(cfg)!r}]); "
            "print(rc, 'numpy.ma' in sys.modules)"
        )
        assert self.run_python(code).split("\n")[0] == "0 False"
        assert (tmp_path / "out" / "BETA_hist.csv").exists()

    def test_group_markets_still_clusters(self):
        # with scipy blocked, any import of it raises ImportError
        code = (
            "import sys; sys.modules['scipy'] = None; "
            "import marketcomplexity.cli; "
            "from marketcomplexity.analysis import MarketMetrics, group_markets; "
            "ms = [MarketMetrics(i, 'stock index', {'x': x}) "
            "for i, x in (('A', 0.0), ('B', 0.1), ('C', 5.0), ('D', 5.2))]; "
            "print(group_markets(ms, ['x'], 2))"
        )
        assert self.run_python(code).strip() == "[['A', 'B'], ['C', 'D']]"


class TestCtmGen:
    def test_states1_matches_library(self, tmp_path, capsys):
        out = tmp_path / "ctm1.tsv"
        assert main(["ctm-gen", "--states", "1", "--out", str(out)]) == 0
        table = CtmTable.load(out)
        assert table.header == "# states=1 colors=2 step_bound=1 machines=36 mode=exhaustive"

    def test_shard_count_invariance(self, tmp_path, capsys):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert main(["ctm-gen", "--states", "2", "--out", str(a), "--shards", "1"]) == 0
        assert main(["ctm-gen", "--states", "2", "--out", str(b), "--shards", "8"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_shard_checkpoints_removed_on_success(self, tmp_path, capsys):
        out = tmp_path / "ctm2.tsv"
        assert main(["ctm-gen", "--states", "2", "--out", str(out), "--shards", "4"]) == 0
        assert not list(tmp_path.glob("*.shard*"))

    def test_resume_from_partial_checkpoints(self, tmp_path, capsys):
        from marketcomplexity.bdm import default_step_bound, shard_ranges

        ref = tmp_path / "ref.tsv"
        assert main(["ctm-gen", "--states", "2", "--out", str(ref)]) == 0

        # simulate an interrupted 4-shard run with shard 0 already done
        out = tmp_path / "resumed.tsv"
        start, stop = shard_ranges(2, 4)[0]
        counts, halting = enumerate_range(2, default_step_bound(2), start, stop)
        shard = {
            "states": 2,
            "step_bound": default_step_bound(2),
            "start": start,
            "stop": stop,
            "halting": halting,
            "counts": counts,
        }
        _shard_path(out, 0, 4).write_text(json.dumps(shard), encoding="utf-8")
        rc = main(
            ["ctm-gen", "--states", "2", "--out", str(out), "--shards", "4", "--resume"]
        )
        assert rc == 0
        assert out.read_bytes() == ref.read_bytes()

    def test_resume_after_interruption(self, tmp_path, capsys, monkeypatch):
        from marketcomplexity.bdm import machines

        ref = tmp_path / "ref.tsv"
        assert main(["ctm-gen", "--states", "2", "--out", str(ref)]) == 0

        # interrupt a 4-shard run in its last shard, then lose shard 1 too
        out = tmp_path / "resumed.tsv"
        calls = []
        real = machines.enumerate_range

        def interrupted(*args):
            calls.append(args)
            if len(calls) == 4:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(machines, "enumerate_range", interrupted)
        argv = ["ctm-gen", "--states", "2", "--out", str(out), "--shards", "4"]
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert sorted(p.name for p in tmp_path.glob("*.shard*")) == [
            f"resumed.tsv.shard{i:03d}of004" for i in range(3)
        ]
        _shard_path(out, 1, 4).unlink()

        calls.clear()
        assert main(argv + ["--resume"]) == 0
        assert [c[2] for c in calls] == [s for s, _ in shard_ranges(2, 4)[1::2]]
        assert out.read_bytes() == ref.read_bytes()
        assert not list(tmp_path.glob("*.shard*"))

    def test_failed_table_write_keeps_checkpoints(self, tmp_path, capsys, monkeypatch):
        from marketcomplexity.bdm import machines

        ref = tmp_path / "ref.tsv"
        assert main(["ctm-gen", "--states", "2", "--out", str(ref)]) == 0

        def full(self, path):
            raise OSError("No space left on device")

        out = tmp_path / "t.tsv"
        argv = ["ctm-gen", "--states", "2", "--out", str(out), "--shards", "3"]
        with monkeypatch.context() as m:
            m.setattr(CtmTable, "save", full)
            assert main(argv) == 2
        assert capsys.readouterr().err == "error: No space left on device\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ref.tsv"] + [
            f"t.tsv.shard{i:03d}of003" for i in range(3)
        ]

        # every shard is read back, none enumerated again
        monkeypatch.setattr(machines, "enumerate_range", None)
        assert main(argv + ["--resume"]) == 0
        assert out.read_bytes() == ref.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ref.tsv", "t.tsv"]

    def test_failed_checkpoint_replace_leaves_no_partial_file(
        self, tmp_path, capsys, monkeypatch
    ):
        from marketcomplexity.bdm import machines

        ref = tmp_path / "ref.tsv"
        assert main(["ctm-gen", "--states", "2", "--out", str(ref)]) == 0

        # the second shard's checkpoint fails as it is moved into place
        real, moved = machines.os.replace, []

        def failing(src, dst):
            moved.append(dst)
            if len(moved) == 2:
                raise OSError("replace failed")
            real(src, dst)

        out = tmp_path / "t.tsv"
        argv = ["ctm-gen", "--states", "2", "--out", str(out), "--shards", "3"]
        with monkeypatch.context() as m:
            m.setattr(machines.os, "replace", failing)
            assert main(argv) == 2
        assert capsys.readouterr().err == "error: replace failed\n"
        assert moved[1] == _shard_path(out, 1, 3)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ref.tsv", "t.tsv.shard000of003"]

        calls = []
        real_range = machines.enumerate_range

        def counted(*args):
            calls.append(args)
            return real_range(*args)

        monkeypatch.setattr(machines, "enumerate_range", counted)
        assert main(argv + ["--resume"]) == 0
        assert [c[2] for c in calls] == [s for s, _ in shard_ranges(2, 3)[1:]]
        assert out.read_bytes() == ref.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ref.tsv", "t.tsv"]

    def test_failed_table_replace_keeps_the_old_table(self, tmp_path, capsys, monkeypatch):
        from marketcomplexity.bdm import machines

        out = tmp_path / "t.tsv"
        out.write_text("an earlier table\n", encoding="utf-8")

        real_replace = machines.os.replace

        def failing(src, dst):
            if Path(dst) == out:
                raise OSError("replace failed")
            real_replace(src, dst)

        monkeypatch.setattr(machines.os, "replace", failing)
        assert main(["ctm-gen", "--states", "1", "--out", str(out)]) == 2
        assert out.read_text(encoding="utf-8") == "an earlier table\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.tsv", "t.tsv.shard000of001"]

    def test_stale_checkpoint_rejected(self, tmp_path, capsys):
        out = tmp_path / "ctm.tsv"
        shard = {"states": 2, "step_bound": 6, "start": 7, "stop": 9, "halting": 1}
        _shard_path(out, 0, 4).write_text(
            json.dumps({**shard, "counts": {"0": 1}}), encoding="utf-8"
        )
        rc = main(
            ["ctm-gen", "--states", "2", "--out", str(out), "--shards", "4", "--resume"]
        )
        assert rc == 2
        assert "stale shard checkpoint" in capsys.readouterr().err

    def test_unreadable_checkpoint_rejected(self, tmp_path, capsys):
        out = tmp_path / "ctm.tsv"
        argv = ["ctm-gen", "--states", "2", "--out", str(out), "--shards", "4", "--resume"]
        start, stop = shard_ranges(2, 4)[0]
        shard = {"states": 2, "step_bound": 6, "start": start, "stop": stop}
        for text in [
            # well-typed, in place of shard 0, but not what any run counts
            json.dumps({**shard, "halting": 5, "counts": {"0": -3, "1": 8}}),
            json.dumps({**shard, "halting": 1, "counts": {"2x": 1}}),
            json.dumps({**shard, "halting": 999, "counts": {"0": 1}}),
            "# states=2 halting=x\n0\t1\n",
            # a checkpoint left in the earlier tab-separated format
            "# states=2 step_bound=6 start=0 stop=2500 halting=1\n0\t1\n",
            '{"states": 2, "halting": 1, "counts": {"0": "1"}}',
            '{"states": 2, "halting": 1, "counts": {"0": 1.0}}',
            '{"states": 2, "halting": true, "counts": {"0": 1}}',
            '{"states": 2, "halting": 1, "counts": [1]}',
            '{"states": 2, "counts": {"0": 1}}',
            "[1]",
            "[" * 10**5,
            "",
        ]:
            _shard_path(out, 0, 4).write_text(text, encoding="utf-8")
            assert main(argv) == 2, text
            assert "unreadable shard checkpoint" in capsys.readouterr().err, text

    def test_states4_merges_checkpoints(self, tmp_path, capsys, monkeypatch):
        # a 4-state run merges its shard checkpoints without running a machine
        from marketcomplexity.bdm import machines

        def never(*args):
            raise AssertionError("a machine ran")

        out = tmp_path / "ctm4.tsv"
        for i, (start, stop) in enumerate(shard_ranges(4, 2)):
            shard = {"states": 4, "step_bound": 107, "start": start, "stop": stop}
            counts = {"0": 3, "1": 1, "01": 1 + i}
            _shard_path(out, i, 2).write_text(
                json.dumps({**shard, "halting": sum(counts.values()), "counts": counts}),
                encoding="utf-8",
            )
        monkeypatch.setattr(machines, "enumerate_range", never)
        argv = ["ctm-gen", "--states", "4", "--shards", "2", "--resume", "--out", str(out)]
        assert main(argv) == 0
        assert CtmTable.load(out).header == (
            "# states=4 colors=2 step_bound=107 machines=11019960576 mode=exhaustive"
        )
        assert capsys.readouterr().out == f"wrote {out} (6 entries, 11 halting machines)\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ctm4.tsv"]


UTC = timezone.utc
DATE_FORMS = "(expected ISO-8601 or DD/MM/YYYY)"


def write_config(tmp_path, body):
    p = tmp_path / "run.cfg"
    p.write_text(body, encoding="utf-8")
    return p


class TestReportConfig:
    def test_parse_roundtrip(self, tmp_path):
        m = write_market(tmp_path, "m.csv", [1, 2, 3])
        cfg = parse_config(
            write_config(
                tmp_path,
                f"market = BTC, cryptocurrency, {m}\n"
                "entropy.max_block = 5\n"
                "bdm.d = 6\n"
                "window.start = 2013-01-01\n"
                "window.end = 01/06/2014\n",
            )
        )
        assert cfg.markets == [("BTC", "cryptocurrency", str(m))]
        assert cfg.max_block == 5 and cfg.bdm_d == 6
        assert cfg.window_end.year == 2014 and cfg.window_end.month == 6
        assert re.fullmatch(r"[0-9a-f]{12}", cfg.config_hash)

    @pytest.mark.parametrize(
        "line, field, value",
        [
            (
                "market = BTC, cryptocurrency, m.csv",
                "markets",
                [("BTC", "cryptocurrency", "m.csv")],
            ),
            ("pair = A, B", "pairs", [("A", "B")]),
            ("window.start = 2013-01-02", "window_start", datetime(2013, 1, 2, tzinfo=UTC)),
            ("window.end = 01/06/2014", "window_end", datetime(2014, 6, 1, tzinfo=UTC)),
            ("entropy.max_block = 5", "max_block", 5),
            ("bdm.d = 6", "bdm_d", 6),
            ("bdm.overlap = 3", "bdm_overlap", 3),
            ("bdm.table = t.tsv", "bdm_table", "t.tsv"),
            ("fractal.L = 7", "fractal_L", 7),
            ("output.dir = some dir", "output_dir", "some dir"),
        ],
    )
    def test_each_key_roundtrip(self, tmp_path, line, field, value):
        cfg = parse_config(write_config(tmp_path, f"# one key\n{line}\n"))
        assert getattr(cfg, field) == value

    # `bdm.table` and `output.dir` take any text; the code that uses a path checks it
    @pytest.mark.parametrize(
        "line, error",
        [
            ("market = BTC, cryptocurrency", "market value must be `id,kind,path`"),
            ("pair = A, B, C", "pair value must be `src_id,dst_id`"),
            ("window.start = 2013-13-01", f"unrecognized date '2013-13-01' {DATE_FORMS}"),
            ("window.end = x", f"unrecognized date 'x' {DATE_FORMS}"),
            ("entropy.max_block = 1.5", "invalid literal for int() with base 10: '1.5'"),
            ("bdm.d = x", "invalid literal for int() with base 10: 'x'"),
            ("bdm.overlap =", "invalid literal for int() with base 10: ''"),
            ("fractal.L = two", "invalid literal for int() with base 10: 'two'"),
            ("bdm.d 4", "expected `key = value`"),
        ],
    )
    def test_each_key_bad_value_exit_2(self, tmp_path, capsys, line, error):
        cfg = write_config(tmp_path, f"# one key\n{line}\n")
        assert main(["report", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: {error}\n"

    @pytest.mark.parametrize(
        "first, second",
        [
            ("window.start = 2013-01-02", "window.start = 2013-01-03"),
            ("window.end = 2014-06-01", "window.end=01/06/2014"),
            ("entropy.max_block = 5", "entropy.max_block = 5"),
            ("bdm.d = 4", "bdm.d = 3"),
            ("bdm.overlap = 3", " bdm.overlap = 2"),
            ("bdm.table = t.tsv", "bdm.table = u.tsv"),
            ("fractal.L = 7", "fractal.L = 2"),
            ("output.dir = a", "output.dir = b"),
        ],
    )
    def test_single_value_key_given_twice_exit_2(
        self, tmp_path, monkeypatch, capsys, first, second
    ):
        monkeypatch.chdir(tmp_path)
        m = write_market(tmp_path, "m.csv", walk_prices(19))
        cfg = write_config(tmp_path, f"market = M, stock index, {m}\n{first}\n{second}\n")
        assert main(["report", "--config", str(cfg)]) == 2
        key = first.partition(" ")[0]
        assert capsys.readouterr().err == f"error: {cfg}:3: {key} given twice\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv", "run.cfg"]

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, "no.such.key = 1\n"))

    def test_other_separators_stay_in_their_line(self, tmp_path, capsys):
        # `\x85` ends no line, so the value that holds it is refused on its own line
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("# one key\nbdm.d = 3\x85x\n".encode())
        assert main(["report", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: invalid literal for int() with base 10: '3\\x85x'\n"
        )

    @settings(
        max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["", "# note", "market = M, stock index, m.csv", "pair = A, B"]),
                st.sampled_from(["", *NOT_LINE_ENDS]),
                st.sampled_from(LINE_ENDS),
            ),
            max_size=20,
        ),
        st.sampled_from(["bdm.d = x", "bdm.d 4", "no.such.key = 1"]),
        st.sampled_from(LINE_ENDS),
    )
    def test_error_line_counts_line_ends(self, tmp_path, good, fault, end):
        # the other separators, here at the end of a line, end none; a
        # `\r` then a `\n` is one line end
        text = "".join(line + char + line_end for line, char, line_end in good)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(f"{text}{fault}{end}bdm.d = 3{end}".encode())
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg)
        line_ends = len(re.findall("\r\n|\r|\n", text))
        assert str(exc.value).startswith(f"{cfg}:{line_ends + 1}: ")


class TestReportCommand:
    def good_config(self, tmp_path):
        a = write_market(tmp_path, "a.csv", walk_prices(10))
        b = write_market(tmp_path, "b.csv", walk_prices(11))
        return write_config(
            tmp_path,
            f"market = ALPHA, stock index, {a}\n"
            f"market = BETA, precious metal, {b}\n"
            "pair = ALPHA, BETA\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )

    def test_success_writes_all_outputs(self, tmp_path, capsys):
        cfg = self.good_config(tmp_path)
        assert main(["report", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        for name in (
            "report.csv",
            "report.txt",
            "ALPHA_hist.csv",
            "BETA_hist.csv",
            "ALPHA__BETA_aligned.csv",
        ):
            assert (out / name).exists(), name
        assert "failures: none" in (out / "report.txt").read_text()
        header = (out / "report.csv").read_text().splitlines()[0]
        assert re.fullmatch(
            rf"# marketcomplexity {re.escape(__version__)} config=[0-9a-f]{{12}}",
            header,
        )

    def test_config_may_start_with_byte_order_mark(self, tmp_path, capsys):
        # the mark is not part of the first key; the hash is still of the file's bytes
        cfg = self.good_config(tmp_path)
        cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        assert main(["report", "--config", str(cfg)]) == 0
        digest = hashlib.sha256(cfg.read_bytes()).hexdigest()[:12]
        header = (tmp_path / "out" / "report.txt").read_text().splitlines()[0]
        assert header == f"# marketcomplexity {__version__} config={digest}"

    def test_byte_order_mark_after_the_start_is_an_error(self, tmp_path, capsys):
        cfg = self.good_config(tmp_path)
        cfg.write_text(cfg.read_text() + "\ufeffbdm.d = 3\n", encoding="utf-8")
        assert main(["report", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:5: unknown config key '\\ufeffbdm.d'\n"

    def test_deterministic_across_runs(self, tmp_path, capsys):
        cfg = self.good_config(tmp_path)
        assert main(["report", "--config", str(cfg), "--output-dir", str(tmp_path / "r1")]) == 0
        assert main(["report", "--config", str(cfg), "--output-dir", str(tmp_path / "r2")]) == 0
        for name in ("report.csv", "report.txt", "ALPHA__BETA_aligned.csv"):
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes()

    def test_constant_market_gives_exit_1(self, tmp_path, capsys):
        a = write_market(tmp_path, "a.csv", walk_prices(12))
        c = write_market(tmp_path, "c.csv", [7.0] * 60)
        cfg = write_config(
            tmp_path,
            f"market = GOOD, stock index, {a}\n"
            f"market = FLAT, foreign exchange, {c}\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        assert main(["report", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "FLAT" in err
        text = (tmp_path / "out" / "report.csv").read_text()
        assert "FAILED:" in text
        good_row = [l for l in text.splitlines() if l.startswith("GOOD,")][0]
        assert "FAILED" not in good_row

    def test_empty_window_isolates_windowed_metrics(self, tmp_path, capsys):
        a = write_market(tmp_path, "a.csv", walk_prices(13))
        cfg = write_config(
            tmp_path,
            f"market = ALPHA, stock index, {a}\n"
            "window.start = 1990-01-01\n"
            "window.end = 1990-02-01\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        assert main(["report", "--config", str(cfg)]) == 1
        text = (tmp_path / "out" / "report.csv").read_text()
        assert "FAILED: empty window" in text
        row = text.splitlines()[-1]
        # whole-history fractal dimension still computed
        assert row.split(",")[-1] not in ("", "FAILED: empty window")
        # the histogram fails with the windowed columns, and no file is written
        assert "  ALPHA histogram: empty window\n" in (tmp_path / "out" / "report.txt").read_text()
        assert not (tmp_path / "out" / "ALPHA_hist.csv").exists()
        assert "warning: ALPHA histogram: empty window\n" in capsys.readouterr().err

    def test_bad_config_exit_2(self, tmp_path, capsys):
        a = write_market(tmp_path, "a.csv", walk_prices(14))
        cases = [
            "",  # no markets
            f"market = A, no-such-kind, {a}\n",
            f"market = A, stock index, {tmp_path / 'missing.csv'}\n",
            f"market = A, stock index, {a}\nmarket = A, stock index, {a}\n",
            f"market = A, stock index, {a}\npair = A, B\n",
            f"market = A, stock index, {a}\n"
            "window.start = 2014-01-01\nwindow.end = 2013-01-01\n",
            f"market = A, stock index, {a}\nbdm.d = 99\n",
        ]
        for body in cases:
            cfg = write_config(tmp_path, body)
            assert main(["report", "--config", str(cfg)]) == 2, body

    def test_infinite_price_exit_2(self, tmp_path, capsys):
        a = write_market(tmp_path, "a.csv", walk_prices(15))
        b = write_market(tmp_path, "b.csv", walk_prices(16)[:28] + ["inf"] + walk_prices(16)[29:])
        cfg = write_config(
            tmp_path,
            f"market = A, stock index, {a}\n"
            f"market = B, stock index, {b}\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        assert main(["report", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "line 29" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_bad_market_file_is_named(self, tmp_path, capsys):
        a = write_market(tmp_path, "a.csv", walk_prices(18))
        b = write_market(tmp_path, "b.csv", ["1.5", "x", "2"])
        cfg = write_config(
            tmp_path,
            f"market = A, stock index, {a}\n"
            f"market = B, stock index, {b}\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        assert main(["report", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {b}: line 2: invalid price 'x'\n"
        assert not (tmp_path / "out").exists()

    def test_overflowing_returns_exit_1(self, tmp_path, capsys):
        a = write_market(tmp_path, "a.csv", walk_prices(17))
        b = write_market(tmp_path, "b.csv", ["1e308", "1e-308"] * 30)
        cfg = write_config(
            tmp_path,
            f"market = A, stock index, {a}\n"
            f"market = B, stock index, {b}\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        with np.errstate(all="ignore"):
            assert main(["report", "--config", str(cfg)]) == 1
        row = (tmp_path / "out" / "report.csv").read_text().splitlines()[-1]
        assert row.startswith("B,")
        assert row.count("FAILED: non-finite sample value") == 4
        assert "B histogram: non-finite sample value" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["report", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("overlap", [0, 9])
    def test_bdm_overlap_out_of_range_exit_2(self, tmp_path, capsys, overlap):
        a = write_market(tmp_path, "a.csv", walk_prices(18))
        cfg = write_config(
            tmp_path,
            f"market = A, stock index, {a}\n"
            f"bdm.overlap = {overlap}\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        assert main(["report", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "bdm.overlap must be in 1..4" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["entropy.max_block = 0", "bdm.d = 0", "fractal.L = 1"])
    def test_analysis_parameter_out_of_range_exit_2(self, tmp_path, capsys, line):
        a = write_market(tmp_path, "a.csv", walk_prices(18))
        cfg = write_config(
            tmp_path, f"market = A, stock index, {a}\n{line}\noutput.dir = {tmp_path / 'out'}\n"
        )
        assert main(["report", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: invalid analysis parameters\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overlap", [1, 4])
    def test_bdm_overlap_bounds_accepted(self, tmp_path, capsys, overlap):
        a = write_market(tmp_path, "a.csv", walk_prices(18))
        cfg = write_config(
            tmp_path,
            f"market = A, stock index, {a}\n"
            f"bdm.overlap = {overlap}\n"
            f"output.dir = {tmp_path / 'out'}\n",
        )
        assert main(["report", "--config", str(cfg)]) == 0
        assert f"bdm_overlap={overlap} " in (tmp_path / "out" / "report.txt").read_text()
