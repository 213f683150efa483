import math
import re
from pathlib import Path

import pytest

from marketcomplexity.bdm import CtmTable, ctm_from_frequency
from marketcomplexity.bdm.machines import OutputDistribution
from marketcomplexity.cli import main
from marketcomplexity.errors import TableFormatError


HEADER = "# states=2 colors=2 step_bound=6 machines=10 mode=exhaustive\n"
NOT_HEADER = ": line 1 is not a table header"
# first lines other than the one `ctm_from_frequency` writes, which alone
# loads, so that a loaded table saves back byte for byte
BAD_HEADERS = {
    "reordered": "# colors=2 states=2 step_bound=6 machines=10 mode=exhaustive",
    "extra-token": "# states=2 colors=2 step_bound=6 machines=10 mode=exhaustive seed=1",
    "trailing-space": "# states=2 colors=2 step_bound=6 machines=10 mode=exhaustive ",
    "colors-3": "# states=2 colors=3 step_bound=6 machines=10 mode=exhaustive",
    "plus-sign": "# states=+2 colors=2 step_bound=6 machines=10 mode=exhaustive",
    "leading-zero": "# states=02 colors=2 step_bound=6 machines=10 mode=exhaustive",
    "arabic-indic-digit": "# states=\u0662 colors=2 step_bound=6 machines=10 mode=exhaustive",
    "no-blank": "#states=2 colors=2 step_bound=6 machines=10 mode=exhaustive",
}
# a complete table of length 1 that lists "0" twice, first as a fallback
DUPLICATE = f"{HEADER}0\t2.0\tfallback\n0\t1.605968359\texact\n1\t1.605968359\texact\n"


def tiny_dist(counts, halting=None, exhaustive=True):
    return OutputDistribution(
        counts=counts,
        halting=halting or sum(counts.values()),
        machines=100,
        states=2,
        step_bound=6,
        exhaustive=exhaustive,
    )


class TestCtmFromFrequency:
    def test_half_probability_is_one_bit(self):
        t = ctm_from_frequency(tiny_dist({"0": 2, "1": 2}), d_max=1)
        assert t.k("0") == pytest.approx(1.0)

    def test_quarter_probability_is_two_bits(self):
        t = ctm_from_frequency(tiny_dist({"0": 1, "1": 1, "00": 1, "11": 1}), d_max=1)
        assert t.k("0") == pytest.approx(2.0)

    def test_most_frequent_has_minimum_k(self, dist2, table2):
        most_frequent = max(dist2.counts, key=lambda s: (dist2.counts[s], s))
        min_k = min(table2.values.values())
        assert table2.k(most_frequent) == pytest.approx(min_k)

    def test_order_preservation(self, dist2, table2):
        # -log2 m(x) is strictly decreasing in m(x)
        items = [(s, c) for s, c in dist2.counts.items() if len(s) <= table2.d_max]
        for s1, c1 in items:
            for s2, c2 in items:
                if c1 > c2:
                    assert table2.k(s1) < table2.k(s2)

    def test_coding_theorem_lower_bound(self, dist2, table2):
        # m(x) >= 2^-K(x) for tabulated strings, exact entries
        for s in table2.values:
            if not table2.is_fallback(s):
                assert dist2.probability(s) >= 2.0 ** -table2.k(s) - 1e-12

    def test_fallback_above_exact_max(self, table3):
        hardest_so_far = 0.0
        for length in range(1, table3.d_max + 1):
            exact = [
                v
                for s, v in table3.values.items()
                if len(s) == length and not table3.is_fallback(s)
            ]
            fallback = [
                v
                for s, v in table3.values.items()
                if len(s) == length and table3.is_fallback(s)
            ]
            # lengths the enumeration never produced inherit the hardest
            # exact value seen at any shorter length
            base = max(exact) if exact else hardest_so_far
            hardest_so_far = max(hardest_so_far, base)
            for f in fallback:
                assert f == pytest.approx(base + 1.0)

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError, match="distribution is empty"):
            ctm_from_frequency(tiny_dist({}))

    def test_lookups_beyond_d_max_rejected(self, table2):
        with pytest.raises(KeyError, match=rf"not covered by table \(d_max={table2.d_max}\)"):
            table2.k("0" * (table2.d_max + 1))
        for length in (0, table2.d_max + 1):
            with pytest.raises(KeyError, match=f"table has no entries of length {length}"):
                table2.max_k(length)

    def test_covers_every_string_up_to_d_max(self, table2):
        for length in range(1, table2.d_max + 1):
            for v in range(1 << length):
                assert format(v, f"0{length}b") in table2.values

    def test_complement_and_reversal_symmetry(self, table3):
        for s, k in table3.values.items():
            comp = "".join("1" if c == "0" else "0" for c in s)
            assert table3.values[comp] == pytest.approx(k, rel=1e-12)
            assert table3.values[s[::-1]] == pytest.approx(k, rel=1e-12)


class TestPersistence:
    def test_roundtrip_bit_exact(self, table2, tmp_path):
        path = tmp_path / "ctm2.tsv"
        table2.save(path)
        loaded = CtmTable.load(path)
        loaded.save(tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()
        assert loaded.header == table2.header
        assert loaded.fallback == table2.fallback

    def test_header_format(self, table2, tmp_path):
        path = tmp_path / "ctm2.tsv"
        table2.save(path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "# states=2 colors=2 step_bound=6 machines=10000 mode=exhaustive"
        )

    def test_sorted_by_length_then_lex(self, table2, tmp_path):
        path = tmp_path / "ctm2.tsv"
        table2.save(path)
        keys = [line.split("\t")[0] for line in path.read_text().splitlines()[1:]]
        assert keys == sorted(keys, key=lambda s: (len(s), s))

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("0\t1.0\texact\n")
        with pytest.raises(TableFormatError):
            CtmTable.load(p)

    def test_bad_bitstring_rejected(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text(
            "# states=2 colors=2 step_bound=6 machines=10 mode=exhaustive\n"
            "0x\t1.0\texact\n"
        )
        with pytest.raises(TableFormatError):
            CtmTable.load(p)

    def test_wrong_colors_rejected(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text(
            "# states=2 colors=3 step_bound=6 machines=10 mode=exhaustive\n"
            "0\t1.0\texact\n"
        )
        with pytest.raises(TableFormatError):
            CtmTable.load(p)

    @pytest.mark.parametrize(
        "text, message",
        [
            (f"{HEADER}0\t1.0\tguess\n1\t1.0\texact\n", ":2: invalid tag 'guess'"),
            (f"{HEADER}0\tabc\texact\n1\t1.0\texact\n", ":2: invalid K value 'abc'"),
            (f"{HEADER}0\t1.0\texact\n1\t0\texact\n", ":3: K must be positive"),
            (f"{HEADER}0\t1.0\texact\n1\tnan\texact\n", ":3: K must be positive"),
            (f"{HEADER}0\tinf\texact\n1\t1.0\texact\n", ":2: K must be positive and finite"),
            (f"{HEADER}0\t1.0\texact\n1\t1e999\texact\n", ":3: K must be positive and finite"),
            (f"{HEADER}\n", ": table has no entries"),
            ("# states=2 colors\n0\t1.0\texact\n", NOT_HEADER),
            ("# states=2 colors=2\n0\t1.0\texact\n", NOT_HEADER),
            (HEADER.replace("exhaustive", "guessed") + "0\t1.0\texact\n", NOT_HEADER),
            (DUPLICATE, ":3: bitstring '0' listed twice"),
            (f"{HEADER}0\t1.0\n1\t1.0\texact\n", ":2: expected 3 tab fields"),
            ("", NOT_HEADER),
            *[(f"{h}\n0\t1.0\texact\n1\t1.0\texact\n", NOT_HEADER) for h in BAD_HEADERS.values()],
        ],
        ids=[
            "tag", "unparsable-k", "zero-k", "nan-k", "inf-k", "overflowing-k", "no-entries",
            "header-token",
            "incomplete-header", "mode", "repeated-string", "field-count", "empty-file",
            *BAD_HEADERS,
        ],
    )
    def test_malformed_table_rejected(self, tmp_path, text, message):
        p = tmp_path / "bad.tsv"
        p.write_text(text)
        with pytest.raises(TableFormatError, match=re.escape(f"{p}{message}")):
            CtmTable.load(p)

    def test_sampled_table_loads_and_names_itself(self, tmp_path, monkeypatch, capsys):
        dist = tiny_dist({"0": 2, "1": 2}, exhaustive=False)
        header = "# states=2 colors=2 step_bound=6 machines=100 mode=sampled"
        monkeypatch.chdir(tmp_path)
        ctm_from_frequency(dist, d_max=1).save("s.tsv")
        assert Path("s.tsv").read_text().splitlines()[0] == header
        CtmTable.load("s.tsv").save("again.tsv")
        assert Path("again.tsv").read_bytes() == Path("s.tsv").read_bytes()
        Path("m.csv").write_text("".join(f"2013-01-{d:02d},{d % 5 + 1}\n" for d in range(1, 31)))
        Path("run.cfg").write_text("market = M, stock index, m.csv\nbdm.table = s.tsv\nbdm.d=1\n")
        assert main(["report", "--config", "run.cfg"]) == 0
        assert f"ctm: {header[2:]}\n" in Path("out/report.txt").read_text()

    def test_nine_decimal_rendering(self, table2, tmp_path):
        path = tmp_path / "ctm2.tsv"
        table2.save(path)
        line = path.read_text().splitlines()[1]
        kfield = line.split("\t")[1]
        assert len(kfield.split(".")[1]) == 9


def test_all_k_positive(table3):
    assert all(v > 0 for v in table3.values.values())
    assert math.isfinite(max(table3.values.values()))


def test_incomplete_table_rejected(table2, tmp_path):
    # 19 of the 30 strings of length 1..4: a lookup of the other eleven
    # would fail in the middle of a decomposition
    path = tmp_path / "cut.tsv"
    table2.save(path)
    lines = path.read_text().splitlines()[:20]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TableFormatError, match="11 strings of length 1..4 missing"):
        CtmTable.load(path)


def test_d_max_limit_accepted(dist2):
    table = ctm_from_frequency(dist2, d_max=16)
    assert table.d_max == 16 and len(table.values) == 2**17 - 2


def test_repeated_bitstring_exits_2(tmp_path, monkeypatch, capsys):
    """`bdm` and `report` refuse a table that lists a string twice, and
    `report` writes nothing."""
    monkeypatch.chdir(tmp_path)
    Path("dup.tsv").write_text(DUPLICATE)
    Path("m.csv").write_text("".join(f"2013-01-{d:02d},{d % 5 + 1}\n" for d in range(1, 31)))
    Path("run.cfg").write_text("market = M, stock index, m.csv\nbdm.table = dup.tsv\nbdm.d = 1\n")
    for argv in (["bdm", "m.csv", "--table", "dup.tsv"], ["report", "--config", "run.cfg"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: dup.tsv:3: bitstring '0' listed twice\n"
    assert not Path("out").exists()
