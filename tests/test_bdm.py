import math

import numpy as np
import pytest

from marketcomplexity.bdm import bdm
from marketcomplexity.encode import binarize
from marketcomplexity.errors import SeriesTooShortError

from conftest import daily_series


class TestFormula:
    def test_repeated_block_instantiation(self, table3):
        r = bdm("00000000", table3, d=4, overlap=4)
        assert r.k_estimate == pytest.approx(1.0 + table3.k("0000"))

    def test_two_distinct_blocks(self, table3):
        r = bdm("00001111", table3, d=4, overlap=4)
        assert r.k_estimate == pytest.approx(table3.k("0000") + table3.k("1111"))

    def test_accepts_movement_series(self, table3):
        bits = binarize(daily_series([9, 8, 7, 6, 5, 6, 7, 8, 9]))
        assert bits == "00001111"
        assert bdm(bits, table3).k_estimate == bdm("00001111", table3).k_estimate

    def test_rejects_non_binary_text(self, table3):
        with pytest.raises(ValueError):
            bdm("01x0", table3, d=4)

    def test_overlapping_windows(self, table3):
        # d=4, overlap=1 over "000000": windows are three copies of "0000"
        r = bdm("000000", table3, d=4, overlap=1)
        assert r.k_estimate == pytest.approx(math.log2(3) + table3.k("0000"))

    def test_trailing_remainder_discarded(self, table3):
        assert (
            bdm("000000111", table3, d=4, overlap=4).k_estimate
            == bdm("00000011", table3, d=4, overlap=4).k_estimate
        )

    def test_deficiency(self, table3):
        r = bdm("00000000", table3, d=4, overlap=4)
        assert r.deficiency == pytest.approx(r.k_estimate / 8)


class TestInvariance:
    def test_complement_invariance_random(self, table3):
        rng = np.random.default_rng(12)
        for _ in range(500):
            n = int(rng.integers(8, 64))
            s = "".join(rng.choice(["0", "1"], size=n))
            comp = "".join("1" if c == "0" else "0" for c in s)
            assert bdm(s, table3).k_estimate == pytest.approx(
                bdm(comp, table3).k_estimate, rel=1e-12
            )

    def test_length_eight_minimum_is_uniform_string(self, table3):
        values = {
            format(v, "08b"): bdm(format(v, "08b"), table3, d=4, overlap=4).k_estimate
            for v in range(256)
        }
        minimum = min(values.values())
        assert values["00000000"] == pytest.approx(minimum)
        assert values["11111111"] == pytest.approx(minimum)

    def test_distinct_max_block_increases_estimate(self, table3):
        # replacing one of two repeated blocks by the hardest length-4
        # block cannot lower the estimate
        hardest = max(
            (s for s in table3.values if len(s) == 4), key=lambda s: table3.values[s]
        )
        base = bdm("0000" * 2, table3, d=4, overlap=4).k_estimate
        swapped = bdm("0000" + hardest, table3, d=4, overlap=4).k_estimate
        assert swapped >= base


class TestContracts:
    def test_normalized_in_unit_interval(self, table3):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(4, 100))
            s = "".join(rng.choice(["0", "1"], size=n))
            r = bdm(s, table3)
            assert 0.0 <= r.normalized <= 1.0

    def test_too_short_errors(self, table3):
        with pytest.raises(SeriesTooShortError):
            bdm("001", table3, d=4)

    def test_block_longer_than_table_errors(self, table3):
        with pytest.raises(ValueError):
            bdm("0" * 100, table3, d=table3.d_max + 1)

    def test_bad_overlap_errors(self, table3):
        with pytest.raises(ValueError):
            bdm("00000000", table3, d=4, overlap=5)

    def test_missing_blocks_counted(self, table3):
        fallback4 = [s for s in table3.fallback if len(s) == 4]
        if not fallback4:
            pytest.skip("states=3 table covers all length-4 strings exactly")
        r = bdm(fallback4[0] * 2, table3, d=4, overlap=4)
        assert r.blocks_missing_from_table == 2
