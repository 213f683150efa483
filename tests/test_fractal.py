import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from marketcomplexity.errors import DegenerateSeriesError, SeriesTooShortError
from marketcomplexity.fractal import (
    UnitGridSeries,
    hall_wood,
    hall_wood_dimension,
    hall_wood_ols,
    hw_area,
    to_unit_grid,
)
from marketcomplexity.synthetic import fbm, path_to_series, random_walk

from conftest import daily_series


class TestUnitGrid:
    def test_definition(self):
        g = to_unit_grid(daily_series([1, 2, 3, 4, 5]))
        assert g.n == 4

    def test_too_short(self):
        with pytest.raises(SeriesTooShortError):
            to_unit_grid(daily_series([1, 2]))

    def test_values_equal_prices(self):
        prices = [3.0, 1.5, 9.9, 4.2]
        g = to_unit_grid(daily_series(prices))
        assert list(g.values) == prices


class TestArea:
    def test_constant_zero(self):
        g = UnitGridSeries.from_values([5.0] * 11)
        for l in range(1, 6):
            assert hw_area(g, l) == 0.0

    def test_alternating_scale_one(self):
        g = UnitGridSeries.from_values([0, 1, 0, 1, 0])
        assert hw_area(g, 1) == pytest.approx(1.0)

    def test_alternating_scale_two_vanishes(self):
        g = UnitGridSeries.from_values([0, 1, 0, 1, 0])
        assert hw_area(g, 2) == 0.0

    def test_direct_sum_oracle(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0, 10, 21)
        g = UnitGridSeries.from_values(values)
        n = 20
        for l in (1, 2, 3, 4, 5):
            expected = (l / n) * sum(
                abs(values[i * l] - values[(i - 1) * l]) for i in range(1, n // l + 1)
            )
            assert hw_area(g, l) == pytest.approx(expected, rel=1e-12)

    def test_scale_out_of_range(self):
        g = UnitGridSeries.from_values([0, 1, 0, 1, 0])
        with pytest.raises(ValueError):
            hw_area(g, 3)


class TestDimension:
    def test_straight_line_exactly_one(self):
        g = UnitGridSeries.from_values(np.arange(101, dtype=float))
        est = hall_wood_dimension(g)
        assert est.value == 1.0
        assert est.raw == 1.0

    def test_degenerate_alternating_errors(self):
        with pytest.raises(DegenerateSeriesError):
            hall_wood_dimension(UnitGridSeries.from_values([0, 1, 0, 1, 0]))

    def test_constant_errors(self):
        with pytest.raises(DegenerateSeriesError):
            hall_wood_dimension(UnitGridSeries.from_values([2.0] * 20))

    def test_random_walk_calibration(self):
        rng = np.random.default_rng(100)
        dims = [
            hall_wood_dimension(UnitGridSeries(random_walk(10_000, rng))).raw
            for _ in range(200)
        ]
        assert np.mean(dims) == pytest.approx(1.5, abs=0.05)

    def test_clamp_keeps_raw(self):
        # short pathological series can land outside [1, 2)
        rng = np.random.default_rng(8)
        for _ in range(200):
            g = UnitGridSeries(rng.uniform(0, 1, 9))
            try:
                est = hall_wood_dimension(g)
            except DegenerateSeriesError:
                continue
            assert 1.0 <= est.value < 2.0
            assert np.isfinite(est.raw)

    def test_amplitude_scale_invariance(self):
        rng = np.random.default_rng(21)
        v = rng.uniform(0, 1, 101)
        a = hall_wood_dimension(UnitGridSeries(v)).raw
        b = hall_wood_dimension(UnitGridSeries(v * 1234.5)).raw
        assert a == pytest.approx(b, rel=1e-12)

    def test_vertical_shift_invariance(self):
        rng = np.random.default_rng(22)
        v = rng.uniform(0, 1, 101)
        a = hall_wood_dimension(UnitGridSeries(v)).raw
        b = hall_wood_dimension(UnitGridSeries(v + 777.0)).raw
        assert a == pytest.approx(b, rel=1e-12)


class TestOls:
    def test_reduces_to_two_scale(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            v = np.cumsum(rng.standard_normal(64))
            g = UnitGridSeries(v)
            try:
                two = hall_wood_dimension(g).raw
            except DegenerateSeriesError:
                continue
            assert hall_wood_ols(g, 2) == pytest.approx(two, rel=1e-10)

    def test_straight_line_any_L(self):
        # n divisible by every scale keeps the floor() exact
        g = UnitGridSeries.from_values(np.arange(121, dtype=float))
        for L in (2, 3, 4, 5, 6):
            assert hall_wood_ols(g, L) == pytest.approx(1.0, abs=1e-12)

    def test_fbm_hurst_relation(self):
        rng = np.random.default_rng(31)
        dims = [
            hall_wood_ols(UnitGridSeries(fbm(10_000, 0.3, rng)), 2) for _ in range(200)
        ]
        assert np.mean(dims) == pytest.approx(1.7, abs=0.07)

    @pytest.mark.parametrize("hurst", [0.0, 1.0])
    def test_fbm_hurst_out_of_range(self, hurst):
        with pytest.raises(ValueError, match=r"hurst must lie in \(0, 1\)"):
            fbm(10, hurst, np.random.default_rng(0))

    def test_flat_path_gives_flat_series(self):
        # a path with no spread is not standardized: every price is the base
        s = path_to_series(np.zeros(6), "FLAT", "stock index")
        assert s.prices.tolist() == [100.0] * 6

    def test_L_too_small(self):
        g = UnitGridSeries.from_values(np.arange(20, dtype=float))
        with pytest.raises(ValueError):
            hall_wood_ols(g, 1)

    def test_zero_area_at_scale_two_only(self):
        # values alternate 0, 1: steps of one and three points move, steps of two do not
        g = UnitGridSeries.from_values([0.0, 1.0] * 6 + [0.0])
        assert [hw_area(g, l) == 0 for l in (1, 2, 3)] == [False, True, False]
        with pytest.raises(DegenerateSeriesError, match="scale l=2;"):
            hall_wood_ols(g, 3)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_ols2_equals_two_scale_property(self, seed):
        rng = np.random.default_rng(seed)
        g = UnitGridSeries(np.cumsum(rng.standard_normal(40)))
        try:
            two = hall_wood_dimension(g).raw
        except DegenerateSeriesError:
            return
        assert hall_wood_ols(g, 2) == pytest.approx(two, rel=1e-10)


class TestHallWoodClamp:
    # alternating 10/12 and ending at 11: every estimator overshoots 2
    PRICES = [10, 12] * 6 + [11]

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    def test_value_clamped_for_every_L(self, L):
        est = hall_wood(daily_series(self.PRICES), L)
        assert est.raw > 2.0
        assert est.value == np.nextafter(2.0, 1.0)

    def test_cli_prints_clamped_dimension(self, tmp_path, capsys):
        from marketcomplexity.cli import main

        path = tmp_path / "m.csv"
        path.write_text(
            "".join(f"2013-01-{i + 1:02d},{p}\n" for i, p in enumerate(self.PRICES))
        )
        assert main(["fractal", str(path), "--L", "3"]) == 0
        fields = dict(t.split("=", 1) for t in capsys.readouterr().out.split())
        assert 1.0 <= float(fields["dimension"]) < 2.0
        assert float(fields["raw"]) > 2.0
        assert fields["L"] == "3"
