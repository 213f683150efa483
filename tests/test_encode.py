import numpy as np
from hypothesis import given, settings, strategies as st

from marketcomplexity.encode import binarize, serialize_prices
from marketcomplexity.ingest import format_number

from conftest import daily_series, edge_floats


def _format_price(value: float) -> str:
    # the rule one price at a time: integral values below 1e16 as ints
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _format_array(prices: np.ndarray) -> list[str]:
    """The rule over a whole array at once, as an object array whose
    integral cells below 1e16 are cast to int64."""
    integral = (np.trunc(prices) == prices) & (np.abs(prices) < 1e16)
    cells = prices.astype(object)
    cells[integral] = prices[integral].astype(np.int64)
    return list(map(str, cells.tolist()))  # str of a float is its repr


_SMALLEST_NORMAL = 2.2250738585072014e-308


class TestFormatNumber:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.floats()
            | st.integers(-(10**17), 10**17).map(float)
            | st.floats(-_SMALLEST_NORMAL, _SMALLEST_NORMAL),
            min_size=1,
        )
    )
    def test_matches_array_formatter(self, values):
        assert [format_number(v) for v in values] == _format_array(np.array(values))

    def test_matches_array_formatter_on_edge_floats(self):
        for seed in range(5):
            values = np.concatenate([edge_floats(seed), -edge_floats(seed), [0.0, -0.0]])
            assert [format_number(v) for v in values.tolist()] == _format_array(values)


class TestBinarize:
    def test_monotone_rise(self):
        assert binarize(daily_series([1, 2, 3])) == "11"

    def test_monotone_fall(self):
        assert binarize(daily_series([3, 2, 1])) == "00"

    def test_tie_maps_to_zero(self):
        assert binarize(daily_series([1, 2, 2, 1])) == "100"

    def test_length_contract(self):
        s = daily_series([1, 2, 1, 2, 1, 2])
        assert len(binarize(s)) == len(s) - 1

    def test_positive_scaling_invariance(self):
        prices = [1.5, 2.5, 2.0, 3.0, 2.9]
        assert (
            binarize(daily_series(prices))
            == binarize(daily_series([p * 7 for p in prices]))
        )

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            prices = rng.integers(1, 4, size=50).astype(float)
            expected = "".join("1" if b > a else "0" for a, b in zip(prices, prices[1:]))
            assert binarize(daily_series(prices)) == expected

    def test_alternating(self):
        assert binarize(daily_series([1, 2, 1, 2, 1])) == "1010"


class TestSerializePrices:
    def test_canonical_rendering(self):
        assert serialize_prices(daily_series([1.5, 2.0])) == b"1.5,2"

    def test_deterministic(self):
        s = daily_series([1.1, 2.2, 3.3])
        assert serialize_prices(s) == serialize_prices(s)

    def test_parse_back_roundtrip(self):
        prices = [213.72, 1132.26, 0.1]
        data = serialize_prices(daily_series(prices))
        assert [float(t) for t in data.decode().split(",")] == prices

    def test_roundtrip_many(self):
        import numpy as np

        rng = np.random.default_rng(2)
        for _ in range(20):
            prices = list(rng.uniform(0.001, 1e6, size=10))
            data = serialize_prices(daily_series(prices))
            assert [float(t) for t in data.decode().split(",")] == prices

    def test_matches_per_price_formatting(self):
        for seed in range(5):
            prices = edge_floats(seed)
            expected = ",".join(_format_price(p) for p in prices.tolist()).encode("ascii")
            assert serialize_prices(daily_series(prices)) == expected
