import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from marketcomplexity.errors import DegenerateSeriesError
from marketcomplexity.returns import (
    MAX_HISTOGRAM_BINS,
    HistogramSpec,
    ReturnStatistics,
    _ndtr,
    build_histogram,
    daily_returns,
    _fd_bin_count,
    _quartiles,
    lognormal_reference,
    log_returns,
    moments,
)

from conftest import daily_series, edge_floats


class TestDailyReturns:
    def test_constant(self):
        assert list(daily_returns(daily_series([100, 100, 100]))) == [1.0, 1.0]

    def test_doubling(self):
        assert list(daily_returns(daily_series([1, 2]))) == [2.0]

    def test_direct_ratios(self):
        assert list(daily_returns(daily_series([2, 1, 4]))) == [0.5, 4.0]

    def test_scale_invariance(self):
        prices = [3.0, 5.0, 4.0, 8.0]
        a = daily_returns(daily_series(prices))
        b = daily_returns(daily_series([p * 17.3 for p in prices]))
        assert np.allclose(a, b)


class TestLogReturns:
    def test_constant_zero(self):
        assert list(log_returns(daily_series([5, 5, 5]))) == [0.0, 0.0]

    def test_unit_log(self):
        assert log_returns(daily_series([1, math.e]))[0] == pytest.approx(1.0)

    def test_up_down_symmetry(self):
        r = log_returns(daily_series([1, 2, 1]))
        assert r[0] == pytest.approx(math.log(2))
        assert r[1] == pytest.approx(-math.log(2))

    def test_telescoping_sum(self):
        prices = [3.0, 7.0, 2.5, 9.1, 4.4]
        total = log_returns(daily_series(prices)).sum()
        assert total == pytest.approx(math.log(prices[-1] / prices[0]), rel=1e-12)


class TestMoments:
    def test_degenerate_variance_errors(self):
        with pytest.raises(DegenerateSeriesError):
            moments([1, 1, 1, 1])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_sample_errors(self, bad):
        with pytest.raises(DegenerateSeriesError, match="non-finite"):
            moments([0.1, bad, -0.2])

    def test_two_point_closed_form(self):
        st_ = moments([-1, 1])
        assert st_.mean == 0.0
        assert st_.std_dev == pytest.approx(math.sqrt(2))

    def test_normal_sample_kurtosis(self):
        rng = np.random.default_rng(42)
        st_ = moments(rng.standard_normal(10**6))
        assert st_.kurtosis == pytest.approx(3.0, abs=0.05)
        assert st_.skewness == pytest.approx(0.0, abs=0.02)

    def test_negation_flips_skewness_only(self):
        rng = np.random.default_rng(3)
        x = rng.exponential(size=500)
        a, b = moments(x), moments(-x)
        assert a.skewness == pytest.approx(-b.skewness, rel=1e-9)
        assert a.kurtosis == pytest.approx(b.kurtosis, rel=1e-9)


class TestLognormalReference:
    def test_total_mass(self):
        st_ = ReturnStatistics(0, 1, 3, 0, 100)
        out = lognormal_reference(st_, [-1e9, 1e9], 100)
        assert out[0] == pytest.approx(100, abs=1e-6)

    def test_symmetry_split(self):
        st_ = ReturnStatistics(0, 1, 3, 0, 100)
        out = lognormal_reference(st_, [-1e9, 0, 1e9], 100)
        assert out[0] == pytest.approx(50)
        assert out[1] == pytest.approx(50)

    def test_central_bin_against_quadrature(self):
        # independent oracle: numerically integrate the standard normal pdf
        from scipy.integrate import quad

        mass, _ = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), -1, 1)
        st_ = ReturnStatistics(0, 1, 3, 0, 1000)
        out = lognormal_reference(st_, [-1, 1], 1000)
        assert out[0] == pytest.approx(1000 * mass, rel=1e-9)
        assert out[0] == pytest.approx(682.7, abs=0.1)

    def test_zero_std_errors(self):
        with pytest.raises(DegenerateSeriesError):
            lognormal_reference(ReturnStatistics(0, 0, 3, 0, 10), [0, 1], 10)

    def test_matches_norm_cdf_bit_for_bit(self):
        # ndtr is what norm.cdf evaluates at loc 0, scale 1; the grid holds
        # the infinities, both zeros and the +-1/sqrt(2) branch points of
        # ndtr, with their neighbours
        from scipy.stats import norm

        r = 1 / math.sqrt(2)
        special = [-np.inf, np.inf, -0.0, 0.0, 5e-324, -5e-324, 40.0, -40.0]
        for b in (r, -r):
            special += [b, np.nextafter(b, 0), np.nextafter(b, 2 * b)]
        rng = np.random.default_rng(9)
        grid = np.concatenate(
            [special, rng.normal(0, 2, 100_000), rng.uniform(-40, 40, 100_000)]
        )
        for mean, std in ((0.0, 1.0), (0.0012, 0.017)):
            st_ = ReturnStatistics(mean, std, 3, 0, 1)
            # the bin [-inf, x) holds exactly Phi(x)
            edges = np.ravel(np.column_stack([np.full(len(grid), -np.inf), grid]))
            out = lognormal_reference(st_, edges, 1)
            z = (grid - mean) / std
            assert (out[0::2] == norm.cdf(z)).all()
            assert (out == np.diff(norm.cdf((edges - mean) / std))).all()


class TestNdtrPort:
    def test_matches_scipy_ndtr_bit_for_bit(self):
        # oracle: the Cephes routine compiled into scipy; the grid holds each
        # branch point of ndtr/erf/erfc with both neighbours
        from scipy.special import ndtr

        branch = [1.0, math.sqrt(2), 8 * math.sqrt(2), math.sqrt(2 * 7.09782712893383996843e2)]
        special = [0.0, 5e-324, math.inf]
        for b in branch:
            special += [b, np.nextafter(b, 0), np.nextafter(b, math.inf)]
        special += [-v for v in special]
        rng = np.random.default_rng(11)
        grid = np.concatenate(
            [
                special,
                rng.normal(0, 2, 100_000),
                rng.uniform(-40, 40, 50_000),
                rng.uniform(-1.5, 1.5, 50_000),
            ]
        )
        ours = np.array([_ndtr(a) for a in grid.tolist()])
        ref = ndtr(grid)
        assert np.array_equal(ours, ref)
        assert np.array_equal(np.signbit(ours), np.signbit(ref))
        assert math.isnan(_ndtr(math.nan)) and math.isnan(ndtr(math.nan))


class TestHistogram:
    def test_counts_partition_sample(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(5000)
        hist = build_histogram(x)
        assert hist.observed_counts.sum() == 5000
        assert len(hist.observed_counts) == len(hist.bin_edges) - 1

    def test_csv_shape(self):
        rng = np.random.default_rng(10)
        hist = build_histogram(rng.standard_normal(100))
        lines = hist.to_csv().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,observed,expected"
        assert len(lines) == len(hist.observed_counts) + 1

    def test_jump_beside_near_zero_spread_is_refused(self):
        # Freedman-Diaconis would ask for about 3e13 bins here
        rng = np.random.default_rng(0)
        prices = 100 * np.exp(np.cumsum(1e-13 * rng.standard_normal(400)))
        prices[200:] *= 3
        x = log_returns(daily_series(prices))
        with pytest.raises(DegenerateSeriesError, match="Freedman-Diaconis binning asks for"):
            build_histogram(x)

    def test_overflowing_bin_count_is_refused_without_warning(self):
        # a subnormal bin width beside a huge range: the count overflows to
        # inf, which is refused like any count above the limit
        x = np.array([0.0] * 3 + [5e-324] * 3 + [1e308])
        with pytest.raises(DegenerateSeriesError, match="asks for inf bins"):
            _fd_bin_count(x)

    @pytest.mark.parametrize(
        "edges, observed, expected, message",
        [
            (4, 2, 2, "observed_counts length must be len(bin_edges) - 1"),
            (3, 2, 3, "expected_counts length mismatch"),
        ],
    )
    def test_spec_lengths_must_match(self, edges, observed, expected, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            HistogramSpec(np.arange(float(edges)), np.zeros(observed), np.zeros(expected))

    def test_given_stats_are_used(self):
        x = np.random.default_rng(11).standard_normal(300)
        a, b = build_histogram(x), build_histogram(x, moments(x))
        for name in ("bin_edges", "observed_counts", "expected_counts"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_csv_matches_per_row_loop(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            signed = np.concatenate([edge_floats(seed), -edge_floats(seed)])
            edges = np.sort(signed)
            observed = rng.integers(0, 10**6, len(edges) - 1)
            expected = rng.permutation(signed)[1:]
            hist = HistogramSpec(edges, observed, expected)
            rows = [
                f"{float(lo)!r},{float(hi)!r},{int(obs)},{float(exp)!r}"
                for lo, hi, obs, exp in zip(edges[:-1], edges[1:], observed, expected)
            ]
            assert hist.to_csv() == "\n".join(["bin_lo,bin_hi,observed,expected"] + rows) + "\n"


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=50))
def test_moments_mean_matches_numpy(xs):
    arr = np.asarray(xs)
    if np.mean((arr - arr.mean()) ** 2) == 0:
        with pytest.raises(DegenerateSeriesError):
            moments(xs)
    else:
        assert moments(xs).mean == pytest.approx(arr.mean(), rel=1e-9, abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=300),
    st.floats(1e-12, 1.0),
)
def test_fd_bin_count_matches_numpy(xs, scale):
    """The bounded count gives the same edges as numpy's own `bins="fd"`,
    and refuses exactly the samples numpy would give too many bins."""
    x = np.asarray(xs) * scale
    if x.min() == x.max():
        return
    # numpy's own count, as `_hist_bin_fd` computes it; asking numpy for
    # the edges only below the limit keeps a wrong count from exhausting
    # memory
    width = 2.0 * np.subtract(*np.percentile(x, [75, 25])) * x.size ** (-1.0 / 3.0)
    with np.errstate(over="ignore"):  # numpy's count too may overflow to inf
        numpy_bins = np.ceil((x.max() - x.min()) / width) if width else 1
    if numpy_bins > MAX_HISTOGRAM_BINS:
        with pytest.raises(DegenerateSeriesError):
            _fd_bin_count(x)
    else:
        edges = np.histogram_bin_edges(x, bins=_fd_bin_count(x))
        assert np.array_equal(edges, np.histogram_bin_edges(x, "fd"))


@settings(max_examples=400, deadline=None)
@given(
    # drawn from a pool of at most 30 values, so that most samples have ties
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=200)
    ),
    st.floats(1e-6, 1.0),
)
def test_quartiles_match_numpy_percentile(xs, scale):
    x = np.asarray(xs) * scale
    assert _quartiles(x) == np.percentile(x, [75, 25]).tolist()
