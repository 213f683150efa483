from datetime import datetime, timezone

import numpy as np
import pytest

from marketcomplexity.align import (
    AlignedPair,
    LinearTimeMap,
    align,
    detect_peaks,
    fit_time_map,
    nearest_filter,
)
from marketcomplexity.errors import AlignmentError
from marketcomplexity.ingest import SampledSeries, to_absolute_time

from conftest import daily_series, edge_floats


def _abs(y, m, d):
    return to_absolute_time(datetime(y, m, d, tzinfo=timezone.utc))


def sampled(times, prices, id="S"):
    return SampledSeries(id, np.asarray(times, float), np.asarray(prices, float))


class TestDetectPeaks:
    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            detect_peaks(daily_series([1, 3, 1, 5, 1]), 0)

    def test_exhaustive_scan_example(self):
        s = daily_series([1, 3, 1, 5, 1])
        peaks = detect_peaks(s, 2)
        assert [p for _, p in peaks] == [3.0, 5.0]  # chronological order
        assert peaks[0][0] < peaks[1][0]

    def test_strictly_increasing_endpoint(self):
        s = daily_series([1, 2, 3, 4])
        peaks = detect_peaks(s, 1)
        assert peaks[0][1] == 4.0

    def test_too_few_maxima(self):
        with pytest.raises(AlignmentError):
            detect_peaks(daily_series([1, 2, 3, 4]), 2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            # odd trials draw from a few levels, so equal peaks and flat runs occur
            if trial % 2:
                prices = rng.integers(1, 5, size=30).astype(float)
            else:
                prices = rng.uniform(1, 100, size=30)
            s = daily_series(prices)
            n = len(prices)
            maxima = [
                i
                for i in range(n)
                if (i == 0 or prices[i] > prices[i - 1])
                and (i == n - 1 or prices[i] > prices[i + 1])
            ]
            if len(maxima) < 2:
                with pytest.raises(AlignmentError):
                    detect_peaks(s, 2)
                continue
            expected = sorted(sorted(maxima, key=lambda i: -prices[i])[:2])
            got = detect_peaks(s, 2)
            assert got == [(s.abs_times()[i], prices[i]) for i in expected]


class TestFitTimeMap:
    def test_bitcoin_gold_published_slope(self):
        m = fit_time_map(
            (_abs(2013, 4, 9), _abs(2013, 11, 29)),
            (_abs(1980, 1, 22), _abs(2011, 9, 5)),
        )
        assert m.slope == pytest.approx(49.3547, abs=0.02)

    def test_gold_silver_published_slope(self):
        m = fit_time_map(
            (_abs(1980, 1, 22), _abs(2011, 9, 5)),
            (_abs(1980, 1, 21), _abs(2011, 4, 28)),
        )
        assert m.slope == pytest.approx(0.98883, abs=0.001)

    def test_identity(self):
        m = fit_time_map((10.0, 20.0), (10.0, 20.0))
        assert m.slope == 1.0 and m.intercept == 0.0

    def test_anchors_mapped_exactly(self):
        m = fit_time_map((3.0, 11.0), (100.0, 900.0))
        assert m.apply(3.0) == 100.0
        assert m.apply(11.0) == 900.0

    def test_coincident_anchors_error(self):
        with pytest.raises(AlignmentError):
            fit_time_map((5.0, 5.0), (1.0, 2.0))

    def test_destination_anchors_not_chronological_error(self):
        with pytest.raises(AlignmentError, match="destination anchors"):
            fit_time_map((1.0, 2.0), (5.0, 4.0))

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            LinearTimeMap(-1.0, 0.0)


IDENTITY = (0.0, 1.0), (0.0, 1.0)


class TestTruncateOverlap:
    """`align` keeps only the span both series cover; identity anchors
    leave the source clock as it is."""

    def test_interval_intersection(self):
        src = sampled([10, 16, 20], [1, 1, 1])
        dst = sampled([15, 18, 30], [2, 2, 2])
        pair = align(src, dst, *IDENTITY)
        # source 10 and destination 30 lie outside [15, 20]
        assert len(pair) == 2
        assert list(pair.times) == [15, 18]

    def test_nested_src_unchanged(self):
        src = sampled([5, 6, 7], [1, 2, 3])
        dst = sampled([0, 5.5, 6.5, 10], [2, 2, 2, 2])
        pair = align(src, dst, *IDENTITY)
        assert list(pair.source_prices) == [1, 2, 3]
        # 6 is equidistant from 5.5 and 6.5; 0 and 10 are never matched
        assert list(pair.times) == [5.5, 5.5, 6.5]

    def test_destination_outside_overlap_never_matched(self):
        # 4.9 and 7.1 are nearer to source 5 and 7, but lie outside [5, 7]
        src = sampled([5, 6, 7], [1, 2, 3])
        dst = sampled([4.9, 5.5, 6.5, 7.1], [2, 2, 2, 2])
        assert list(align(src, dst, *IDENTITY).times) == [5.5, 5.5, 6.5]

    def test_disjoint_error(self):
        with pytest.raises(AlignmentError, match="disjoint"):
            align(sampled([0, 1], [1, 1]), sampled([5, 6], [1, 1]), *IDENTITY)

    def test_single_point_overlap_error(self):
        with pytest.raises(AlignmentError, match="fewer than 2 points"):
            align(sampled([0, 5], [1, 1]), sampled([5, 9], [1, 1]), *IDENTITY)

    def test_empty_series_error(self):
        with pytest.raises(AlignmentError, match="empty"):
            align(sampled([], []), sampled([5, 9], [1, 1]), *IDENTITY)


class TestNearestFilter:
    def test_by_inspection(self):
        src = sampled([0, 100], [1, 2])
        dst = sampled([-5, 40, 99], [10, 20, 30])
        pair = nearest_filter(src, dst)
        assert list(pair.times) == [-5, 99]
        assert list(pair.dest_prices) == [10, 30]

    def test_exact_match_identity(self):
        src = sampled([1, 2, 3], [5, 6, 7])
        dst = sampled([1, 2, 3], [8, 9, 10])
        pair = nearest_filter(src, dst)
        assert list(pair.dest_prices) == [8, 9, 10]

    def test_tie_breaks_earlier(self):
        src = sampled([50, 51], [1, 1])
        dst = sampled([40, 60], [10, 20])
        pair = nearest_filter(src, dst)
        assert pair.times[0] == 40  # equidistant, earlier wins

    def test_one_point_source_error(self):
        with pytest.raises(AlignmentError, match="at least 2 points"):
            nearest_filter(sampled([1], [1]), sampled([1, 2], [1, 1]))

    def test_empty_destination_error(self):
        with pytest.raises(AlignmentError, match="destination series is empty"):
            nearest_filter(sampled([1, 2], [1, 1]), sampled([], []))

    def test_output_length_equals_source(self):
        rng = np.random.default_rng(0)
        src = sampled(np.sort(rng.uniform(0, 100, 37)), rng.uniform(1, 2, 37))
        dst = sampled(np.sort(rng.uniform(0, 100, 11)), rng.uniform(1, 2, 11))
        assert len(nearest_filter(src, dst)) == 37


class TestAlignPipeline:
    def test_time_shifted_copy_recovers_identity(self):
        rng = np.random.default_rng(5)
        # integer timestamps keep the fitted map exact in floating point
        times = np.sort(rng.choice(100_000, size=50, replace=False)).astype(float)
        prices = rng.uniform(10, 20, 50)
        dst = sampled(times, prices, "DST")
        src = sampled(times + 12345.0, prices, "SRC")  # same data, shifted clock
        anchors_src = (src.times[4], src.times[40])
        anchors_dst = (times[4], times[40])
        pair = align(src, dst, anchors_src, anchors_dst)
        assert np.allclose(pair.source_prices, pair.dest_prices)

    def test_mapped_times_may_coincide(self):
        # 1 us apart at 2020 magnitudes; a slope of 0.02 maps both onto one
        # float second, and each source point is still paired
        t = 3_786_825_599.999999
        src = sampled([t - 86400, t, t + 1e-6, t + 86400], [1, 2, 3, 4], "SRC")
        m = fit_time_map((t - 86400, t + 86400), (t, t + 3456))
        assert m.apply(t) == m.apply(t + 1e-6)
        dst = sampled([t, t + 1728, t + 3456], [5, 6, 7], "DST")
        pair = align(src, dst, (t - 86400, t + 86400), (t, t + 3456))
        assert list(pair.source_prices) == [1, 2, 3, 4]
        assert list(pair.dest_prices) == [5, 6, 6, 7]


class TestSampledSeries:
    def test_equal_neighbours_accepted(self):
        assert len(sampled([1, 2, 2, 3], [1, 1, 1, 1])) == 4

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            sampled([1, 3, 2], [1, 1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="times and prices length mismatch"):
            sampled([1, 2, 3], [1, 1])


def test_aligned_pair_lengths_must_match():
    with pytest.raises(ValueError, match="aligned pair arrays must have equal length"):
        AlignedPair(np.arange(3.0), np.ones(3), np.ones(2))


def test_aligned_csv_matches_per_row_loop():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        signed = np.concatenate([edge_floats(seed), -edge_floats(seed)])
        columns = [rng.permutation(signed) for _ in range(3)]
        pair = AlignedPair(*columns)
        expected = "dest_time,source_price,dest_price\n" + "".join(
            f"{float(t)!r},{float(sp)!r},{float(dp)!r}\n" for t, sp, dp in zip(*columns)
        )
        assert pair.to_csv() == expected
