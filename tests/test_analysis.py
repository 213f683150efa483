import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from marketcomplexity.analysis import (
    MarketMetrics,
    _complete_linkage_cut,
    compute_market_metrics,
    correlate_markets,
    group_markets,
    pearson_correlation,
    report_csv,
)
from marketcomplexity.errors import DegenerateSeriesError, MarketComplexityError
from marketcomplexity.synthetic import market_fixture

from conftest import daily_series


class TestPearson:
    def test_self_correlation(self):
        x = [1.0, 5.0, 2.0, 8.0]
        assert pearson_correlation(x, x) == 1.0

    def test_anti_correlation(self):
        x = np.array([1.0, 5.0, 2.0, 8.0])
        assert pearson_correlation(x, -x) == -1.0

    def test_three_point_closed_form(self):
        a, b = np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0])
        da, db = a - a.mean(), b - b.mean()
        expected = (da @ db) / np.sqrt((da @ da) * (db @ db))
        assert pearson_correlation(a, b) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(size=30), rng.uniform(size=30)
        assert pearson_correlation(a, b) == pytest.approx(
            pearson_correlation(b, a), rel=1e-12
        )

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(2)
        a, b = rng.uniform(size=30), rng.uniform(size=30)
        assert pearson_correlation(3 * a + 11, b) == pytest.approx(
            pearson_correlation(a, b), rel=1e-9
        )

    def test_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = rng.standard_normal(10), rng.standard_normal(10)
            assert -1.0 <= pearson_correlation(a, b) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_correlation([1, 2], [1, 2, 3])

    def test_single_sample(self):
        with pytest.raises(ValueError, match="need at least 2 samples"):
            pearson_correlation([1.0], [2.0])

    def test_zero_variance(self):
        with pytest.raises(DegenerateSeriesError):
            pearson_correlation([1, 1, 1], [1, 2, 3])


class TestCorrelateMarkets:
    def test_shifted_copy_is_one(self):
        rng = np.random.default_rng(7)
        prices = np.exp(np.cumsum(rng.standard_normal(120) * 0.05)) * 50
        from datetime import datetime, timezone

        dst = daily_series(prices, id="DST")
        src = daily_series(
            prices, id="SRC", start=datetime(2016, 3, 1, tzinfo=timezone.utc)
        )
        t_dst, t_src = dst.abs_times(), src.abs_times()
        value = correlate_markets(
            src, dst, (t_src[10], t_src[100]), (t_dst[10], t_dst[100])
        )
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_random_walk_pair_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = daily_series(np.exp(np.cumsum(rng.standard_normal(80)) * 0.02), id="A")
            b = daily_series(np.exp(np.cumsum(rng.standard_normal(80)) * 0.02), id="B")
            ta, tb = a.abs_times(), b.abs_times()
            v = correlate_markets(a, b, (ta[5], ta[70]), (tb[5], tb[70]))
            assert -1.0 <= v <= 1.0

    def test_movements_variant(self):
        rng = np.random.default_rng(9)
        prices = np.exp(np.cumsum(rng.standard_normal(60) * 0.03)) * 10
        s = daily_series(prices, id="S")
        t = s.abs_times()
        v = correlate_markets(s, s, (t[4], t[50]), (t[4], t[50]), movements=True)
        assert v == pytest.approx(1.0, abs=1e-9)


def simple_markets(vectors):
    markets = []
    for id, vec in vectors.items():
        m = MarketMetrics(id=id, kind="stock index")
        m.values = {f"f{i}": v for i, v in enumerate(vec)}
        markets.append(m)
    return markets, [f"f{i}" for i in range(len(next(iter(vectors.values()))))]


class TestGrouping:
    def test_singletons(self):
        markets, feats = simple_markets({"A": [1, 2], "B": [3, 4], "C": [5, 6]})
        assert group_markets(markets, feats, 3) == [["A"], ["B"], ["C"]]

    def test_identical_vectors_merge_first(self):
        markets, feats = simple_markets({"A": [1, 1], "B": [1, 1], "C": [9, 9]})
        groups = group_markets(markets, feats, 2)
        assert ["A", "B"] in groups and ["C"] in groups

    def test_partition_property(self):
        rng = np.random.default_rng(5)
        vectors = {f"M{i}": list(rng.uniform(size=3)) for i in range(8)}
        markets, feats = simple_markets(vectors)
        for k in (1, 2, 4, 8):
            groups = group_markets(markets, feats, k)
            ids = sorted(x for g in groups for x in g)
            assert ids == sorted(vectors)
            assert len(groups) == k

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(6)
        vectors = {f"M{i}": list(rng.uniform(size=2)) for i in range(6)}
        markets, feats = simple_markets(vectors)
        scaled = {id: [v[0] * 100 + 3, v[1] * 0.5 + 9] for id, v in vectors.items()}
        markets2, _ = simple_markets(scaled)
        assert group_markets(markets, feats, 3) == group_markets(markets2, feats, 3)

    def test_missing_feature_errors(self):
        markets, feats = simple_markets({"A": [1], "B": [2]})
        markets[0].values.pop("f0")
        with pytest.raises(MarketComplexityError):
            group_markets(markets, feats, 2)

    def test_k_below_one(self):
        markets, feats = simple_markets({"A": [1], "B": [2]})
        with pytest.raises(ValueError, match="k must be at least 1"):
            group_markets(markets, feats, 0)

    def test_k_exceeds_markets(self):
        markets, feats = simple_markets({"A": [1], "B": [2]})
        with pytest.raises(ValueError):
            group_markets(markets, feats, 3)

    def test_fixture_fx_forms_own_group(self, table2):
        # the fractal dimension separates the smooth FX-like markets
        fix = market_fixture(n=800)
        rows = [compute_market_metrics(s, s, table2) for s in fix]
        groups = group_markets(rows, ["std_log_return", "hall_wood_full"], 2)
        fx = sorted(s.id for s in fix if s.kind == "foreign exchange")
        assert fx in groups


class TestGroupingMatchesScipy:
    """scipy's complete linkage cut by `maxclust` is the oracle; ties in
    the integer and one-decimal families decide the merge order."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_partitions_equal_scipy(self, data):
        from scipy.cluster.hierarchy import fcluster, linkage
        from scipy.spatial.distance import pdist

        n = data.draw(st.integers(2, 40), label="n")
        f = data.draw(st.integers(1, 16), label="f")
        family = data.draw(st.sampled_from(["gaussian", "grid", "one-decimal"]), label="family")
        if family == "gaussian":
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            x = np.random.default_rng(seed).standard_normal((n, f))
        elif family == "grid":
            x = data.draw(arrays(float, (n, f), elements=st.sampled_from([0.0, 1.0, 2.0])))
        else:
            x = data.draw(arrays(np.int64, (n, f), elements=st.integers(-30, 30))) / 10
        ids = [f"M{i:02d}" for i in range(n)]
        markets, feats = simple_markets(dict(zip(ids, x.tolist())))
        std = x.std(axis=0)
        std[std == 0] = 1.0
        # condensed distances, which `linkage` would compute from the
        # observations, so that no square symmetric draw reads as a matrix
        tree = linkage(pdist((x - x.mean(axis=0)) / std), method="complete")
        for k in range(1, n + 1):
            labels = fcluster(tree, t=k, criterion="maxclust")
            expected = sorted(
                [ids[i] for i in np.flatnonzero(labels == lab)] for lab in set(labels)
            )
            assert group_markets(markets, feats, k) == expected, k

    def test_distances_summed_in_pdist_order(self):
        # summed feature by feature, A-C and B-C both come to 5.999999999999999
        # and the tie goes to the lowest index; summed pairwise, A-C is 6.0
        markets, feats = simple_markets({
            "A": [1, 1, 1, 0, 0, 0, 2, 0, 2, 2, 1, 2, 1, 1, 0, 0],
            "B": [0, 2, 1, 2, 2, 1, 2, 0, 1, 2, 2, 0, 0, 2, 0, 2],
            "C": [2, 1, 0, 2, 1, 1, 1, 0, 1, 2, 0, 2, 0, 1, 0, 2],
        })
        assert group_markets(markets, feats, 2) == [["A", "C"], ["B"]]

    def test_chain_keeps_its_previous_element_on_a_tie(self):
        # stepping to the lowest-index nearest cluster instead of back to
        # the previous chain element, as near, ends in [A, E], [B, C, D]
        markets, feats = simple_markets(
            {"A": [0, 1], "B": [2, 1], "C": [1, 0], "D": [2, 0], "E": [0, 0]}
        )
        assert group_markets(markets, feats, 2) == [["A", "C", "E"], ["B", "D"]]

    def test_k_equal_to_market_count_gives_singletons(self):
        markets, feats = simple_markets({"A": [1, 1], "B": [1, 1], "C": [2, 5], "D": [2, 5]})
        assert group_markets(markets, feats, 4) == [["A"], ["B"], ["C"], ["D"]]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "column",
        [
            [float("nan"), 0, 1],
            [float("inf"), 0, 1],
            [-float("inf"), 0, 1],
            [1.7e308, 1.7e308, -1.7e308],  # the mean overflows
            [1.7e308, -1.7e308, 0],  # the squares overflow
        ],
        ids=["nan", "inf", "-inf", "mean-overflows", "square-overflows"],
    )
    def test_non_finite_feature_rejected(self, column):
        markets, feats = simple_markets(
            {id: [i, v] for i, (id, v) in enumerate(zip("ABC", column))}
        )
        with returns_within(5):
            for k in (2, 3):
                with pytest.raises(ValueError, match="feature distances must be finite"):
                    group_markets(markets, feats, k)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_linkage_refuses_non_finite_distances(self, value):
        # `group_markets` refuses such a column before the linkage sees it
        z = np.array([[value], [0.0], [1.0]])
        with returns_within(5):
            with pytest.raises(ValueError, match="feature distances must be finite"):
                _complete_linkage_cut(z, 1)


@contextmanager
def returns_within(seconds):
    """Fails the block after `seconds`: a nearest-neighbour chain over
    non-finite distances never ends."""

    def hang(signum, frame):
        raise AssertionError(f"did not return within {seconds} s")

    old = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class TestMetricReport:
    def test_all_columns_present_or_failed(self, table2):
        from marketcomplexity.analysis import METRIC_COLUMNS

        s = daily_series([1.0 + 0.01 * ((i * 7) % 13) for i in range(60)])
        m = compute_market_metrics(s, s, table2)
        for col in METRIC_COLUMNS:
            assert col in m.values or col in m.failures

    def test_constant_market_failures_have_reasons(self, table2):
        s = daily_series([5.0] * 40)
        m = compute_market_metrics(s, s, table2)
        assert m.values["block_entropy_normalized"] == 0.0
        assert "hall_wood_window" in m.failures
        assert "kurtosis" in m.failures
        assert m.failures["hall_wood_window"]

    def test_empty_window_isolates(self, table2):
        s = daily_series([1, 2, 3, 4, 5, 6])
        m = compute_market_metrics(s, None, table2)
        assert m.failures["mean_log_return"] == "empty window"
        assert m.failures["histogram"] == "empty window"
        assert m.histogram is None
        assert "hall_wood_full" in m.values

    def test_non_finite_cell_is_failed(self):
        m = MarketMetrics(id="X", kind="stock index")
        m.values.update(a=float("nan"), b=float("inf"), c=3.0, d=1e16)
        assert m.cell("a") == "FAILED: non-finite value nan"
        assert m.cell("b") == "FAILED: non-finite value inf"
        assert m.cell("c") == "3"
        assert m.cell("d") == "1e+16"  # integral values drop the fraction below 1e16 only

    def test_non_finite_metric_becomes_failure(self, table2, monkeypatch):
        from marketcomplexity import lzw

        monkeypatch.setattr(lzw, "compressibility", lambda data: float("nan"))
        s = daily_series([1.0 + 0.01 * ((i * 7) % 13) for i in range(60)])
        m = compute_market_metrics(s, s, table2)
        assert "compressibility_binary" not in m.values
        assert m.failures["compressibility_binary"] == "non-finite value nan"
        assert m.failures["compressibility_real"] == "non-finite value nan"
        assert "bdm_normalized" in m.values

    def test_failure_isolation_per_group_and_per_value(self, table2, monkeypatch):
        from dataclasses import replace

        from marketcomplexity import bdm, returns

        s = daily_series([1.0 + 0.01 * ((i * 7) % 13) for i in range(60)])
        moments = returns.moments
        monkeypatch.setattr(
            returns, "moments", lambda x: replace(moments(x), kurtosis=float("inf"))
        )
        m = compute_market_metrics(s, s, table2)
        # a non-finite value fails only its own column
        assert m.failures == {"kurtosis": "non-finite value inf"}
        assert {"mean_log_return", "std_log_return", "skewness"} <= m.values.keys()

        def broken_bdm(*args, **kwargs):
            raise ValueError("no table")

        monkeypatch.setattr(bdm, "bdm", broken_bdm)
        m = compute_market_metrics(s, s, table2)
        # a raising call fails every column of its group with one reason
        bdm_columns = ("bdm_bits", "bdm_normalized", "bdm_deficiency", "bdm_blocks_missing")
        assert m.failures == {
            "kurtosis": "non-finite value inf",
            **dict.fromkeys(bdm_columns, "no table"),
        }
        assert "block_entropy_bits" in m.values and "hall_wood_window" in m.values

    def test_csv_shape(self, table2):
        from marketcomplexity.analysis import METRIC_COLUMNS

        fix = market_fixture(n=300)
        rows = [compute_market_metrics(s, s, table2) for s in fix]
        csv_text = report_csv(rows)
        lines = csv_text.strip().splitlines()
        assert len(lines) == 13
        assert lines[0].split(",")[:2] == ["id", "kind"]
        assert len(lines[0].split(",")) == 2 + len(METRIC_COLUMNS)
