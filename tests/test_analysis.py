import numpy as np
import numpy.testing as npt
import pytest

from coincast.analysis import (
    daily_returns,
    decompose_additive,
    distribution_stats,
    correlation_matrix,
    market_dominance,
    returns_histogram,
    rolling_correlation,
    rolling_volatility,
    sma,
    sma_crossover_backtest,
)
from coincast.errors import DomainError, ShapeError, SizingError


class TestDailyReturns:
    def test_hand_values(self):
        npt.assert_allclose(daily_returns([100.0, 110.0, 99.0]), [0.1, -0.1], rtol=1e-12)

    def test_constant_prices_give_zero(self):
        npt.assert_array_equal(daily_returns([50.0, 50.0, 50.0]), [0.0, 0.0])

    def test_length_is_one_less(self):
        assert daily_returns(np.arange(1.0, 9.0)).size == 7

    def test_needs_two_prices(self):
        with pytest.raises(SizingError):
            daily_returns([5.0])

    def test_non_positive_price(self):
        with pytest.raises(DomainError, match="index 1"):
            daily_returns([5.0, 0.0, 4.0])


class TestRollingVolatility:
    def test_constant_returns_zero_vol(self):
        vol = rolling_volatility(np.full(12, 0.25), window=5)
        npt.assert_array_equal(vol, np.zeros(8))

    def test_matches_sample_std(self):
        r = np.array([0.1, -0.1, 0.1])
        npt.assert_allclose(rolling_volatility(r, 3)[0], 0.11547005383792516, rtol=1e-12)

    def test_window_slides(self):
        r = np.random.default_rng(8).normal(size=40)
        vol = rolling_volatility(r, 30)
        assert vol.size == 11
        npt.assert_allclose(vol[3], np.std(r[3:33], ddof=1), rtol=1e-12)

    def test_scale_equivariant(self):
        r = np.random.default_rng(9).normal(size=50)
        npt.assert_array_equal(rolling_volatility(2.0 * r, 10), 2.0 * rolling_volatility(r, 10))

    def test_window_too_large(self):
        with pytest.raises(SizingError, match="exceeds"):
            rolling_volatility(np.ones(5), 6)

    def test_window_too_small(self):
        with pytest.raises(SizingError):
            rolling_volatility(np.ones(5), 1)


class TestCorrelationMatrix:
    def test_linear_relation_is_unit_correlation(self):
        x = np.arange(20.0)
        out = correlation_matrix([x, 2.0 * x + 1.0, -3.0 * x + 7.0])
        npt.assert_allclose(out[0, 1], 1.0, atol=1e-12)
        npt.assert_allclose(out[0, 2], -1.0, atol=1e-12)

    def test_diagonal_exactly_one_and_symmetric(self):
        rng = np.random.default_rng(10)
        series = rng.normal(size=(5, 100))
        out = correlation_matrix(series)
        npt.assert_array_equal(np.diag(out), np.ones(5))
        npt.assert_array_equal(out, out.T)
        assert np.all(np.abs(out) <= 1.0 + 1e-12)

    def test_zero_variance_raises(self):
        with pytest.raises(DomainError, match="series 1"):
            correlation_matrix([np.arange(4.0), np.full(4, 2.0)])

    def test_needs_two_series(self):
        with pytest.raises(SizingError):
            correlation_matrix([np.arange(4.0)])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            correlation_matrix([np.arange(4.0), np.arange(5.0)])


class TestRollingCorrelation:
    def test_identical_series(self):
        x = np.random.default_rng(11).normal(size=30)
        out = rolling_correlation(x, x, 10)
        assert out.size == 21
        npt.assert_allclose(out, np.ones(21), atol=1e-12)

    def test_zero_variance_window_is_nan(self):
        a = np.concatenate([np.full(6, 3.0), np.random.default_rng(12).normal(size=6)])
        b = np.random.default_rng(13).normal(size=12)
        out = rolling_correlation(a, b, 4)
        assert np.isnan(out[0])  # window of constant a
        assert np.isfinite(out[-1])

    def test_window_minimum(self):
        with pytest.raises(SizingError):
            rolling_correlation(np.ones(9), np.ones(9), 2)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            rolling_correlation(np.ones(9), np.ones(8), 3)


class TestMarketDominance:
    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(14)
        caps = rng.uniform(1e6, 9e6, size=(4, 50))
        shares = market_dominance(caps)
        npt.assert_allclose(shares.sum(axis=0), np.ones(50), atol=1e-12)
        assert np.all(shares >= 0.0)

    def test_single_asset_dominates_fully(self):
        shares = market_dominance([np.array([5.0, 6.0, 7.0])])
        npt.assert_array_equal(shares, np.ones((1, 3)))

    def test_negative_cap(self):
        with pytest.raises(DomainError):
            market_dominance([[1.0, -2.0]])

    def test_all_zero_date(self):
        with pytest.raises(DomainError, match="index 1"):
            market_dominance([[1.0, 0.0], [1.0, 0.0]])


class TestDecomposition:
    def test_linear_series_is_pure_trend(self):
        s = 3.0 + 0.5 * np.arange(40.0)
        out = decompose_additive(s, period=7)
        inner = np.isfinite(out.trend)
        npt.assert_allclose(out.trend[inner], s[inner], atol=1e-9)
        npt.assert_allclose(out.seasonal[inner], 0.0, atol=1e-9)

    def test_alternating_series_even_period(self):
        s = np.array([1.0, -1.0] * 10)
        out = decompose_additive(s, period=2)
        inner = np.isfinite(out.trend)
        npt.assert_allclose(out.trend[inner], 0.0, atol=1e-12)
        npt.assert_array_equal(out.seasonal[inner], s[inner])
        npt.assert_allclose(out.residual[inner], 0.0, atol=1e-12)

    def test_seasonal_sums_to_zero_over_a_cycle(self):
        rng = np.random.default_rng(15)
        s = rng.normal(size=63) + np.tile(rng.normal(size=7), 9) * 2.0
        out = decompose_additive(s, period=7)
        start = 7  # fully inside the defined region
        cycle = out.seasonal[start : start + 7]
        npt.assert_allclose(cycle.sum(), 0.0, atol=1e-12)

    def test_edges_are_nan_and_reconstruction_exact(self):
        s = 10.0 + 0.25 * np.arange(30.0) + np.tile([1.0, 0.0, -1.0, 0.0, 0.5], 6)
        out = decompose_additive(s, period=5)
        half = 2
        assert np.all(np.isnan(out.trend[:half])) and np.all(np.isnan(out.trend[-half:]))
        inner = np.isfinite(out.trend)
        npt.assert_array_equal((out.trend[inner] + out.seasonal[inner]) + out.residual[inner], s[inner])

    def test_size_checks(self):
        with pytest.raises(SizingError):
            decompose_additive(np.ones(13), period=7)
        with pytest.raises(SizingError):
            decompose_additive(np.ones(10), period=1)


class TestSma:
    def test_hand_values(self):
        npt.assert_array_equal(sma([1.0, 2.0, 3.0, 4.0], 2), [1.5, 2.5, 3.5])

    def test_window_one_is_identity(self):
        x = np.random.default_rng(16).normal(size=9)
        npt.assert_array_equal(sma(x, 1), x)

    def test_window_too_large(self):
        with pytest.raises(SizingError):
            sma(np.ones(3), 4)


class TestBacktest:
    def test_flat_market_equals_buy_and_hold_exactly(self):
        closes = np.full(60, 250.0)
        out = sma_crossover_backtest(closes, fast=5, slow=10, initial_capital=10_000.0)
        npt.assert_array_equal(out.strategy, np.full(60, 10_000.0))
        npt.assert_array_equal(out.buy_and_hold, np.full(60, 10_000.0))
        assert out.final_strategy == out.final_buy_and_hold == 10_000.0
        assert out.trades == ()

    def test_monotone_rally_never_beats_buy_and_hold(self):
        closes = 100.0 * 1.01 ** np.arange(80.0)
        out = sma_crossover_backtest(closes, fast=5, slow=10, initial_capital=1_000.0)
        assert out.strategy[0] == 1_000.0
        assert out.buy_and_hold[0] == 1_000.0
        assert out.final_strategy <= out.final_buy_and_hold + 1e-9
        assert len(out.trades) == 1  # enters once, marked closed at the end

    def test_signal_executes_on_next_bar(self):
        # flat long enough for equal SMAs, then a jump: the cross is observed
        # at the jump bar and the buy happens one bar later.
        closes = np.concatenate([np.full(12, 100.0), [120.0, 121.0, 122.0, 123.0]])
        out = sma_crossover_backtest(closes, fast=2, slow=4, initial_capital=1_000.0)
        jump = 12
        npt.assert_array_equal(out.strategy[: jump + 1], np.full(jump + 1, 1_000.0))
        assert out.trades[0][0] == jump + 1
        # equity thereafter tracks the close relative to the entry fill
        npt.assert_allclose(out.strategy[-1], 1_000.0 / closes[jump + 1] * closes[-1], rtol=1e-12)

    def test_equity_scale_invariance(self):
        rng = np.random.default_rng(17)
        closes = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.03, size=120)))
        base = sma_crossover_backtest(closes, 5, 15, 2_000.0)
        doubled_prices = sma_crossover_backtest(2.0 * closes, 5, 15, 2_000.0)
        npt.assert_allclose(doubled_prices.strategy, base.strategy, rtol=1e-12)
        doubled_capital = sma_crossover_backtest(closes, 5, 15, 4_000.0)
        npt.assert_allclose(doubled_capital.strategy, 2.0 * base.strategy, rtol=1e-12)

    def test_costs_only_hurt(self):
        rng = np.random.default_rng(18)
        closes = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.03, size=150)))
        free = sma_crossover_backtest(closes, 5, 15, 1_000.0, cost_rate=0.0)
        taxed = sma_crossover_backtest(closes, 5, 15, 1_000.0, cost_rate=0.01)
        assert taxed.final_strategy <= free.final_strategy + 1e-9
        if free.trades:
            assert taxed.trades == free.trades  # costs change equity, not signals

    def test_trades_are_well_formed(self):
        rng = np.random.default_rng(19)
        closes = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.04, size=200)))
        out = sma_crossover_backtest(closes, 4, 12, 1_000.0)
        for entry, exit_ in out.trades:
            assert 0 <= entry < exit_ < closes.size

    def test_parameter_validation(self):
        closes = np.full(30, 10.0)
        with pytest.raises(DomainError):
            sma_crossover_backtest(closes, 10, 10)
        with pytest.raises(SizingError):
            sma_crossover_backtest(np.full(10, 10.0), 5, 10)
        with pytest.raises(DomainError):
            sma_crossover_backtest(closes, 5, 10, initial_capital=0.0)
        with pytest.raises(DomainError):
            sma_crossover_backtest(closes, 5, 10, cost_rate=1.0)
        bad = closes.copy()
        bad[3] = 0.0
        with pytest.raises(DomainError):
            sma_crossover_backtest(bad, 5, 10)

    def test_overflowing_curves_raise(self):
        # a rally from 1e308 leaves float64 in both curves; no numpy warning on the way
        closes = 100.0 * 1.05 ** np.arange(40.0)
        with pytest.raises(DomainError, match="equity curves overflow float64 at bar 13 "):
            sma_crossover_backtest(closes, 2, 4, initial_capital=1e308)


class TestDistributionStats:
    def test_symmetric_two_point_sample(self):
        out = distribution_stats([-1.0, 1.0, -1.0, 1.0])
        assert out.mean == 0.0
        assert out.skewness == 0.0
        npt.assert_allclose(out.std, 1.1547005383792515, rtol=1e-12)
        npt.assert_allclose(out.excess_kurtosis, -2.0, rtol=1e-12)

    def test_heavy_tails_show_positive_excess_kurtosis(self):
        rng = np.random.default_rng(20)
        sample = np.concatenate([rng.normal(0.0, 0.01, size=400), [0.5, -0.5, 0.4, -0.4]])
        assert distribution_stats(sample).excess_kurtosis > 1.0

    def test_zero_variance(self):
        with pytest.raises(DomainError):
            distribution_stats([2.0, 2.0, 2.0, 2.0])

    def test_minimum_size(self):
        with pytest.raises(SizingError):
            distribution_stats([1.0, 2.0, 3.0])


class TestHistogram:
    def test_counts_sum_to_sample_size(self):
        r = np.random.default_rng(21).normal(size=500)
        counts, edges = returns_histogram(r, bins=40)
        assert counts.sum() == 500
        assert counts.size == 40
        assert edges.size == 41

    def test_empty_sample(self):
        with pytest.raises(SizingError):
            returns_histogram([], bins=10)

    def test_more_bins_than_numpy_can_index(self):
        with pytest.raises(DomainError, match="more than numpy can index"):
            returns_histogram([0.1, -0.2, 0.3], bins=10**30)
