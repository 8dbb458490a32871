"""Exploratory statistics over price histories.

Covers the descriptive side of the toolkit: simple returns, trailing
volatility, cross-asset correlation (full-sample and rolling), market-cap
dominance, additive trend/seasonal decomposition, SMA-crossover backtests,
and return-distribution moments. Everything is deterministic and pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, ShapeError, SizingError


def _vector(values, name: str = "series") -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got {v.ndim} dimension(s)")
    return v


def daily_returns(prices) -> np.ndarray:
    """Simple returns r_t = (P_t - P_{t-1}) / P_{t-1}; output has length T - 1."""
    p = _vector(prices, "prices")
    if p.size < 2:
        raise SizingError(f"need at least 2 prices for returns, got {p.size}")
    bad = np.nonzero(p <= 0)[0]
    if bad.size:
        raise DomainError(f"non-positive price {p[bad[0]]} at index {bad[0]}")
    return np.diff(p) / p[:-1]


def rolling_volatility(returns, window: int = 30) -> np.ndarray:
    """Trailing sample standard deviation (ddof=1) over each window.

    Output element j covers returns[j : j + window], so the result has
    length len(returns) - window + 1.
    """
    r = _vector(returns, "returns")
    if window < 2:
        raise SizingError(f"volatility window must be at least 2, got {window}")
    if r.size < window:
        raise SizingError(f"window {window} exceeds series length {r.size}")
    return sliding_window_view(r, window).std(axis=1, ddof=1)


def _centered(matrix: np.ndarray) -> np.ndarray:
    return matrix - matrix.mean(axis=1, keepdims=True)


def correlation_matrix(series_list) -> np.ndarray:
    """Pearson correlation across >= 2 equal-length series.

    The diagonal is exactly 1.0 and the matrix exactly symmetric by
    construction. Zero-variance input raises DomainError.
    """
    rows = [np.asarray(s, dtype=np.float64).ravel() for s in series_list]
    if len(rows) < 2:
        raise SizingError(f"need at least 2 series, got {len(rows)}")
    length = rows[0].size
    for i, r in enumerate(rows):
        if r.size != length:
            raise ShapeError(f"series {i} has length {r.size}, expected {length}")
    if length < 2:
        raise SizingError(f"series length must be at least 2, got {length}")
    X = np.vstack(rows)
    Xc = _centered(X)
    ss = np.einsum("ij,ij->i", Xc, Xc)
    for i, s in enumerate(ss):
        if s <= 0:
            raise DomainError(f"series {i} has zero variance; correlation is undefined")
    n = len(rows)
    out = np.ones((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            c = float(Xc[i] @ Xc[j] / math.sqrt(ss[i] * ss[j]))
            out[i, j] = c
            out[j, i] = c
    return out


def rolling_correlation(a, b, window: int = 60) -> np.ndarray:
    """Trailing Pearson correlation between two series.

    Windows where either side has zero variance yield NaN rather than a
    silent zero. Output length is len(a) - window + 1.
    """
    x = _vector(a, "first series")
    y = _vector(b, "second series")
    if x.size != y.size:
        raise ShapeError(f"series lengths differ: {x.size} vs {y.size}")
    if window < 3:
        raise SizingError(f"correlation window must be at least 3, got {window}")
    if x.size < window:
        raise SizingError(f"window {window} exceeds series length {x.size}")
    wx = _centered(sliding_window_view(x, window))
    wy = _centered(sliding_window_view(y, window))
    num = np.einsum("ij,ij->i", wx, wy)
    vx = np.einsum("ij,ij->i", wx, wx)
    vy = np.einsum("ij,ij->i", wy, wy)
    out = np.full(num.shape, np.nan)
    ok = (vx > 0) & (vy > 0)
    out[ok] = num[ok] / np.sqrt(vx[ok] * vy[ok])
    return out


def market_dominance(caps_list) -> np.ndarray:
    """Per-date share of total market cap; rows are assets, columns dates.

    Each column of the result sums to 1. A date where every cap is zero has
    no meaningful shares and raises DomainError.
    """
    C = np.asarray(caps_list, dtype=np.float64)
    if C.ndim == 1:
        C = C[np.newaxis, :]
    if C.ndim != 2 or C.shape[0] < 1 or C.shape[1] < 1:
        raise ShapeError("expected one or more equal-length cap series")
    neg = np.argwhere(C < 0)
    if neg.size:
        i, j = neg[0]
        raise DomainError(f"negative market cap at series {i}, index {j}")
    totals = C.sum(axis=0)
    zero = np.nonzero(totals <= 0)[0]
    if zero.size:
        raise DomainError(f"all market caps are zero at index {zero[0]}")
    return C / totals


@dataclass(frozen=True)
class DecompositionResult:
    """Additive decomposition; edge positions where the centered moving
    average is undefined hold NaN in all three components."""

    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray
    period: int


def decompose_additive(series, period: int = 7) -> DecompositionResult:
    """Classical additive decomposition: series = trend + seasonal + residual.

    Trend is a centered moving average (the usual 2xP double average for an
    even period). Seasonal indices are per-phase means of the detrended
    series, recentered to sum to zero over one cycle. The residual is defined
    as series - (trend + seasonal), so adding the three components back
    reproduces the input wherever the trend is defined.
    """
    s = _vector(series)
    if period < 2:
        raise SizingError(f"period must be at least 2, got {period}")
    if s.size < 2 * period:
        raise SizingError(
            f"need at least {2 * period} points for period {period}, got {s.size}"
        )
    if period % 2:
        kernel = np.full(period, 1.0 / period)
    else:
        kernel = np.concatenate(([0.5], np.ones(period - 1), [0.5])) / period
    half = period // 2
    trend = np.full(s.size, np.nan)
    trend[half : s.size - half] = np.convolve(s, kernel, mode="valid")

    detrended = s - trend
    phase_means = np.empty(period)
    for phase in range(period):
        vals = detrended[phase::period]
        vals = vals[np.isfinite(vals)]
        phase_means[phase] = vals.mean()
    phase_means -= phase_means.mean()
    seasonal = phase_means[np.arange(s.size) % period]
    seasonal = np.where(np.isfinite(trend), seasonal, np.nan)

    residual = s - (trend + seasonal)
    return DecompositionResult(trend=trend, seasonal=seasonal, residual=residual, period=period)


def sma(series, window: int) -> np.ndarray:
    """Trailing simple moving average; output length len(series) - window + 1."""
    s = _vector(series)
    if window < 1:
        raise SizingError(f"SMA window must be at least 1, got {window}")
    if s.size < window:
        raise SizingError(f"window {window} exceeds series length {s.size}")
    return sliding_window_view(s, window).mean(axis=1)


@dataclass(frozen=True)
class BacktestResult:
    strategy: np.ndarray      # equity curve, same length as the close series
    buy_and_hold: np.ndarray  # benchmark curve, same length
    trades: tuple[tuple[int, int], ...]  # (entry bar, exit bar) pairs
    final_strategy: float
    final_buy_and_hold: float


def sma_crossover_backtest(
    closes,
    fast: int = 20,
    slow: int = 50,
    initial_capital: float = 10_000.0,
    cost_rate: float = 0.0,
) -> BacktestResult:
    """Long-only SMA crossover strategy against buy-and-hold.

    The signal observed at bar t (fast SMA strictly above slow SMA means
    "be long") is executed at bar t+1's close with the full account, so
    there is no look-ahead. Entries that would land on the final bar are
    skipped. ``cost_rate`` is charged proportionally on every fill. A
    position still open at the end is marked closed at the last bar in the
    trade log; the equity curve already carries it at market value.
    A curve that overflows float64 raises DomainError.
    """
    c = _vector(closes, "closes")
    if not 1 <= fast < slow:
        raise DomainError(f"need slow > fast >= 1, got fast={fast}, slow={slow}")
    if c.size <= slow:
        raise SizingError(f"need more than {slow} closes, got {c.size}")
    if not initial_capital > 0:
        raise DomainError(f"initial capital must be positive, got {initial_capital}")
    if not 0.0 <= cost_rate < 1.0:
        raise DomainError(f"cost rate must be in [0, 1), got {cost_rate}")
    bad = np.nonzero(c <= 0)[0]
    if bad.size:
        raise DomainError(f"non-positive close {c[bad[0]]} at index {bad[0]}")

    L = c.size
    fast_sma = sma(c, fast)
    slow_sma = sma(c, slow)
    # desired[t]: position implied by the SMAs as of bar t (computable from t = slow-1 on)
    desired = np.zeros(L, dtype=np.int64)
    t = np.arange(slow - 1, L)
    desired[t] = (fast_sma[t - fast + 1] > slow_sma[t - slow + 1]).astype(np.int64)

    # Python floats, which overflow to inf silently; the check below reports it
    prices = c.tolist()
    cash = float(initial_capital)
    units = 0.0
    position = 0
    entry_bar = None
    trades: list[tuple[int, int]] = []
    strategy = np.empty(L, dtype=np.float64)
    for bar in range(L):
        if bar >= slow:
            want = desired[bar - 1]
            if want == 1 and position == 0 and bar < L - 1:
                units = cash * (1.0 - cost_rate) / prices[bar]
                cash = 0.0
                position = 1
                entry_bar = bar
            elif want == 0 and position == 1:
                cash = units * prices[bar] * (1.0 - cost_rate)
                units = 0.0
                position = 0
                trades.append((entry_bar, bar))
                entry_bar = None
        strategy[bar] = units * prices[bar] if position else cash
    if position:
        trades.append((entry_bar, L - 1))

    with np.errstate(over="ignore"):
        buy_and_hold = initial_capital * (c / c[0])
    bad = np.flatnonzero(~(np.isfinite(strategy) & np.isfinite(buy_and_hold)))
    if bad.size:
        raise DomainError(
            f"equity curves overflow float64 at bar {bad[0]} from initial capital {initial_capital}"
        )
    return BacktestResult(
        strategy=strategy,
        buy_and_hold=buy_and_hold,
        trades=tuple(trades),
        final_strategy=float(strategy[-1]),
        final_buy_and_hold=float(buy_and_hold[-1]),
    )


@dataclass(frozen=True)
class DistributionStats:
    mean: float
    std: float              # sample standard deviation (ddof=1)
    skewness: float         # m3 / m2^(3/2), population central moments
    excess_kurtosis: float  # m4 / m2^2 - 3


def distribution_stats(returns) -> DistributionStats:
    """Moment summary of a return sample; positive excess kurtosis marks
    heavier-than-normal tails."""
    r = _vector(returns, "returns")
    if r.size < 4:
        raise SizingError(f"need at least 4 observations, got {r.size}")
    if r.max() == r.min():
        raise DomainError("returns have zero variance; moments are undefined")
    n = r.size
    mean = float(r.mean())
    d = r - mean
    m2 = float(np.mean(d ** 2))
    m3 = float(np.mean(d ** 3))
    m4 = float(np.mean(d ** 4))
    return DistributionStats(
        mean=mean,
        std=math.sqrt(m2 * n / (n - 1)),
        skewness=m3 / m2 ** 1.5,
        excess_kurtosis=m4 / (m2 * m2) - 3.0,
    )


def returns_histogram(returns, bins: int = 50):
    """Histogram counts and bin edges for a return sample."""
    r = _vector(returns, "returns")
    if r.size < 1:
        raise SizingError("cannot histogram an empty sample")
    if bins < 1:
        raise SizingError(f"need at least 1 bin, got {bins}")
    if bins >= np.iinfo(np.intp).max:
        raise DomainError(f"{bins} bins are more than numpy can index")
    counts, edges = np.histogram(r, bins=bins)
    return counts, edges
