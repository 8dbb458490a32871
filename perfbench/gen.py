"""Seeded synthetic daily OHLCV files in the CSV layout coincast reads.

Log close prices follow a geometric random walk pulled back towards a
fixed path: the symbol's base level plus a 60-day cycle whose amplitude
shrinks over the series. The pull and the shrinking cycle keep held-out
(later) prices inside the range the scaler and trees were fitted on, and
because the path and the volatility regimes (calm and turbulent, on a fixed
per-symbol schedule) do not depend on the seed, test MAPE is comparable
across seeds; only the daily shocks come from the seed. Every row satisfies
``parse_csv`` validation: High and Low bracket Open and Close, and each
date appears once.
"""
from __future__ import annotations

from datetime import date, timedelta

import numpy as np

HEADER = "SNo,Name,Symbol,Date,High,Low,Open,Close,Volume,Marketcap"
START = date(2013, 4, 28)
# Daily log-return volatility of each regime and how long a regime lasts.
REGIME_VOLS = (0.002, 0.005, 0.0035, 0.008)
REGIME_DAYS = 45
REVERSION = 0.5
CYCLE_DAYS = 60
CYCLE_AMPLITUDE = 0.35
CYCLE_DECAY = 0.6


def symbol_name(index: int) -> str:
    return f"S{index:02d}"


def ohlcv_csv(seed: int, index: int, days: int) -> bytes:
    """CSV bytes for symbol ``index`` of workload seed ``seed``, ``days`` rows."""
    rng = np.random.default_rng([seed, index])
    base = 50.0 * (index + 1)
    regime = (np.arange(days) // REGIME_DAYS + index) % len(REGIME_VOLS)
    vol = np.asarray(REGIME_VOLS)[regime]
    shocks = rng.standard_normal(days) * vol
    t = np.arange(days)
    envelope = CYCLE_AMPLITUDE * (1.0 - CYCLE_DECAY * t / days)
    path = np.log(base) + envelope * np.sin(2 * np.pi * (t + 23 * index) / CYCLE_DAYS)
    log_close = np.empty(days)
    level = path[0]
    for t in range(days):
        level = level + REVERSION * (path[t] - level) + shocks[t]
        log_close[t] = level
    close = np.exp(log_close)
    open_ = np.concatenate(([base], close[:-1]))
    wick = np.abs(rng.standard_normal((2, days))) * vol * 0.5
    high = np.maximum(open_, close) * (1.0 + wick[0])
    low = np.minimum(open_, close) * (1.0 - wick[1])
    volume = np.exp(rng.normal(15.0, 0.4, days)) * (vol / REGIME_VOLS[0])
    cap = close * 1.0e6 * (8 - index % 8)
    symbol = symbol_name(index)
    lines = [HEADER]
    for t in range(days):
        day = START + timedelta(days=t)
        lines.append(
            f"{t + 1},Coin{index},{symbol},{day.isoformat()},{float(high[t])!r},"
            f"{float(low[t])!r},{float(open_[t])!r},{float(close[t])!r},"
            f"{float(volume[t])!r},{float(cap[t])!r}"
        )
    return ("\n".join(lines) + "\n").encode("ascii")
