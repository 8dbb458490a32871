"""Forecast accuracy metrics.

MAPE is reported in percent. MinMax RMSE normalizes the root mean squared
error by the range of the actual series, which makes scores comparable
across assets whose prices live on very different scales.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError, SizingError


def _paired(actual, forecast, min_len: int = 1):
    a = np.asarray(actual, dtype=np.float64).ravel()
    f = np.asarray(forecast, dtype=np.float64).ravel()
    if a.shape != f.shape:
        raise ShapeError(f"actual and forecast lengths differ: {a.size} vs {f.size}")
    if a.size < min_len:
        raise SizingError(f"need at least {min_len} observation(s), got {a.size}")
    return a, f


def mape(actual, forecast, epsilon: float | None = None) -> float:
    """Mean absolute percentage error, (100/n) * sum |(A_t - F_t) / A_t|.

    Any exactly-zero actual makes the metric undefined and raises
    DomainError naming the first offending index, unless ``epsilon`` is
    given, in which case denominators become |A_t| + epsilon.
    """
    a, f = _paired(actual, forecast)
    if epsilon is None:
        zero = np.nonzero(a == 0.0)[0]
        if zero.size:
            raise DomainError(f"actual value is zero at index {zero[0]}; MAPE is undefined")
        denom = np.abs(a)
    else:
        if not epsilon > 0:
            raise DomainError(f"epsilon must be positive, got {epsilon}")
        denom = np.abs(a) + epsilon
    return float(np.mean(np.abs(a - f) / denom) * 100.0)


def rmse(actual, forecast) -> float:
    """Root mean squared error."""
    a, f = _paired(actual, forecast)
    return float(np.sqrt(np.mean((a - f) ** 2)))


def minmax_rmse(actual, forecast) -> float:
    """RMSE divided by the range max(A) - min(A) of the actual series.

    Raises DomainError when the actual series is constant (zero range).
    """
    a, f = _paired(actual, forecast, min_len=2)
    spread = float(a.max() - a.min())
    if spread <= 0.0:
        raise DomainError("actual series has zero range; MinMax RMSE is undefined")
    return rmse(a, f) / spread
