"""Numeric kernels: the logistic activation and seeded random draws.

Randomness always goes through :class:`Rng`, which wraps a PCG64 stream so
that a given seed yields the same draw sequence on every platform.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), stable for large |x|.

    Computed as exp(min(x, 0)) / (1 + exp(-|x|)): for x >= 0 that is the same
    IEEE operations on the same values as 1 / (1 + exp(-x)), and for x < 0 the
    same as exp(x) / (1 + exp(x)), with no exp argument above zero and no
    masked gather. Accepts scalars or arrays; returns a float for scalar input.
    Float32 input is computed and returned in float32, anything else in float64.
    """
    arr = np.asarray(x)
    arr = arr if arr.dtype == np.float32 else arr.astype(np.float64, copy=False)
    # a 0-d operand makes numpy ufuncs return scalars, which take no out=
    a = np.atleast_1d(arr)
    den = np.abs(a)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out = np.minimum(a, 0.0)
    np.exp(out, out=out)
    out /= den
    if arr.ndim == 0:
        return float(out[0])
    return out


class Rng:
    """Deterministic random source (PCG64).

    Two instances built from the same seed produce bitwise identical draw
    sequences, independent of platform or process history.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise DomainError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def uniform(self, rows: int, cols: int, scale: float) -> np.ndarray:
        """i.i.d. uniform draws on [-scale, +scale) as a rows x cols matrix."""
        if rows < 0 or cols < 0:
            raise ShapeError(f"matrix dimensions must be non-negative, got {rows}x{cols}")
        if not scale > 0:
            raise DomainError(f"scale must be positive, got {scale}")
        return self._gen.uniform(-scale, scale, size=(rows, cols))

