"""Numeric kernels: the logistic activation and seeded random draws.

Randomness always goes through :class:`Rng`, which wraps a PCG64 stream so
that a given seed yields the same draw sequence on every platform.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), stable for large |x|.

    Accepts scalars or arrays; returns a float for scalar input.
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ex = np.exp(a[~pos])
    out[~pos] = ex / (1.0 + ex)
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


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


def seeded_uniform(rng: Rng, rows: int, cols: int, scale: float) -> np.ndarray:
    """Draw a rows x cols matrix of uniforms on [-scale, +scale) from ``rng``."""
    return rng.uniform(rows, cols, scale)
