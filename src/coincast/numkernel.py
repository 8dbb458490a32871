"""Numeric kernels: the logistic activation, seeded random draws and the
BLAS thread count.

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


def _blas_thread_calls():
    """The (get, set) thread-count functions of the OpenBLAS mapped into this
    process, or None when no mapped library exports them.

    OpenBLAS builds name them ``openblas_{get,set}_num_threads``, numpy's
    wheels with a ``scipy_`` prefix and, for 64-bit integers, a ``64_`` suffix.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            # the path is the sixth field; an anonymous mapping has five
            paths = {line.split(None, 5)[-1].strip() for line in maps}
    except OSError:  # no /proc: not Linux
        return None
    for path in sorted(p for p in paths if "openblas" in p.rsplit("/", 1)[-1]):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                try:
                    get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                    set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


class one_blas_thread:
    """Context manager holding BLAS at one thread inside and restoring the
    caller's thread count on exit.

    Matrix products then round the same whatever the machine's core count:
    a multi-threaded BLAS splits a large product into blocks summed in
    another order. ``pinned`` is False when the loaded BLAS exposes no way to
    set its thread count; the block then runs on whatever BLAS uses.
    """

    def __init__(self):
        self._calls = _blas_thread_calls()
        self.pinned = self._calls is not None

    def __enter__(self):
        if self.pinned:
            get, set_ = self._calls
            self._caller = get()
            set_(1)
        return self

    def __exit__(self, *exc_info):
        if self.pinned:
            self._calls[1](self._caller)

