"""Shared helpers for the primitive library."""

from __future__ import annotations

from typing import Sequence

import numpy as np


class LengthMismatch(ValueError):
    pass


class ShapeMismatch(ValueError):
    pass


class NotPowerOfTwo(ValueError):
    pass


THREADS_PER_BLOCK = 256
MAX_BLOCK_THREADS = 1024


def is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def next_pow2(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def value_dtype(*seqs: Sequence) -> np.dtype:
    """int64 when every element is integral, float64 otherwise."""
    for seq in seqs:
        arr = np.asarray(seq)
        if arr.size and not (np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_):
            return np.dtype(np.float64)
    return np.dtype(np.int64)


def trace_sentinel(dtype: np.dtype):
    """A value no simulated thread would write; marks idle trace cells."""
    if np.issubdtype(dtype, np.integer):
        return np.iinfo(dtype).min
    return np.nan
