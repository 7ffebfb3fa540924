"""Device-global buffers."""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence, Union

import numpy as np

from .access import BYTE_EXTENT_LIMIT
from .config import _is_int

DEFAULT_ELEMENT_WIDTH = 4


def host_arrays(*seqs: Sequence) -> list[np.ndarray]:
    """Each sequence as an array of one dtype: int64 when every element is integral, float64 otherwise.

    A sequence is converted once, and again from the sequence only when numpy
    infers another dtype for it. All-integer input that int64 cannot hold
    raises ``ValueError``.
    """
    arrs = [np.asarray(seq) for seq in seqs]
    for a, seq in zip(arrs, seqs):
        # numpy gives integers past int64 an unsigned, an object or (next to negatives) a float64
        # array, the last holding a magnitude of at least 2**63; an int64 array is never walked.
        if a.dtype.kind in "uO" or (a.dtype.kind == "f" and a.size and max(a.max(), -a.min()) >= 2.0**63):
            values = np.asarray(seq, dtype=object).ravel()
            if all(isinstance(v, (int, np.integer)) for v in values):
                for v in values:
                    if not -(2**63) <= v < 2**63:
                        raise ValueError(f"input integer {v} does not fit int64")
    dtype = np.dtype(np.int64)
    if any(a.size and not (np.issubdtype(a.dtype, np.integer) or a.dtype == np.bool_) for a in arrs):
        dtype = np.dtype(np.float64)
    return [a if a.dtype == dtype else np.asarray(seq, dtype=dtype) for a, seq in zip(arrs, seqs)]


def _check_extent(name: str, size: int, element_width: int) -> None:
    if size * int(element_width) >= BYTE_EXTENT_LIMIT:  # no int64 wrap-around
        raise ValueError(f"buffer {name!r}: {size} elements of element_width={element_width} "
                         f"span {BYTE_EXTENT_LIMIT} bytes or more")


class Buffer:
    """One addressable global buffer.

    Values live as int64/float64 regardless of the modeled ``element_width``,
    which only drives byte-address math (coalescing segments, bank mapping).
    """

    def __init__(
        self,
        name: str,
        data: np.ndarray,
        element_width: int = DEFAULT_ELEMENT_WIDTH,
    ):
        self.name = name
        self.data = data
        self.element_width = element_width

    def __len__(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def tolist(self) -> list:
        return self.data.tolist()

    def __repr__(self) -> str:
        return f"Buffer({self.name!r}, len={len(self)}, dtype={self.data.dtype})"


class DeviceMemory:
    """Global memory: named buffers plus the last launch's race warnings."""

    def __init__(self):
        self.buffers: dict[str, Buffer] = {}
        # Never filled: a launch records accesses only on an attached
        # ``Recorder``. Kept because bench/tracer.py reads it after every
        # traced launch.
        self.access_log: list = []  # of ``AccessRecord``
        self.race_warnings: list[str] = []

    def alloc(
        self,
        name: str,
        size_or_data: Union[int, Sequence],
        dtype: Optional[Any] = None,
        element_width: int = DEFAULT_ELEMENT_WIDTH,
    ) -> Buffer:
        if name in self.buffers:
            raise ValueError(f"buffer {name!r} already allocated")
        if not _is_int(element_width):
            raise ValueError(f"buffer {name!r}: element_width={element_width} must be an integer")
        if element_width < 1:
            raise ValueError(f"buffer {name!r}: element_width={element_width} must be positive")
        if _is_int(size_or_data):
            if size_or_data < 0:
                raise ValueError(f"buffer {name!r}: size_or_data={size_or_data} must not be negative")
            _check_extent(name, int(size_or_data), element_width)  # before allocating
            data = np.zeros(int(size_or_data), dtype=np.int64 if dtype is None else dtype)
        elif dtype is None:
            data = host_arrays(size_or_data)[0].copy()
        else:
            data = np.array(size_or_data, dtype=dtype)
        if data.ndim == 0:
            raise ValueError(f"buffer {name!r}: size_or_data={size_or_data} must be an integer size or a sequence")
        if data.ndim > 1:
            raise ValueError(f"buffer {name!r}: size_or_data of shape {data.shape} must be one-dimensional")
        _check_extent(name, data.size, element_width)
        buf = Buffer(name, data, int(element_width))
        self.buffers[name] = buf
        return buf

    def __iter__(self) -> Iterator[Buffer]:
        return iter(self.buffers.values())
