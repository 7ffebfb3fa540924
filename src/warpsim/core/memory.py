"""Device-global buffers."""

from __future__ import annotations

import array
import numbers
import operator
from typing import Any, Iterator, Optional, Sequence, Union

import numpy as np

from ..rules import is_int
from .access import BYTE_EXTENT_LIMIT

DEFAULT_ELEMENT_WIDTH = 4


def _host_array(name: str, seq: Sequence) -> np.ndarray:
    """``seq`` as a one-dimensional array of its own: int64 when every element is integral, float64 otherwise.

    An element is a real number, or an object whose ``__index__`` gives an integer; a bool reads as 0 or 1.
    Anything else (``None``, a string, bytes, a nested sequence) raises ``ValueError`` naming the buffer and the
    element's index, and so do an all-integer sequence past int64 and data that is not one-dimensional.
    A list of ints takes one exact pass through ``array.array`` (``np.fromiter`` would read 1.5 as 1, '3' as 3).
    An array made from a list aliases nothing; an array made from anything else is copied once.
    """
    if type(seq) is list:
        buf = array.array("q")
        try:
            buf.fromlist(seq)  # array.array("q", seq)'s conversion, without its generic item protocol
            return np.frombuffer(buf, np.int64)
        except (TypeError, OverflowError):  # an element without __index__, or an integer past int64
            pass
    try:
        a = np.asarray(seq)
    except ValueError:  # ragged nesting, named by the walk below
        a = np.asarray(seq, dtype=object)
    if a.ndim == 0:
        raise ValueError(f"buffer {name!r}: size_or_data={seq} must be an integer size or a sequence")
    if a.ndim > 1:
        raise ValueError(f"buffer {name!r}: size_or_data of shape {a.shape} must be one-dimensional")
    # numpy reads integers as a float array only for a uint64 next to a signed int, so a float array holds a float
    # only if a value is fractional (checked in chunks: no input-sized temporary) or an element is a float.
    if a.dtype.kind in "bi" or a.dtype.kind == "f" and (
            any(np.any(a[i:i + 65536] != np.trunc(a[i:i + 65536])) for i in range(0, a.size, 65536))
            or any(isinstance(v, (float, np.floating)) for v in seq)):
        return a.astype(np.float64 if a.dtype.kind == "f" else np.int64, copy=type(seq) is not list)
    values = []
    for i, v in enumerate(seq):
        if isinstance(v, numbers.Integral) or not isinstance(v, numbers.Real):
            try:
                v = int(v) if isinstance(v, np.bool_) else operator.index(v)
            except TypeError:
                raise ValueError(f"buffer {name!r}: element [{i}] must be a real number, got {v!r}") from None
        values.append(v)
    if not all(isinstance(v, int) for v in values):
        return np.array(values, dtype=np.float64)
    for v in values:
        if not -(2**63) <= v < 2**63:
            raise ValueError(f"buffer {name!r}: input integer {v} does not fit int64")
    return np.array(values, dtype=np.int64)


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
        """A buffer of ``size_or_data`` zeros of ``dtype`` (int64 by default), or of a sequence's elements."""
        if name in self.buffers:
            raise ValueError(f"buffer {name!r} already allocated")
        if not is_int(element_width):
            raise ValueError(f"buffer {name!r}: element_width={element_width} must be an integer")
        if element_width < 1:
            raise ValueError(f"buffer {name!r}: element_width={element_width} must be positive")
        if is_int(size_or_data):
            if size_or_data < 0:
                raise ValueError(f"buffer {name!r}: size_or_data={size_or_data} must not be negative")
            _check_extent(name, int(size_or_data), element_width)  # before allocating
            data = np.zeros(int(size_or_data), dtype=np.int64 if dtype is None else dtype)
        elif dtype is not None:
            raise ValueError(f"buffer {name!r}: dtype goes with an integer size, not with data")
        else:
            data = _host_array(name, size_or_data)
        _check_extent(name, data.size, element_width)
        buf = Buffer(name, data, int(element_width))
        self.buffers[name] = buf
        return buf

    def __iter__(self) -> Iterator[Buffer]:
        return iter(self.buffers.values())
