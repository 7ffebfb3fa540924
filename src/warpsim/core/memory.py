"""Device-global buffers and the record of one memory instruction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence, Union

import numpy as np

DEFAULT_ELEMENT_WIDTH = 4


def value_dtype(*seqs: Sequence) -> np.dtype:
    """int64 when every element is integral, float64 otherwise."""
    for seq in seqs:
        arr = np.asarray(seq)
        if arr.size and not (np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_):
            return np.dtype(np.float64)
    return np.dtype(np.int64)


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
        self.element_width = int(element_width)

    def __len__(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def tolist(self) -> list:
        return self.data.tolist()

    def __repr__(self) -> str:
        return f"Buffer({self.name!r}, len={len(self)}, dtype={self.data.dtype})"


@dataclass
class AccessRecord:
    """One executed memory instruction: which lanes touched which addresses."""

    kernel: str
    block: int
    step: int
    space: str  # "global" | "shared"
    kind: str  # "read" | "write"
    buffer: str
    width: int
    warp_ids: np.ndarray  # block-local warp of each active lane
    lanes: np.ndarray  # global linear thread ids of active lanes
    addresses: np.ndarray  # byte addresses, parallel to lanes
    values: Optional[np.ndarray]  # stored values, parallel to lanes; None for a load


class DeviceMemory:
    """Global memory: named buffers plus the last launch's race warnings."""

    def __init__(self):
        self.buffers: dict[str, Buffer] = {}
        # Never filled: a launch records accesses only on an attached
        # ``Recorder``. Kept because bench/tracer.py reads it after every
        # traced launch.
        self.access_log: list[AccessRecord] = []
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
        if isinstance(size_or_data, (int, np.integer)):
            dt = np.dtype(dtype) if dtype is not None else np.dtype(np.int64)
            data = np.zeros(int(size_or_data), dtype=dt)
        else:
            dt = np.dtype(dtype) if dtype is not None else value_dtype(size_or_data)
            data = np.asarray(size_or_data, dtype=dt).copy()
        buf = Buffer(name, data, element_width)
        self.buffers[name] = buf
        return buf

    def free(self, name: str) -> None:
        del self.buffers[name]

    def __getitem__(self, name: str) -> Buffer:
        return self.buffers[name]

    def __contains__(self, name: str) -> bool:
        return name in self.buffers

    def __iter__(self) -> Iterator[Buffer]:
        return iter(self.buffers.values())
