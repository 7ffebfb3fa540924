"""Device-global buffers with bounds checking and access logging."""

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

    def by_warp(self) -> dict[int, list[tuple[int, int, str]]]:
        """Per-warp (address, width, kind) lists for this step."""
        out: dict[int, list[tuple[int, int, str]]] = {}
        for w, a in zip(self.warp_ids.tolist(), self.addresses.tolist()):
            out.setdefault(w, []).append((a, self.width, self.kind))
        return out


class DeviceMemory:
    """Global memory: named buffers plus the per-launch access log."""

    def __init__(self):
        self.buffers: dict[str, Buffer] = {}
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

    def clear_log(self) -> None:
        self.access_log.clear()
        self.race_warnings.clear()

    def lanes_touching_memory(self) -> set[int]:
        """Global thread ids that performed at least one access (any space)."""
        touched: set[int] = set()
        for rec in self.access_log:
            touched.update(rec.lanes.tolist())
        return touched
