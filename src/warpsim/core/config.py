"""Launch geometry: grid/block dimensions and the thread linearization."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, NamedTuple, Union

import numpy as np

from ..rules import is_int
from .access import BYTE_EXTENT_LIMIT
from .errors import LaunchConfigInvalid, ThreadCoord

Dim3 = tuple[int, int, int]
DimLike = Union[int, tuple]

DEFAULT_MAX_THREADS_PER_BLOCK = 1024


class _Idx3(NamedTuple):
    x: Any
    y: Any
    z: Any


def as_dim3(dim: DimLike, field: str) -> Dim3:
    """Normalize an int or a tuple or list of at most 3 ints to a full (x, y, z) triple."""
    t = tuple(dim) if isinstance(dim, (tuple, list)) else (dim,)
    if len(t) > 3:
        raise LaunchConfigInvalid(f"{field}={dim!r} has {len(t)} components, expected at most 3")
    if not all(map(is_int, t)):
        raise LaunchConfigInvalid(f"{field}={dim!r} must be an int or a tuple of ints")
    return tuple(int(v) for v in t) + (1,) * (3 - len(t))


def _delinearize(linear: int, dims: Dim3) -> Dim3:
    """(x, y, z) of index ``linear`` in a box of ``dims``, x fastest; also lane-wise on an array."""
    dx, dy, _ = dims
    return (linear % dx, (linear // dx) % dy, linear // (dx * dy))


@dataclass(frozen=True)
class LaunchConfig:
    """Execution geometry of one kernel launch.

    Threads are linearized x-fastest within a block, blocks x-fastest within
    the grid. Blocks whose size is not a multiple of ``warp_size`` get a padded
    final warp whose extra lanes are permanently inactive.
    """

    grid_dim: Dim3 = (1, 1, 1)
    block_dim: Dim3 = (1, 1, 1)
    shared_mem_bytes: int = 0
    warp_size: int = 32

    def __post_init__(self):
        object.__setattr__(self, "grid_dim", as_dim3(self.grid_dim, "grid_dim"))
        object.__setattr__(self, "block_dim", as_dim3(self.block_dim, "block_dim"))
        for field in ("shared_mem_bytes", "warp_size"):
            value = getattr(self, field)
            if not is_int(value):
                raise LaunchConfigInvalid(f"{field}={value!r} must be an integer")
            object.__setattr__(self, field, int(value))

    @property
    def threads_per_block(self) -> int:
        bx, by, bz = self.block_dim
        return bx * by * bz

    @property
    def blocks_per_grid(self) -> int:
        gx, gy, gz = self.grid_dim
        return gx * gy * gz

    @property
    def total_threads(self) -> int:
        return self.threads_per_block * self.blocks_per_grid

    def validate(self, max_threads_per_block: int = DEFAULT_MAX_THREADS_PER_BLOCK) -> None:
        for name, dim in (("grid_dim", self.grid_dim), ("block_dim", self.block_dim)):
            if any(v < 1 for v in dim):
                raise LaunchConfigInvalid(f"{name}={dim} has a component < 1")
        if self.threads_per_block > max_threads_per_block:
            raise LaunchConfigInvalid(
                f"block_dim={self.block_dim} exceeds {max_threads_per_block} threads per block"
            )
        if self.shared_mem_bytes < 0:
            raise LaunchConfigInvalid(f"shared_mem_bytes={self.shared_mem_bytes} is negative")
        if self.shared_mem_bytes >= BYTE_EXTENT_LIMIT:
            raise LaunchConfigInvalid(f"shared_mem_bytes={self.shared_mem_bytes} must be below {BYTE_EXTENT_LIMIT}")
        if self.warp_size < 1:
            raise LaunchConfigInvalid(f"warp_size={self.warp_size} must be positive")

    def block_coords(self, block_linear: int) -> Dim3:
        return _delinearize(block_linear, self.grid_dim)

    def thread_coords(self, thread_linear: int) -> Dim3:
        return _delinearize(thread_linear, self.block_dim)

    def thread_coord(self, global_linear_id: int) -> ThreadCoord:
        """Block, thread, warp and lane of a thread of the grid, as errors name it."""
        gid = int(global_linear_id)
        block_linear, thread_linear = divmod(gid, self.threads_per_block)
        warp_id, lane = divmod(thread_linear, self.warp_size)
        return ThreadCoord(self.block_coords(block_linear), self.thread_coords(thread_linear), gid, warp_id, lane)

    @cached_property
    def _lanes_by_count(self) -> dict:
        return {}

    def lanes(self, blocks: int = 1) -> tuple:
        """What a context of ``blocks`` consecutive blocks run as one group takes from the config, cached per count.

        (linear, thread_idx, warp, lane, group warp id, all-true mask, block_dim, grid_dim, warp count, 1-D test,
        block offset): the lane arrays are read-only, ``linear`` numbers the group's lanes, the thread coordinates,
        warp and lane repeat per block, a group warp id is ``block offset * warps per block + warp``, the 1-D test
        says that only x of grid and block exceeds 1, and the block offset is 0 for a single block.
        """
        lanes = self._lanes_by_count.get(blocks)
        if lanes is None:
            T, warps = self.threads_per_block, ceil_div(self.threads_per_block, self.warp_size)
            linear = np.arange(T * blocks, dtype=np.int64)
            offset, tid = divmod(linear, T)
            warp, lane = divmod(tid, self.warp_size)
            (tx, ty, tz), warp_ids, active = self.thread_coords(tid), offset * warps + warp, np.ones(T * blocks, bool)
            for a in (linear, tx, ty, tz, warp, lane, warp_ids, active, offset):
                a.flags.writeable = False
            lanes = self._lanes_by_count[blocks] = (
                linear, _Idx3(tx, ty, tz), warp, lane, warp_ids, active, _Idx3(*self.block_dim), _Idx3(*self.grid_dim),
                warps * blocks, self.grid_dim[1:] == self.block_dim[1:] == (1, 1), offset if blocks > 1 else 0)
        return lanes


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)
