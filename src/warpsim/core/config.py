"""Launch geometry: grid/block dimensions and the thread linearization."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import LaunchConfigInvalid, ThreadCoord

Dim3 = tuple[int, int, int]
DimLike = Union[int, tuple]

DEFAULT_MAX_THREADS_PER_BLOCK = 1024


def as_dim3(dim: DimLike) -> Dim3:
    """Normalize an int or partial tuple to a full (x, y, z) triple."""
    if isinstance(dim, int):
        return (dim, 1, 1)
    t = tuple(int(v) for v in dim)
    if len(t) > 3:
        raise LaunchConfigInvalid(f"dimension has {len(t)} components, expected at most 3")
    return t + (1,) * (3 - len(t))


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
        object.__setattr__(self, "grid_dim", as_dim3(self.grid_dim))
        object.__setattr__(self, "block_dim", as_dim3(self.block_dim))
        object.__setattr__(self, "shared_mem_bytes", int(self.shared_mem_bytes))
        object.__setattr__(self, "warp_size", int(self.warp_size))

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
    def lanes(self) -> tuple[np.ndarray, ...]:
        """(linear, tx, ty, tz, warp, lane, all-true mask) of a block, shared read-only by every block."""
        linear = np.arange(self.threads_per_block, dtype=np.int64)
        warp, lane = divmod(linear, self.warp_size)
        lanes = (linear, *self.thread_coords(linear), warp, lane, np.ones(linear.size, dtype=bool))
        for a in lanes:
            a.flags.writeable = False
        return lanes


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)
