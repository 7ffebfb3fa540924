"""Matrix addition and multiplication over 2-D launches.

The multiply ships in two variants: the straightforward one-thread-per-output
kernel, and a shared-memory tiled kernel that stages 16x16 tiles of both
operands so each global element is fetched once per tile pass. Both walk the
inner dimension in the same order, so integer results are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core import DeviceMemory, LaunchConfig, MetricsReport, Simulator, block_batchable, ceil_div
from ..rules import is_int
from ._common import ShapeMismatch

TILE = 16


@dataclass
class Matrix:
    """Dense row-major matrix."""

    rows: int
    cols: int
    data: list

    def __post_init__(self):
        if not (is_int(self.rows) and is_int(self.cols)):
            raise ValueError(f"matrix dimensions must be integers, got {self.rows!r}x{self.cols!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"matrix dimensions must be positive, got {self.rows}x{self.cols}")
        self.data = list(self.data)
        if len(self.data) != self.rows * self.cols:
            raise ValueError(
                f"data length {len(self.data)} does not match {self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0  # no rows: refused as 0x0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, [v for row in rows for v in row])

    def to_rows(self) -> list[list]:
        return [self.data[i * self.cols : (i + 1) * self.cols] for i in range(self.rows)]

    def at(self, i: int, j: int):
        return self.data[i * self.cols + j]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)


def _result(rows: int, cols: int, data: list) -> Matrix:
    """A matrix around a list that nothing else holds, without ``__post_init__``'s copy."""
    m = object.__new__(Matrix)
    m.rows, m.cols, m.data = rows, cols, data
    return m


@block_batchable
def matrix_add_kernel(ctx, a, b, c, rows, cols):
    i = ctx.gx
    j = ctx.gy

    def body():
        idx = i * cols + j
        c[idx] = ctx.add(a[idx], b[idx])

    ctx.if_((i < rows) & (j < cols), body)


def matrix_add(
    a: Matrix,
    b: Matrix,
    *,
    simulator: Optional[Simulator] = None,
    metrics: Optional[MetricsReport] = None,
) -> Matrix:
    """Elementwise sum via a 2-D launch of 16x16 thread blocks."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    sim = simulator or Simulator()
    rows, cols = a.shape
    mem = DeviceMemory()
    buf_a, buf_b = mem.alloc("a", a.data), mem.alloc("b", b.data)
    buf_c = mem.alloc("c", rows * cols, dtype=np.result_type(buf_a.dtype, buf_b.dtype))
    config = LaunchConfig(
        grid_dim=(ceil_div(rows, TILE), ceil_div(cols, TILE)),
        block_dim=(TILE, TILE),
    )
    sim.launch(matrix_add_kernel, config, mem, (buf_a, buf_b, buf_c, rows, cols), metrics=metrics)
    return _result(rows, cols, buf_c.tolist())


@block_batchable
def matmul_naive_kernel(ctx, a, b, c, m, n, p):
    i = ctx.gx
    j = ctx.gy

    def body():
        acc = None
        for k in range(n):
            prod = ctx.mul(a[i * n + k], b[k * p + j])
            acc = prod if acc is None else ctx.add(acc, prod)
        c[i * p + j] = acc

    ctx.if_((i < m) & (j < p), body)


@block_batchable
def matmul_tiled_kernel(ctx, a, b, c, m, n, p):
    tx = ctx.thread_idx.x
    ty = ctx.thread_idx.y
    row = ctx.gx
    col = ctx.gy
    dt = c.buffer.dtype
    tile_a = ctx.shared_array(TILE * TILE, dtype=dt)
    tile_b = ctx.shared_array(TILE * TILE, dtype=dt)
    acc = np.zeros(ctx.nthreads, dtype=dt)

    for t in range(ceil_div(n, TILE)):
        ka = t * TILE + ty
        kb = t * TILE + tx

        def load_a():
            tile_a[tx * TILE + ty] = a[row * n + ka]

        def zero_a():
            tile_a[tx * TILE + ty] = 0

        def load_b():
            tile_b[tx * TILE + ty] = b[kb * p + col]

        def zero_b():
            tile_b[tx * TILE + ty] = 0

        ctx.if_((row < m) & (ka < n), load_a, zero_a)
        ctx.if_((kb < n) & (col < p), load_b, zero_b)
        ctx.barrier()
        for k in range(TILE):
            acc = ctx.add(acc, ctx.mul(tile_a[tx * TILE + k], tile_b[k * TILE + ty]))
        ctx.barrier()

    def store():
        c[row * p + col] = acc

    ctx.if_((row < m) & (col < p), store)


def matmul(
    a: Matrix,
    b: Matrix,
    variant: str = "naive",
    *,
    simulator: Optional[Simulator] = None,
    metrics: Optional[MetricsReport] = None,
) -> Matrix:
    """Matrix product C[i,j] = sum_k A[i,k] * B[k,j]; variant "naive" or "tiled"."""
    if variant not in ("naive", "tiled"):
        raise ValueError(f"unknown variant {variant!r}")
    if a.cols != b.rows:
        raise ShapeMismatch(f"inner dimensions differ: {a.shape} x {b.shape}")
    sim = simulator or Simulator()
    m, n, p = a.rows, a.cols, b.cols
    mem = DeviceMemory()
    buf_a, buf_b = mem.alloc("a", a.data), mem.alloc("b", b.data)
    buf_c = mem.alloc("c", m * p, dtype=np.result_type(buf_a.dtype, buf_b.dtype))
    config = LaunchConfig(
        grid_dim=(ceil_div(m, TILE), ceil_div(p, TILE)),
        block_dim=(TILE, TILE),
        shared_mem_bytes=2 * TILE * TILE * 4 if variant == "tiled" else 0,
    )
    kernel = matmul_naive_kernel if variant == "naive" else matmul_tiled_kernel
    sim.launch(
        kernel,
        config,
        mem,
        (buf_a, buf_b, buf_c, m, n, p),
        name=f"matmul_{variant}",
        metrics=metrics,
    )
    return _result(m, p, buf_c.tolist())
