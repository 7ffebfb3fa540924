"""Elementwise vector addition, the hello-world of the machine."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core import DeviceMemory, LaunchConfig, MetricsReport, Simulator, block_batchable, ceil_div
from ._common import THREADS_PER_BLOCK, LengthMismatch


@block_batchable
def vector_add_kernel(ctx, a, b, c, n):
    i = ctx.gx

    def body():
        c[i] = ctx.add(a[i], b[i])

    ctx.if_(i < n, body)


def vector_add(
    a: Sequence,
    b: Sequence,
    *,
    threads_per_block: int = THREADS_PER_BLOCK,
    simulator: Optional[Simulator] = None,
    metrics: Optional[MetricsReport] = None,
) -> list:
    """Elementwise a + b via a boundary-guarded launch of 256-thread blocks."""
    if threads_per_block < 1:
        raise ValueError(f"threads_per_block={threads_per_block} must be at least 1")
    # alloc converts any input with a length itself, an ndarray with no Python object per element
    a, b = (x if hasattr(x, "__len__") else list(x) for x in (a, b))
    if len(a) != len(b):
        raise LengthMismatch(f"lengths differ: {len(a)} vs {len(b)}")
    n = len(a)
    if n == 0:
        return []
    sim = simulator or Simulator()
    mem = DeviceMemory()
    buf_a, buf_b = mem.alloc("a", a), mem.alloc("b", b)
    buf_c = mem.alloc("c", n, dtype=np.result_type(buf_a.dtype, buf_b.dtype))
    config = LaunchConfig(grid_dim=ceil_div(n, threads_per_block), block_dim=threads_per_block)
    sim.launch(vector_add_kernel, config, mem, (buf_a, buf_b, buf_c, n), metrics=metrics)
    return buf_c.tolist()
