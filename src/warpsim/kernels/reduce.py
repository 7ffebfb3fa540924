"""Parallel reduction: adjacent-pair (interleaved) and sequential-halving variants.

Both variants reduce each block in shared memory and, for inputs wider than
one block, sum the per-block partials on the host. The step table is emitted
by the kernel itself: active threads write their freshly computed value into
a trace buffer, so idle cells stay at the sentinel and render as blanks.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core import DeviceMemory, LaunchConfig, MetricsReport, Simulator
from ..core.memory import value_dtype
from ._common import (
    MAX_BLOCK_THREADS,
    NotPowerOfTwo,
    is_pow2,
    trace_sentinel,
)
from .trace import StepTrace

VARIANTS = ("interleaved", "sequential")


def reduce_interleaved_kernel(ctx, inp, out, trace, use_trace):
    tid = ctx.thread_idx.x
    bdim = ctx.block_dim.x
    sdata = ctx.shared_array(bdim, dtype=inp.buffer.dtype)
    sdata[tid] = inp[ctx.gx]
    ctx.barrier()
    stride, step = 1, 1
    while stride < bdim:
        def body(s=stride, row=step):
            v = ctx.add(sdata[tid], sdata[tid + s])
            sdata[tid] = v
            if use_trace:
                trace[(row - 1) * bdim + tid] = v

        ctx.if_(tid % (2 * stride) == 0, body)
        ctx.barrier()
        stride *= 2
        step += 1

    def write_partial():
        out[ctx.block_idx.x] = sdata[0]

    ctx.if_(tid == 0, write_partial)


def reduce_sequential_kernel(ctx, inp, out, trace, use_trace):
    tid = ctx.thread_idx.x
    bdim = ctx.block_dim.x
    sdata = ctx.shared_array(bdim, dtype=inp.buffer.dtype)
    sdata[tid] = inp[ctx.gx]
    ctx.barrier()
    stride, step = bdim // 2, 1
    while stride > 0:
        def body(s=stride, row=step):
            v = ctx.add(sdata[tid], sdata[tid + s])
            sdata[tid] = v
            if use_trace:
                trace[(row - 1) * bdim + tid] = v

        ctx.if_(tid < stride, body)
        ctx.barrier()
        stride //= 2
        step += 1

    def write_partial():
        out[ctx.block_idx.x] = sdata[0]

    ctx.if_(tid == 0, write_partial)


def reduce_sum(
    values: Sequence,
    variant: str = "interleaved",
    *,
    simulator: Optional[Simulator] = None,
    metrics: Optional[MetricsReport] = None,
) -> tuple:
    """Sum a power-of-two array; returns (sum, StepTrace).

    Single-block inputs (length <= 1024) produce the full per-step table;
    longer inputs fall back to per-block partials plus host accumulation and
    the trace keeps only the input row.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    values = list(values)
    n = len(values)
    if not is_pow2(n):
        raise NotPowerOfTwo(f"reduction trace needs a power-of-two length, got {n}")
    if n == 1:
        return values[0], StepTrace([list(values)])

    sim = simulator or Simulator()
    dtype = value_dtype(values)
    single_block = n <= MAX_BLOCK_THREADS
    block = n if single_block else MAX_BLOCK_THREADS
    blocks = n // block
    steps = block.bit_length() - 1

    mem = DeviceMemory()
    inp = mem.alloc("input", values, dtype=dtype)
    partials = mem.alloc("partials", blocks, dtype=dtype)
    sentinel = trace_sentinel(dtype)
    trace_len = steps * n if single_block else 1
    trace_buf = mem.alloc("trace", np.full(trace_len, sentinel, dtype=dtype))

    kernel = reduce_interleaved_kernel if variant == "interleaved" else reduce_sequential_kernel
    config = LaunchConfig(blocks, block, shared_mem_bytes=block * 4)
    sim.launch(
        kernel,
        config,
        mem,
        (inp, partials, trace_buf, single_block),
        name=f"reduce_{variant}",
        metrics=metrics,
    )

    parts = partials.tolist()
    total = sum(parts[1:], start=parts[0])

    rows: list[list] = [list(values)]
    if single_block:
        flat = trace_buf.data
        idle = np.isnan(flat) if np.issubdtype(dtype, np.floating) else flat == sentinel
        cells = flat.tolist()
        idle_cells = idle.tolist()
        for s in range(steps):
            rows.append(
                [
                    None if idle_cells[s * n + i] else cells[s * n + i]
                    for i in range(n)
                ]
            )
    return total, StepTrace(rows)
