"""Parallel reduction: adjacent-pair (interleaved) and sequential-halving variants.

Both variants reduce each block in shared memory and, for inputs wider than
one block, sum the per-block partials on the host. The kernels carry no
instrumentation: for a single-block input the step table comes from a
``StepRows`` observer attached to the launch, which keeps only its shared
stores: one row per span between barriers, each cell the value that thread
stored to shared memory in the span. Threads that stored nothing render as
blanks.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import DeviceMemory, LaunchConfig, MetricsReport, Simulator, block_batchable
from ._common import MAX_BLOCK_THREADS, NotPowerOfTwo, is_pow2
from .trace import StepRows, StepTrace

VARIANTS = ("interleaved", "sequential")


def _reduce_block(ctx, inp, out, strides, adds):
    """Sum one block in shared memory: at stride s, lanes where ``adds(tid, s)`` add cell tid + s."""
    tid = ctx.thread_idx.x
    sdata = ctx.shared_array(ctx.block_dim.x, dtype=inp.buffer.dtype)
    sdata[tid] = inp[ctx.gx]
    ctx.barrier()
    for stride in strides:
        def body(s=stride):
            sdata[tid] = ctx.add(sdata[tid], sdata[tid + s])

        ctx.if_(adds(tid, stride), body)
        ctx.barrier()

    def write_partial():
        out[ctx.block_idx.x] = sdata[0]

    ctx.if_(tid == 0, write_partial)


@block_batchable
def reduce_interleaved_kernel(ctx, inp, out):
    """Adjacent pairs: s = 1, 2, 4, ... and the threads at multiples of 2s add."""
    bdim = ctx.block_dim.x
    strides = [1 << k for k in range(bdim.bit_length()) if 1 << k < bdim]
    _reduce_block(ctx, inp, out, strides, lambda tid, s: tid & (2 * s - 1) == 0)


@block_batchable
def reduce_sequential_kernel(ctx, inp, out):
    """Sequential halving: s = n/2, n/4, ..., 1 and the first s threads add."""
    bdim = ctx.block_dim.x
    strides = [bdim >> k for k in range(1, bdim.bit_length())]
    _reduce_block(ctx, inp, out, strides, lambda tid, s: tid < s)


def reduce_sum(
    values: Sequence,
    variant: str = "interleaved",
    *,
    simulator: Optional[Simulator] = None,
    metrics: Optional[MetricsReport] = None,
    steps: bool = True,
) -> tuple:
    """Sum a power-of-two array; returns (sum, StepTrace), or (sum, None) with ``steps=False``.

    Single-block inputs (length <= 1024) produce the full per-step table,
    from a ``StepRows`` on the launch; longer inputs fall back to per-block
    partials plus host accumulation and the trace keeps only the input row.
    Without ``steps`` no row is kept; the sum and the metrics are the same.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    values = values if hasattr(values, "__len__") else list(values)
    n = len(values)
    if not is_pow2(n):
        raise NotPowerOfTwo(f"reduction trace needs a power-of-two length, got {n}")
    mem = DeviceMemory()
    inp = mem.alloc("input", values)
    row = inp.tolist()  # the values as the device holds them, in the dtype of every later row
    if n == 1:
        return row[0], StepTrace([row]) if steps else None

    sim = simulator or Simulator()
    block = min(n, MAX_BLOCK_THREADS)
    blocks = n // block
    partials = mem.alloc("partials", blocks, dtype=inp.dtype)
    recorder = StepRows(n) if steps and blocks == 1 else None
    kernel = reduce_interleaved_kernel if variant == "interleaved" else reduce_sequential_kernel
    config = LaunchConfig(blocks, block, shared_mem_bytes=block * 4)
    sim.launch(kernel, config, mem, (inp, partials), name=f"reduce_{variant}", metrics=metrics, recorder=recorder)

    total = partials.data.cumsum()[-1].item()  # left to right in the device's dtype, as a block adds
    rows = [row] + (recorder.rows() if recorder is not None else [])
    return total, StepTrace(rows) if steps else None
