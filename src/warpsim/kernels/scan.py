"""Prefix sums: distance-doubling inclusive scan and work-efficient exclusive scan.

The inclusive scan follows the classic distance-doubling schedule (steps at
distance 1, 2, 4, ..., n/2; every thread holds a live cell every step). The
exclusive scan is the two-phase up-sweep/down-sweep tree with two elements
per thread; the down-sweep clears the last element after the up-sweep and
walks strides from blockDim down to 1, which is what actually produces an
exclusive scan.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import DeviceMemory, LaunchConfig, MetricsReport, Simulator, block_batchable, ceil_div
from ._common import (
    MAX_BLOCK_THREADS,
    THREADS_PER_BLOCK,
    NotPowerOfTwo,
    is_pow2,
    next_pow2,
)
from .trace import StepRows, StepTrace

BLELLOCH_MAX = 2 * MAX_BLOCK_THREADS  # two elements per thread, one block


def _distance_step(ctx, i, src, dst, distance):
    """dst[i] = src[i] + src[i - distance] where that exists, else src[i]."""
    def shifted():
        dst[i] = ctx.add(src[i], src[i - distance])

    def passthrough():
        dst[i] = src[i]

    ctx.if_(i >= distance, shifted, passthrough)


@block_batchable
def scan_step_kernel(ctx, src, dst, distance):
    """One distance-d pass over the full array with ping-pong buffers."""
    _distance_step(ctx, ctx.gx, src, dst, distance)


def hillis_steele_block_kernel(ctx, inp, out, n):
    """Every distance in one block, ping-ponging in shared memory."""
    tid = ctx.thread_idx.x
    src = ctx.shared_array(n, dtype=inp.buffer.dtype)
    dst = ctx.shared_array(n, dtype=inp.buffer.dtype)
    src[tid] = inp[tid]
    ctx.barrier()
    distance = 1
    while distance < n:
        _distance_step(ctx, tid, src, dst, distance)
        ctx.barrier()
        src, dst = dst, src
        distance *= 2
    out[tid] = src[tid]


def inclusive_scan_hillis_steele(
    values: Sequence,
    *,
    simulator: Optional[Simulator] = None,
    metrics: Optional[MetricsReport] = None,
    steps: bool = True,
) -> tuple:
    """Running sum including each position; returns (output, StepTrace), or (output, None) with ``steps=False``.

    Arbitrary lengths are padded with the additive identity to the next power
    of two and the output (and trace columns) truncated back. A single-block
    input's step rows come from a ``StepRows`` on its launch, which keeps
    its shared stores between barriers; wider inputs run
    one launch per step and the host reads each step's row from its output.
    Without ``steps`` no row is kept; the output and the metrics are the same.
    """
    values = values if hasattr(values, "__len__") else list(values)
    n0 = len(values)
    if n0 == 0:
        return [], StepTrace([[]]) if steps else None
    sim = simulator or Simulator()
    n = next_pow2(n0)
    padded = values if n == n0 else list(values) + [0] * (n - n0)
    one_block = n <= MAX_BLOCK_THREADS
    mem = DeviceMemory()
    src = mem.alloc("input" if one_block else "ping", padded)
    rows = [src.tolist()[:n0]] if steps else None  # the values as the device holds them, in every later row's dtype

    if one_block:
        out = mem.alloc("output", n, dtype=src.dtype)
        recorder = StepRows(n) if steps else None
        config = LaunchConfig(1, n, shared_mem_bytes=2 * n * 4)
        sim.launch(
            hillis_steele_block_kernel,
            config,
            mem,
            (src, out, n),
            name="inclusive_scan",
            metrics=metrics,
            recorder=recorder,
        )
        if steps:
            rows += [row[:n0] for row in recorder.rows()]
        return out.tolist()[:n0], StepTrace(rows) if steps else None

    # Wide inputs: one launch per distance, grid-wide sync between passes.
    dst = mem.alloc("pong", n, dtype=src.dtype)
    config = LaunchConfig(ceil_div(n, THREADS_PER_BLOCK), THREADS_PER_BLOCK)
    distance = 1
    while distance < n:
        sim.launch(scan_step_kernel, config, mem, (src, dst, distance), name="inclusive_scan", metrics=metrics)
        if steps:
            rows.append(dst.tolist()[:n0])
        src, dst = dst, src
        distance *= 2
    return src.tolist()[:n0], StepTrace(rows) if steps else None


def blelloch_block_kernel(ctx, inp, out, n):
    tid = ctx.thread_idx.x
    bdim = ctx.block_dim.x
    temp = ctx.shared_array(n, dtype=inp.buffer.dtype)
    temp[2 * tid] = inp[2 * tid]
    temp[2 * tid + 1] = inp[2 * tid + 1]
    ctx.barrier()

    stride = 1
    while stride <= bdim:
        index = (tid + 1) * stride * 2 - 1

        def up(s=stride, idx=index):
            temp[idx] = ctx.add(temp[idx], temp[idx - s])

        ctx.if_(index < n, up)
        ctx.barrier()
        stride *= 2

    def clear_last():
        temp[n - 1] = 0

    ctx.if_(tid == 0, clear_last)
    ctx.barrier()

    stride = bdim
    while stride > 0:
        index = (tid + 1) * stride * 2 - 1

        def down(s=stride, idx=index):
            held = temp[idx - s]
            temp[idx - s] = temp[idx]
            temp[idx] = ctx.add(temp[idx], held)

        ctx.if_(index < n, down)
        ctx.barrier()
        stride //= 2

    out[2 * tid] = temp[2 * tid]
    out[2 * tid + 1] = temp[2 * tid + 1]


def exclusive_scan_blelloch(
    values: Sequence,
    *,
    simulator: Optional[Simulator] = None,
    metrics: Optional[MetricsReport] = None,
) -> list:
    """Running sum excluding each position: output[0] = 0, output[i] = sum(x[:i])."""
    values = values if hasattr(values, "__len__") else list(values)
    n = len(values)
    if n == 0:
        return []
    if not is_pow2(n):
        raise NotPowerOfTwo(f"work-efficient scan needs a power-of-two length, got {n}")
    if n > BLELLOCH_MAX:
        raise ValueError(f"single-block scan capacity is {BLELLOCH_MAX} elements, got {n}")
    mem = DeviceMemory()
    inp = mem.alloc("input", values)
    if n == 1:
        return [0]
    sim = simulator or Simulator()
    out = mem.alloc("output", n, dtype=inp.dtype)
    config = LaunchConfig(1, n // 2, shared_mem_bytes=n * 4)
    sim.launch(
        blelloch_block_kernel,
        config,
        mem,
        (inp, out, n),
        name="exclusive_scan",
        metrics=metrics,
    )
    return out.tolist()
