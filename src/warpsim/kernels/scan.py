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

from ..core import DeviceMemory, LaunchConfig, MetricsReport, Simulator, ceil_div
from ..core.memory import value_dtype
from ._common import (
    MAX_BLOCK_THREADS,
    THREADS_PER_BLOCK,
    NotPowerOfTwo,
    is_pow2,
    next_pow2,
)
from .trace import StepTrace

BLELLOCH_MAX = 2 * MAX_BLOCK_THREADS  # two elements per thread, one block


def scan_step_kernel(ctx, src, dst, trace, distance, step_row, n):
    """One distance-d pass over the full array with ping-pong buffers."""
    i = ctx.gx

    def shifted():
        dst[i] = ctx.add(src[i], src[i - distance])

    def passthrough():
        dst[i] = src[i]

    ctx.if_(i >= distance, shifted, passthrough)
    trace[step_row * n + i] = dst[i]


def hillis_steele_block_kernel(ctx, inp, out, trace, n):
    tid = ctx.thread_idx.x
    dt = inp.buffer.dtype
    ping = ctx.shared_array(n, dtype=dt)
    pong = ctx.shared_array(n, dtype=dt)
    ping[tid] = inp[tid]
    ctx.barrier()
    bufs = (ping, pong)
    distance, step = 1, 1
    while distance < n:
        src, dst = bufs[(step - 1) % 2], bufs[step % 2]

        def shifted(d=distance, s=src, t=dst):
            t[tid] = ctx.add(s[tid], s[tid - d])

        def passthrough(s=src, t=dst):
            t[tid] = s[tid]

        ctx.if_(tid >= distance, shifted, passthrough)
        ctx.barrier()
        trace[(step - 1) * n + tid] = dst[tid]
        distance *= 2
        step += 1
    out[tid] = bufs[(step - 1) % 2][tid]


def inclusive_scan_hillis_steele(
    values: Sequence,
    *,
    simulator: Optional[Simulator] = None,
    metrics: Optional[MetricsReport] = None,
) -> tuple:
    """Running sum including each position; returns (output, StepTrace).

    Arbitrary lengths are padded with the additive identity to the next power
    of two and the output (and trace columns) truncated back.
    """
    values = list(values)
    n0 = len(values)
    if n0 == 0:
        return [], StepTrace([[]])
    sim = simulator or Simulator()
    n = next_pow2(n0)
    dtype = value_dtype(values)
    padded = values + [0] * (n - n0)
    steps = n.bit_length() - 1

    mem = DeviceMemory()
    if n <= MAX_BLOCK_THREADS:
        inp = mem.alloc("input", padded, dtype=dtype)
        out = mem.alloc("output", n, dtype=dtype)
        trace_buf = mem.alloc("trace", max(1, steps * n), dtype=dtype)
        config = LaunchConfig(1, n, shared_mem_bytes=2 * n * 4)
        sim.launch(
            hillis_steele_block_kernel,
            config,
            mem,
            (inp, out, trace_buf, n),
            name="inclusive_scan",
            metrics=metrics,
        )
        result = out.tolist()
        flat = trace_buf.tolist()
        rows = [list(values)] + [flat[s * n : s * n + n0] for s in range(steps)]
        return result[:n0], StepTrace(rows)

    # Wide inputs: one launch per distance, grid-wide sync between passes.
    ping = mem.alloc("ping", padded, dtype=dtype)
    pong = mem.alloc("pong", n, dtype=dtype)
    trace_buf = mem.alloc("trace", steps * n, dtype=dtype)
    config = LaunchConfig(ceil_div(n, THREADS_PER_BLOCK), THREADS_PER_BLOCK)
    bufs = (ping, pong)
    distance, step = 1, 1
    while distance < n:
        src, dst = bufs[(step - 1) % 2], bufs[step % 2]
        sim.launch(
            scan_step_kernel,
            config,
            mem,
            (src, dst, trace_buf, distance, step - 1, n),
            name="inclusive_scan",
            metrics=metrics,
        )
        distance *= 2
        step += 1
    result = bufs[(step - 1) % 2].tolist()
    flat = trace_buf.tolist()
    rows = [list(values)] + [flat[s * n : s * n + n0] for s in range(steps)]
    return result[:n0], StepTrace(rows)


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
    values = list(values)
    n = len(values)
    if n == 0:
        return []
    if not is_pow2(n):
        raise NotPowerOfTwo(f"work-efficient scan needs a power-of-two length, got {n}")
    if n == 1:
        return [0]
    if n > BLELLOCH_MAX:
        raise ValueError(f"single-block scan capacity is {BLELLOCH_MAX} elements, got {n}")
    sim = simulator or Simulator()
    dtype = value_dtype(values)
    mem = DeviceMemory()
    inp = mem.alloc("input", values, dtype=dtype)
    out = mem.alloc("output", n, dtype=dtype)
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
