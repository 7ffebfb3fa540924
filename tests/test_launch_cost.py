"""A launch costs what it touches, not the length of the buffers it names.

Each check times the same kernel over a small and a large buffer on the same
machine and bounds the ratio, so it holds on fast and slow hosts alike. A
race-state reset or allocation that scales with buffer length per barrier or
per child grid makes the ratio grow with the length, far past the bound.
"""

import time

from warpsim import DeviceMemory, LaunchConfig, Simulator

SMALL = 1 << 10
LARGE = 1 << 20
MAX_RATIO = 3.0
SIBLINGS = 32


def interval_kernel(ctx, buf, intervals):
    """Barrier intervals that each store 32 elements, one per thread."""
    for k in range(intervals):
        buf[(ctx.global_id + 32 * k) % len(buf.buffer)] = k
        ctx.barrier()


def sibling_parent_kernel(ctx, buf, intervals):
    """Every thread launches one two-block child grid of 32 threads."""
    ctx.launch(interval_kernel, 2, 16, (buf, intervals))


def best_launch_time(kernel, config, length, intervals, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        mem = DeviceMemory()
        buf = mem.alloc("buf", length)
        start = time.perf_counter()
        Simulator().launch(kernel, config, mem, (buf, intervals))
        best = min(best, time.perf_counter() - start)
    return best


def length_ratio(kernel, config, intervals):
    large = best_launch_time(kernel, config, LARGE, intervals)
    return large / best_launch_time(kernel, config, SMALL, intervals)


def test_barrier_intervals_cost_what_they_store():
    assert length_ratio(interval_kernel, LaunchConfig(1, 32), 200) < MAX_RATIO


def test_sibling_child_grids_cost_what_they_store():
    assert length_ratio(sibling_parent_kernel, LaunchConfig(1, SIBLINGS), 8) < MAX_RATIO
