"""An attached ``Recorder`` observes a launch without changing it.

Every kernel of ``tests/test_engine_golden.py`` and the kernels behind the
two step-table primitives run once with a recorder and once without; memory,
the ``MetricsReport`` JSON, race warnings and ``SimError`` JSON must match.
The primitives' global transaction counts are pinned to those of their bare
kernels, which carry no trace traffic.
"""

import numpy as np
import pytest

from warpsim import DeviceMemory, LaunchConfig, MetricsReport, Recorder, SimError, Simulator
from warpsim.kernels import inclusive_scan_hillis_steele, reduce_sum
from warpsim.kernels.reduce import reduce_interleaved_kernel, reduce_sequential_kernel
from warpsim.kernels.scan import hillis_steele_block_kernel, scan_step_kernel
from warpsim.kernels.trace import barrier_rows

from test_engine_golden import CASES, CONFIG

REDUCE_KERNELS = {"interleaved": reduce_interleaved_kernel, "sequential": reduce_sequential_kernel}


def inputs(n):
    return np.random.default_rng(n).integers(-1000, 1000, n).tolist()


def engine_case(kernel, mode):
    def run(mem, recorder):
        src = mem.alloc("src", [3 * i + 1 for i in range(80)], element_width=8)
        dst = mem.alloc("dst", 80)
        return Simulator().launch(kernel, CONFIG, mem, (src, dst), mode=mode, recorder=recorder)

    return run


def reduce_case(variant, n):
    def run(mem, recorder):
        args = (mem.alloc("input", inputs(n)), mem.alloc("partials", 1))
        config = LaunchConfig(1, n, shared_mem_bytes=n * 4)
        return Simulator().launch(
            REDUCE_KERNELS[variant], config, mem, args, name=f"reduce_{variant}", recorder=recorder
        )

    return run


def scan_case(n):
    def run(mem, recorder):
        sim, report = Simulator(), MetricsReport()
        kw = {"name": "inclusive_scan", "metrics": report, "recorder": recorder}
        if n <= 1024:
            args = (mem.alloc("input", inputs(n)), mem.alloc("output", n), n)
            config = LaunchConfig(1, n, shared_mem_bytes=2 * n * 4)
            sim.launch(hillis_steele_block_kernel, config, mem, args, **kw)
            return report
        src, dst = mem.alloc("ping", inputs(n)), mem.alloc("pong", n)
        config = LaunchConfig(n // 256, 256)
        distance = 1
        while distance < n:
            sim.launch(scan_step_kernel, config, mem, (src, dst, distance), **kw)
            src, dst = dst, src
            distance *= 2
        return report

    return run


RUNS = {
    **{name[:-5]: engine_case(kernel, mode) for name, (kernel, mode) in CASES.items()},
    **{f"reduce_{v}_{n}": reduce_case(v, n) for v in REDUCE_KERNELS for n in (16, 1024)},
    **{f"inclusive_scan_{n}": scan_case(n) for n in (16, 1024, 4096)},
}


def observe(run, recorder):
    """Everything a launch leaves behind, as plain data."""
    mem = DeviceMemory()
    out = {}
    try:
        out["metrics"] = run(mem, recorder).to_json()
    except SimError as e:
        out["error"] = e.to_json()
    out["memory"] = {buf.name: (str(buf.dtype), buf.tolist()) for buf in mem}
    out["race_warnings"] = list(mem.race_warnings)
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_recording_changes_nothing(name):
    recorder = Recorder()
    assert observe(RUNS[name], recorder) == observe(RUNS[name], None)
    assert recorder.accesses or recorder.branches


@pytest.mark.parametrize("variant", sorted(REDUCE_KERNELS))
@pytest.mark.parametrize("n, transactions", [(16, 2), (1024, 33)])
def test_reduce_sum_counts_only_the_kernel(variant, n, transactions):
    report = MetricsReport()
    total, trace = reduce_sum(inputs(n), variant, metrics=report)
    assert total == sum(inputs(n))
    assert trace.n_steps == n.bit_length() - 1
    assert report.to_json() == observe(reduce_case(variant, n), None)["metrics"]
    assert report.global_transactions == transactions


@pytest.mark.parametrize("n, transactions", [(16, 2), (1024, 64), (4096, 5126)])
def test_inclusive_scan_counts_only_the_kernel(n, transactions):
    report = MetricsReport()
    out, trace = inclusive_scan_hillis_steele(inputs(n), metrics=report)
    assert out == np.cumsum(inputs(n)).tolist()
    assert trace.rows[-1] == out
    assert report.to_json() == observe(scan_case(n), None)["metrics"]
    assert report.global_transactions == transactions


def test_recorder_follows_child_grids():
    def child(ctx, data):
        data[ctx.global_id] = ctx.mul(data[ctx.global_id], 2)

    def parent(ctx, data):
        ctx.barrier()

        def body():
            ctx.launch(child, 1, 4, (data,))

        ctx.if_(ctx.global_id == 0, body)

    mem = DeviceMemory()
    data = mem.alloc("data", [1, 2, 3, 4])
    recorder = Recorder()
    Simulator().launch(parent, LaunchConfig(1, 32), mem, (data,), recorder=recorder)
    assert data.tolist() == [2, 4, 6, 8]
    assert recorder.barriers == [("parent", 0, 0)]
    assert [(b.kernel, b.step, b.true_lane_counts) for b in recorder.branches] == [("parent", 1, (1,))]
    assert [(r.kernel, r.kind) for r in recorder.accesses] == [("child", "read"), ("child", "write")]
    store = recorder.accesses[1]
    assert store.values.tolist() == [2, 4, 6, 8]
    assert recorder.accesses[0].values is None


def test_recorded_values_are_a_copy():
    def store_then_change(ctx, out):
        v = ctx.add(ctx.global_id, 10)
        out[ctx.global_id] = v
        v[:] = -1

    mem = DeviceMemory()
    out = mem.alloc("out", 4)
    recorder = Recorder()
    Simulator().launch(store_then_change, LaunchConfig(1, 4), mem, (out,), recorder=recorder)
    assert recorder.accesses[0].values.tolist() == out.tolist() == [10, 11, 12, 13]


def test_barrier_rows_hold_shared_stores_between_barriers():
    def kernel(ctx, out):
        tid = ctx.thread_idx.x
        sh = ctx.shared_array(4)
        sh[tid] = 100 + tid  # before the first barrier: no row
        ctx.barrier()

        def odd():
            sh[tid] = tid * 10
            out[tid] = -1  # a global store is not a cell

        ctx.if_(tid % 2 == 1, odd)
        ctx.barrier()
        ctx.barrier()  # an empty span is a row of idle cells
        sh[tid] = 7  # after the last barrier: no row

    mem = DeviceMemory()
    out = mem.alloc("out", 4)
    recorder = Recorder()
    Simulator().launch(kernel, LaunchConfig(1, 4, shared_mem_bytes=16), mem, (out,), recorder=recorder)
    assert barrier_rows(recorder, 4) == [[None, 10, None, 30], [None] * 4]
