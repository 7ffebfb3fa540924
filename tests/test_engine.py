"""SIMT machine semantics: lockstep, divergence, barriers, races, child grids."""

import json
import operator
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpsim import (
    BarrierDivergence,
    DataRace,
    DeviceMemory,
    LaunchConfig,
    LaunchConfigInvalid,
    MetricsReport,
    NestingLimit,
    OutOfBounds,
    Recorder,
    SimError,
    Simulator,
    bank_conflict_degree,
    coalesce_count,
    launch_kernel,
)
from warpsim.core import access, ceil_div, engine
from warpsim.core import config as config_module


def lanes_touching_memory(recorder):
    """Global thread ids that performed at least one access (any space)."""
    touched: set[int] = set()
    for rec in recorder.accesses:
        touched.update(rec.lanes.tolist())
    return touched


def by_warp(rec):
    """Per-warp (address, width, kind) lists of one recorded access."""
    out: dict[int, list[tuple[int, int, str]]] = {}
    for w, a in zip(rec.warp_ids.tolist(), rec.addresses.tolist()):
        out.setdefault(w, []).append((a, rec.width, rec.kind))
    return out


# ----------------------------------------------------------------------
# kernels under test

def add_kernel(ctx, a, b, c, n):
    i = ctx.gx

    def body():
        c[i] = ctx.add(a[i], b[i])

    ctx.if_(i < n, body)


# ``MetricsReport.to_json()`` of the shared-report test below, in key order.
SHARED_REPORT = {
    "global_transactions": 61, "divergence_events": 5, "bank_conflict_extra_cycles": 2,
    "barriers_executed": 2, "thread_steps": 228, "child_launches": 28,
    "per_kernel": {
        "busy": {"global_transactions": 4, "divergence_events": 4, "bank_conflict_extra_cycles": 2,
                 "barriers_executed": 2, "thread_steps": 80, "child_launches": 28},
        "double_kernel": {"global_transactions": 56, "divergence_events": 0, "bank_conflict_extra_cycles": 0,
                          "barriers_executed": 0, "thread_steps": 140, "child_launches": 0},
        "failing": {"global_transactions": 1, "divergence_events": 1, "bank_conflict_extra_cycles": 0,
                    "barriers_executed": 0, "thread_steps": 8, "child_launches": 0},
    },
}

def double_kernel(ctx, data, n):
    i = ctx.gx

    def body():
        data[i] = ctx.mul(data[i], 2)

    ctx.if_(i < n, body)


def read_only_kernel(ctx, data):
    data[ctx.global_id]


def noop_kernel(ctx):
    pass


def all_read_then_one_writes(writer):
    def kernel(ctx, buf):
        def store():
            buf[0] = 9

        buf[ctx.global_id * 0]  # every thread reads address 0
        ctx.if_(ctx.global_id == writer, store)

    return kernel


def writer_reads_back(ctx, buf):
    def store(value):
        def body():
            buf[0] = value

        return body

    ctx.if_(ctx.global_id == 0, store(1))
    ctx.if_(ctx.global_id == 3, store(2))
    ctx.if_(ctx.global_id == 0, lambda: buf[0])


def flags_branchy_kernel(ctx, inp, out):
    i = ctx.global_id
    v = inp[i]

    def double():
        out[i] = ctx.mul(v, 2)

    def halve():
        out[i] = ctx.floordiv(v, 2)

    ctx.if_(v > 0, double, halve)


def flags_predicated_kernel(ctx, inp, out):
    i = ctx.global_id
    v = inp[i]
    out[i] = ctx.where(v > 0, v * 2, v // 2)


def rotate_kernel(ctx, out):
    tid = ctx.thread_idx.x
    sh = ctx.shared_array(ctx.block_dim.x)
    ctx.barrier()
    sh[tid] = tid
    ctx.barrier()
    out[ctx.global_id] = sh[(tid + 1) % ctx.block_dim.x]


ROTATE_CONFIG = LaunchConfig(1, 48, shared_mem_bytes=48 * 4)


def barrier_in_branch_kernel(ctx):
    ctx.if_(ctx.lane < 16, lambda: ctx.barrier())


def write_write_race_kernel(ctx, out):
    def first():
        out[0] = 1

    def second():
        out[0] = 2

    ctx.if_(ctx.global_id == 0, first)
    ctx.if_(ctx.global_id == 1, second)


def write_write_synced_kernel(ctx, out):
    def first():
        out[0] = 1

    def second():
        out[0] = 2

    ctx.if_(ctx.global_id == 0, first)
    ctx.barrier()
    ctx.if_(ctx.global_id == 1, second)


def read_write_race_kernel(ctx, buf):
    neighbor = buf[(ctx.global_id + 1) % ctx.nthreads]
    buf[ctx.global_id] = ctx.add(neighbor, 1)


def broadcast_write_kernel(ctx, out):
    out[0] = ctx.global_id


def fresh_shared_kernel(ctx, out):
    sh = ctx.shared_array(4)
    first = sh[0]
    out[ctx.block_idx.x] = first
    sh[0] = 42


# ----------------------------------------------------------------------
# launch basics

class TestLaunchBasics:
    def test_paper_vector_add_single_block(self):
        mem = DeviceMemory()
        a = mem.alloc("a", [1, 2, 3, 4, 5])
        b = mem.alloc("b", [10, 20, 30, 40, 50])
        c = mem.alloc("c", 5)
        launch_kernel(add_kernel, LaunchConfig(1, 5), mem, (a, b, c, 5))
        assert c.tolist() == [11, 22, 33, 44, 55]

    def test_noop_kernel_counts_reads_only(self):
        mem = DeviceMemory()
        data = mem.alloc("data", list(range(64)))
        before = data.data.copy()
        recorder = Recorder()
        report = launch_kernel(read_only_kernel, LaunchConfig(2, 32), mem, (data,), recorder=recorder)
        assert data.data.tobytes() == before.tobytes()
        assert report.global_transactions > 0
        assert all(rec.kind == "read" for rec in recorder.accesses)

    @pytest.mark.parametrize("value", [None, np.array([None] * 4)], ids=["none", "array_of_none"])
    def test_a_store_of_none_stores_and_raises(self, value):
        # An assignment is a store whatever its value: None fails to convert
        # to the buffer's dtype as an array of None does, and loads nothing.
        def kernel(ctx, out):
            out[ctx.gx] = value

        mem = DeviceMemory()
        out = mem.alloc("out", [1, 2, 3, 4])
        recorder = Recorder()
        with pytest.raises(TypeError, match="not 'NoneType'"):
            launch_kernel(kernel, LaunchConfig(1, 4), mem, (out,), recorder=recorder)
        assert out.tolist() == [1, 2, 3, 4]
        assert recorder.accesses == []

    def test_doubling_with_boundary_guard(self):
        n = 1000
        values = list(range(n))
        mem = DeviceMemory()
        data = mem.alloc("data", values)
        config = LaunchConfig(ceil_div(n, 256), 256)
        assert config.total_threads == 1024
        recorder = Recorder()
        launch_kernel(double_kernel, config, mem, (data, n), recorder=recorder)
        assert data.tolist() == [v * 2 for v in values]
        touched = lanes_touching_memory(recorder)
        assert max(touched) == n - 1  # lanes 1000..1023 stayed inert

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(5)
        values = rng.integers(-50, 50, 96).tolist()
        snapshots, reports = [], []
        for _ in range(2):
            mem = DeviceMemory()
            inp = mem.alloc("inp", values)
            out = mem.alloc("out", 96)
            report = launch_kernel(flags_branchy_kernel, LaunchConfig(3, 32), mem, (inp, out))
            snapshots.append(out.data.tobytes())
            reports.append(json.dumps(report.to_json(), sort_keys=True))
        assert snapshots[0] == snapshots[1]
        assert reports[0] == reports[1]

    def test_invalid_configs_rejected(self):
        mem = DeviceMemory()
        with pytest.raises(LaunchConfigInvalid):
            launch_kernel(read_only_kernel, LaunchConfig(0, 32), mem, ())
        with pytest.raises(LaunchConfigInvalid):
            launch_kernel(read_only_kernel, LaunchConfig(1, 1025), mem, ())
        with pytest.raises(LaunchConfigInvalid):
            launch_kernel(read_only_kernel, LaunchConfig(1, (2, 3, 200)), mem, ())
        with pytest.raises(LaunchConfigInvalid):
            LaunchConfig(1, 32, shared_mem_bytes=-1).validate()

    @pytest.mark.parametrize(
        "args, message",
        [
            (((2.7, 1), 32), "grid_dim=(2.7, 1) must be an int or a tuple of ints"),
            ((2, (32, 1.5)), "block_dim=(32, 1.5) must be an int or a tuple of ints"),
            (("2", 32), "grid_dim='2' must be an int or a tuple of ints"),
            ((2, None), "block_dim=None must be an int or a tuple of ints"),
            ((2, 32, 8.5), "shared_mem_bytes=8.5 must be an integer"),
            ((2, 32, 0, 32.0), "warp_size=32.0 must be an integer"),
            ((True, (True, 2)), "grid_dim=True must be an int or a tuple of ints"),
            ((2, (32, True)), "block_dim=(32, True) must be an int or a tuple of ints"),
            ((2, 32, 0, True), "warp_size=True must be an integer"),
        ],
    )
    def test_non_integer_config_fields_rejected(self, args, message):
        # Truncated, these ran 2 blocks of 32 threads with 8 shared bytes.
        with pytest.raises(LaunchConfigInvalid) as exc:
            LaunchConfig(*args)
        assert exc.value.to_json() == {
            "kind": "LaunchConfigInvalid", "message": message, "threads": [], "buffer": None, "step": None,
            "kernel": None,
        }

    def test_zero_warp_size_rejected_at_launch(self):
        with pytest.raises(LaunchConfigInvalid) as exc:
            launch_kernel(noop_kernel, LaunchConfig(1, 32, warp_size=0), DeviceMemory())
        assert str(exc.value) == "warp_size=0 must be positive"

    def test_shared_array_length(self):
        lengths = []

        def kernel(ctx):
            lengths.append(len(ctx.shared_array(7)))

        launch_kernel(kernel, LaunchConfig(1, 4, shared_mem_bytes=28), DeviceMemory())
        assert lengths == [7]

    def test_numpy_integer_config_fields_accepted(self):
        config = LaunchConfig(np.int64(2), [np.int32(32), 1], np.int64(8), np.uint8(32))
        assert config == LaunchConfig(2, 32, 8)
        assert {type(v) for v in (*config.grid_dim, *config.block_dim, config.shared_mem_bytes, config.warp_size)} == {int}

    def test_shared_array_past_shared_mem_bytes_names_the_kernel(self):
        def kernel(ctx):
            ctx.shared_array(4)
            ctx.shared_array(8, element_width=8)

        with pytest.raises(LaunchConfigInvalid) as exc:
            launch_kernel(kernel, LaunchConfig(1, 4, shared_mem_bytes=64), DeviceMemory())
        message = "shared allocation of 64 bytes exceeds shared_mem_bytes=64 (offset 16)"
        assert exc.value.to_json() == {
            "kind": "LaunchConfigInvalid",
            "message": f"{message}; kernel=kernel",
            "threads": [],
            "buffer": None,
            "step": None,
            "kernel": "kernel",
        }

    def test_shared_mem_bytes_past_the_byte_extent_limit_rejected(self):
        # Accepted, s[1] at byte 2**40 packed into the key of warp 1's s[0]:
        # warp 0's two-way bank conflict counted 0 extra cycles, not 1.
        def kernel(ctx, width):
            s = ctx.shared_array(2, element_width=width)
            s[ctx.where(ctx.global_id == 0, 1, 0)]

        with pytest.raises(LaunchConfigInvalid) as exc:
            launch_kernel(kernel, LaunchConfig(1, 64, 2**41), DeviceMemory(), (2**40,))
        assert exc.value.args == (f"shared_mem_bytes={2**41} must be below {2**40}",)
        width = 2**39 - 128  # s[1] in bank 0, as at 2**40
        report = launch_kernel(kernel, LaunchConfig(1, 64, 2 * width), DeviceMemory(), (width,))
        assert report.bank_conflict_extra_cycles == 1
        # In int64, 2 cells of 2**62 bytes wrapped to -2**63 bytes and fit in 64.
        with pytest.raises(LaunchConfigInvalid, match=f"^shared allocation of {2**63} bytes exceeds"):
            launch_kernel(kernel, LaunchConfig(1, 64, 64), DeviceMemory(), (np.int64(2**62),))

    @pytest.mark.parametrize("length, width", [(8, 0), (8, -4), (-2, 4), (8.7, 4), (8, 2.5), (True, 4), (8, True)])
    def test_shared_array_of_negative_length_or_width_names_the_kernel(self, length, width):
        # A zero width would give 8 distinct cells one race address and a
        # negative one negative addresses; a negative length would reach numpy.
        # A fractional length would be truncated, and a fractional width
        # would fail the first store inside numpy.
        def kernel(ctx):
            s = ctx.shared_array(length, element_width=width)
            s[ctx.thread_idx.x] = 1

        with pytest.raises(LaunchConfigInvalid) as exc:
            launch_kernel(kernel, LaunchConfig(1, 8, shared_mem_bytes=64), DeviceMemory())
        if type(length) is not int or type(width) is not int:
            rule = "both must be integers"
        else:
            rule = "the length must be >= 0 and the element width >= 1"
        message = f"shared array of length={length}, element_width={width}: {rule}"
        assert exc.value.to_json() == {
            "kind": "LaunchConfigInvalid",
            "message": f"{message}; kernel=kernel",
            "threads": [],
            "buffer": None,
            "step": None,
            "kernel": "kernel",
        }

    def test_lane_value_of_the_wrong_shape_rejected(self):
        def kernel(ctx, data):
            data[ctx.global_id] = np.zeros(3)

        mem = DeviceMemory()
        data = mem.alloc("data", 4)
        with pytest.raises(ValueError, match=r"^lane value has shape \(3,\), expected \(4,\)$"):
            launch_kernel(kernel, LaunchConfig(1, 4), mem, (data,))

    def test_unknown_race_mode_rejected(self):
        with pytest.raises(ValueError, match="^unknown race mode 'bogus'$"):
            launch_kernel(noop_kernel, LaunchConfig(1, 4), DeviceMemory(), (), mode="bogus")

    def test_alloc_of_a_taken_name_rejected(self):
        mem = DeviceMemory()
        first = mem.alloc("data", [1, 2])
        with pytest.raises(ValueError, match="^buffer 'data' already allocated$"):
            mem.alloc("data", 3)
        assert mem.buffers["data"] is first and first.tolist() == [1, 2]

    @pytest.mark.parametrize("width", [0, -4, 2.5, True])
    def test_alloc_of_a_width_below_one_rejected(self, width):
        # A fractional width would be truncated to model narrower elements.
        rule = "must be positive" if type(width) is int else "must be an integer"
        mem = DeviceMemory()
        with pytest.raises(ValueError, match=f"^buffer 'data': element_width={width} {rule}$"):
            mem.alloc("data", 4, element_width=width)
        assert mem.buffers == {}

    @pytest.mark.parametrize("size", [8.5, 8.0, np.float64(3.0), "8", True, [[1, 2], [3, 4]]])
    def test_alloc_of_a_non_integer_size_rejected(self, size):
        # A scalar would build a 0-d buffer of one element; nested data, a
        # buffer whose loads fail mid-launch on the shape of their lane values.
        mem = DeviceMemory()
        with pytest.raises(ValueError) as exc:
            mem.alloc("data", size)
        rule = (f"size_or_data={size} must be an integer size or a sequence" if np.ndim(size) == 0
                else "size_or_data of shape (2, 2) must be one-dimensional")
        assert exc.value.args == (f"buffer 'data': {rule}",)
        assert mem.buffers == {}

    def test_a_sequence_of_bools_is_data(self):
        # A bool is not a size or a width, but bools in a sequence read as 0 and 1.
        assert DeviceMemory().alloc("flags", [True, False, True]).tolist() == [1, 0, 1]

    @pytest.mark.parametrize("size_or_data, width", [
        pytest.param([5, 6], 2**47, id="140737488355328"),
        pytest.param([5, 6], np.int64(2**62), id="width1"),
        pytest.param(2**38, 4, id="size_2**38"),
    ])
    def test_alloc_past_the_byte_extent_limit_rejected(self, size_or_data, width):
        # Accepted, a[1] at byte 2**47 packed into the key of warp 1's first
        # segment and counted 4 transactions, not 5. In int64, 2 * 2**62 wraps.
        # A size past the limit is rejected before anything is allocated.
        def kernel(ctx, a, out):
            out[ctx.global_id] = a[ctx.where(ctx.global_id == 0, 1, 0)]

        mem = DeviceMemory()
        size = size_or_data if isinstance(size_or_data, int) else len(size_or_data)
        with pytest.raises(ValueError) as exc, mock.patch.object(np, "zeros", side_effect=AssertionError("allocated")):
            mem.alloc("a", size_or_data, element_width=width)
        assert exc.value.args == (f"buffer 'a': {size} elements of element_width={width} span {2**40} bytes or more",)
        a = mem.alloc("a", [5, 6], element_width=2**39 - 128)  # the widest segment-aligned one below the limit
        out = mem.alloc("out", 64)
        assert launch_kernel(kernel, LaunchConfig(1, 64), mem, (a, out)).global_transactions == 5
        assert out.tolist() == [6] + [5] * 63

    @pytest.mark.parametrize("size", [-1, np.int64(-8)])
    def test_alloc_of_a_negative_size_rejected(self, size):
        # numpy's own error would name neither the buffer nor the parameter.
        mem = DeviceMemory()
        with pytest.raises(ValueError, match=f"^buffer 'data': size_or_data={size} must not be negative$"):
            mem.alloc("data", size)
        assert mem.buffers == {}

    def test_foreign_buffer_rejected(self):
        mem = DeviceMemory()
        other = DeviceMemory()
        foreign = other.alloc("x", [1, 2, 3])
        with pytest.raises(SimError):
            launch_kernel(read_only_kernel, LaunchConfig(1, 3), mem, (foreign,))

    def test_out_of_bounds_names_thread_and_buffer(self):
        def off_by_one(ctx, data):
            data[ctx.global_id + 1] = 0

        mem = DeviceMemory()
        data = mem.alloc("data", list(range(8)))
        with pytest.raises(OutOfBounds) as exc:
            launch_kernel(off_by_one, LaunchConfig(1, 8), mem, (data,))
        err = exc.value
        assert err.buffer == "data"
        assert err.threads and err.threads[0].global_linear_id == 7

    def test_thread_steps_counts_lane_arithmetic(self):
        mem = DeviceMemory()
        a = mem.alloc("a", list(range(100)))
        b = mem.alloc("b", list(range(100)))
        c = mem.alloc("c", 100)
        report = launch_kernel(add_kernel, LaunchConfig(1, 128), mem, (a, b, c, 100))
        assert report.thread_steps == 100


# ----------------------------------------------------------------------
# divergence

class TestDivergence:
    def _run_flags(self, kernel, values, block=32, grid=1):
        mem = DeviceMemory()
        inp = mem.alloc("inp", values)
        out = mem.alloc("out", len(values))
        recorder = Recorder()
        report = Simulator().launch(kernel, LaunchConfig(grid, block), mem, (inp, out), recorder=recorder)
        return out.tolist(), report, recorder

    def test_uniform_predicates_no_event(self):
        out, report, _ = self._run_flags(flags_branchy_kernel, [5] * 32)
        assert report.divergence_events == 0
        assert out == [10] * 32

    def test_alternating_flags_one_event_per_warp(self):
        values = [3 if i % 2 == 0 else -3 for i in range(64)]
        out, report, _ = self._run_flags(flags_branchy_kernel, values, block=64)
        assert report.divergence_events == 2  # two full warps, one event each
        assert out == [v * 2 if v > 0 else v // 2 for v in values]

    def test_predicated_form_is_divergence_free(self):
        values = [3 if i % 2 == 0 else -3 for i in range(64)]
        branchy, rep_b, _ = self._run_flags(flags_branchy_kernel, values, block=64)
        predicated, rep_p, _ = self._run_flags(flags_predicated_kernel, values, block=64)
        assert predicated == branchy
        assert rep_p.divergence_events == 0

    def test_partial_warp_divergence_counted_once(self):
        # 40 threads: warp 0 full, warp 1 has 8 live lanes; both alternate.
        values = [1 if i % 2 == 0 else -1 for i in range(40)]
        _, report, _ = self._run_flags(flags_branchy_kernel, values, block=40)
        assert report.divergence_events == 2

    def test_recount_from_predicate_log(self):
        rng = np.random.default_rng(9)
        values = rng.integers(-10, 10, 128).tolist()
        _, report, recorder = self._run_flags(flags_branchy_kernel, values, block=64, grid=2)
        recount = sum(
            int(np.sum((np.asarray(e.true_lane_counts) > 0) & (np.asarray(e.false_lane_counts) > 0)))
            for e in recorder.branches
        )
        assert recount == report.divergence_events

    def test_nested_divergence(self):
        def nested(ctx, out):
            i = ctx.global_id

            def outer():
                def inner():
                    out[i] = 2

                def inner_else():
                    out[i] = 1

                ctx.if_(i % 4 == 0, inner, inner_else)

            def outer_else():
                out[i] = 0

            ctx.if_(i % 2 == 0, outer, outer_else)

        mem = DeviceMemory()
        out = mem.alloc("out", 32)
        report = launch_kernel(nested, LaunchConfig(1, 32), mem, (out,))
        expected = [2 if i % 4 == 0 else 1 if i % 2 == 0 else 0 for i in range(32)]
        assert out.tolist() == expected
        assert report.divergence_events == 2

    def test_masked_lanes_make_zero_accesses(self):
        def masked_store(ctx, out):
            i = ctx.global_id

            def body():
                out[i] = 1

            ctx.if_(i < 10, body)

        mem = DeviceMemory()
        out = mem.alloc("out", 64)
        recorder = Recorder()
        launch_kernel(masked_store, LaunchConfig(2, 32), mem, (out,), recorder=recorder)
        assert lanes_touching_memory(recorder) == set(range(10))


# ----------------------------------------------------------------------
# barriers and races

class TestBarriersAndRaces:
    def test_full_block_barrier_resumes(self):
        mem = DeviceMemory()
        out = mem.alloc("out", 48)
        report = launch_kernel(rotate_kernel, ROTATE_CONFIG, mem, (out,))
        assert out.tolist() == [(t + 1) % 48 for t in range(48)]
        assert report.barriers_executed == 2
        assert not mem.race_warnings

    def test_barrier_in_divergent_branch_raises(self):
        mem = DeviceMemory()
        with pytest.raises(BarrierDivergence) as exc:
            launch_kernel(barrier_in_branch_kernel, LaunchConfig(1, 32), mem, ())
        assert exc.value.threads  # names the stalled warp via its first masked lane
        assert exc.value.threads[0].warp_id == 0

    def test_write_write_race_strict(self):
        mem = DeviceMemory()
        out = mem.alloc("out", 4)
        with pytest.raises(DataRace):
            launch_kernel(write_write_race_kernel, LaunchConfig(1, 32), mem, (out,))

    def test_barrier_between_writes_removes_race(self):
        mem = DeviceMemory()
        out = mem.alloc("out", 4)
        launch_kernel(write_write_synced_kernel, LaunchConfig(1, 32), mem, (out,))
        assert out.tolist()[0] == 2

    def test_read_write_race_strict(self):
        mem = DeviceMemory()
        buf = mem.alloc("buf", list(range(8)))
        with pytest.raises(DataRace):
            launch_kernel(read_write_race_kernel, LaunchConfig(1, 8), mem, (buf,))

    def test_same_instruction_conflict_detected(self):
        mem = DeviceMemory()
        out = mem.alloc("out", 2)
        with pytest.raises(DataRace):
            launch_kernel(broadcast_write_kernel, LaunchConfig(1, 32), mem, (out,))

    def test_cross_block_conflict_detected(self):
        def block_writer(ctx, out):
            def body():
                out[0] = ctx.block_idx.x

            ctx.if_(ctx.thread_idx.x == 0, body)

        mem = DeviceMemory()
        out = mem.alloc("out", 1)
        with pytest.raises(DataRace):
            launch_kernel(block_writer, LaunchConfig(2, 32), mem, (out,))

    def test_permissive_resolves_ascending_and_warns(self):
        mem = DeviceMemory()
        out = mem.alloc("out", 2)
        launch_kernel(broadcast_write_kernel, LaunchConfig(1, 32), mem, (out,), mode="permissive")
        assert out.tolist()[0] == 31  # highest global id wins
        assert mem.race_warnings

    def test_permissive_blocks_lower_id_late_write(self):
        def late_low_writer(ctx, out):
            def high():
                out[0] = 500

            def low():
                out[0] = 300

            ctx.if_(ctx.global_id == 5, high)
            ctx.if_(ctx.global_id == 3, low)

        mem = DeviceMemory()
        out = mem.alloc("out", 1)
        launch_kernel(late_low_writer, LaunchConfig(1, 8), mem, (out,), mode="permissive")
        assert out.tolist() == [500]
        assert mem.race_warnings

    def test_barrier_forgets_the_interval(self):
        # Each entry the first interval leaves behind would flag or drop a
        # store of the second if the barrier did not clear it.
        def kernel(ctx, buf):
            first = buf[0]  # every thread reads address 0

            def copy():
                buf[1] = first

            def increment():
                buf[0] = ctx.add(buf[0], 1)

            def overwrite():
                buf[1] = 7

            ctx.if_(ctx.global_id == 1, copy)
            ctx.barrier()
            ctx.if_(ctx.global_id == 3, increment)
            ctx.if_(ctx.global_id == 0, overwrite)

        for mode in ("strict", "permissive"):
            mem = DeviceMemory()
            buf = mem.alloc("buf", [5, 0])
            launch_kernel(kernel, LaunchConfig(1, 4), mem, (buf,), mode=mode)
            assert buf.tolist() == [6, 7]
            assert not mem.race_warnings

    def test_read_keeps_the_addresses_it_read(self):
        # The kernel changes its own index array after the read; the tracker
        # must still know the addresses the read touched.
        def kernel(ctx, a):
            i = ctx.global_id.copy()
            x = a[i]
            i += 1
            a[i % 8] = x

        mem = DeviceMemory()
        a = mem.alloc("a", list(range(8)))
        with pytest.raises(DataRace) as exc:
            launch_kernel(kernel, LaunchConfig(1, 8), mem, (a,))
        assert [t.global_linear_id for t in exc.value.threads] == [0, 1]

        mem = DeviceMemory()
        a = mem.alloc("a", list(range(8)))
        launch_kernel(kernel, LaunchConfig(1, 8), mem, (a,), mode="permissive")
        assert a.tolist() == [7, 0, 1, 2, 3, 4, 5, 6]
        assert mem.race_warnings

    def test_cross_block_read_keeps_the_addresses_it_read(self):
        # Block 0's read waits for the grid's first store, which block 1
        # makes after block 0 changed its index array.
        def kernel(ctx, a):
            i = ctx.global_id.copy()
            if ctx.block_linear == 0:
                a[i]
                i += 1
            else:
                a[i - 8] = i

        mem = DeviceMemory()
        a = mem.alloc("a", 16)
        with pytest.raises(DataRace) as exc:
            launch_kernel(kernel, LaunchConfig(2, 8), mem, (a,))
        assert [t.global_linear_id for t in exc.value.threads] == [8]
        assert "address 0 " in str(exc.value)

    @pytest.mark.parametrize(
        "kernel, threads, strict_payload, warnings",
        [
            # The earliest other reader of address 0 is thread 1.
            (all_read_then_one_writes(0), 8, [0, 1], ["threads 0 and 1, kernel k, block 0, step 2"]),
            (all_read_then_one_writes(5), 8, [5, 0], ["threads 5 and 0, kernel k, block 0, step 2"]),
            # Thread 0 reads back its own store, which thread 3 overwrote:
            # the earliest other writer is thread 3.
            (
                writer_reads_back,
                4,
                [3, 0],
                ["threads 3 and 0, kernel k, block 0, step 3", "threads 0 and 3, kernel k, block 0, step 5"],
            ),
        ],
        ids=["first_reader_writes", "middle_reader_writes", "writer_reads_back"],
    )
    def test_race_names_the_earliest_other_thread(self, kernel, threads, strict_payload, warnings):
        mem = DeviceMemory()
        buf = mem.alloc("buf", 1)
        with pytest.raises(DataRace) as exc:
            launch_kernel(kernel, LaunchConfig(1, threads), mem, (buf,), name="k")
        assert [t.global_linear_id for t in exc.value.threads] == strict_payload

        mem = DeviceMemory()
        buf = mem.alloc("buf", 1)
        launch_kernel(kernel, LaunchConfig(1, threads), mem, (buf,), name="k", mode="permissive")
        prefix = "conflicting accesses to 'buf' address 0 without an intervening barrier"
        assert mem.race_warnings == [f"{prefix} ({w})" for w in warnings]

    def test_launch_rejects_more_than_stamps_can_number(self):
        # Neither grid runs a block: a block of 2**62 threads or a grid of
        # 2**64 blocks would overflow the 64-bit words of the race state.
        for sim, config in (
            (Simulator(max_threads_per_block=1 << 62), LaunchConfig(1, 1 << 62)),
            (Simulator(), LaunchConfig((1 << 31, 1 << 31, 4), 1)),
        ):
            with pytest.raises(SimError, match="than 64-bit race stamps can number"):
                sim.launch(noop_kernel, config, DeviceMemory(), ())

    def test_shared_memory_fresh_per_block(self):
        mem = DeviceMemory()
        out = mem.alloc("out", 3)
        launch_kernel(fresh_shared_kernel, LaunchConfig(3, 1, shared_mem_bytes=16), mem, (out,))
        assert out.tolist() == [0, 0, 0]

    def test_race_error_reports_coords(self):
        mem = DeviceMemory()
        out = mem.alloc("out", 4)
        with pytest.raises(DataRace) as exc:
            launch_kernel(write_write_race_kernel, LaunchConfig(1, 32), mem, (out,))
        payload = exc.value.to_json()
        assert payload["kind"] == "DataRace"
        assert payload["threads"]


# ----------------------------------------------------------------------
# metrics cross-checks against the pure per-warp functions

def recount_transactions(recorder):
    total = 0
    for rec in recorder.accesses:
        if rec.space != "global":
            continue
        for _, accesses in by_warp(rec).items():
            total += coalesce_count([(a, w) for a, w, _ in accesses])
    return total


def recount_bank_cycles(recorder):
    total = 0
    for rec in recorder.accesses:
        if rec.space != "shared":
            continue
        for _, accesses in by_warp(rec).items():
            degree = bank_conflict_degree([a for a, _, _ in accesses])
            total += max(0, degree - 1)
    return total


class TestMetricsAdditivity:
    def test_report_equals_per_warp_recount(self):
        rng = np.random.default_rng(13)
        values = rng.integers(-20, 20, 96).tolist()
        mem = DeviceMemory()
        inp = mem.alloc("inp", values)
        out = mem.alloc("out", 96)
        recorder = Recorder()
        report = launch_kernel(flags_branchy_kernel, LaunchConfig(3, 32), mem, (inp, out), recorder=recorder)
        assert report.global_transactions == recount_transactions(recorder)

    def test_shared_conflicts_match_recount(self):
        def strided_shared(ctx, out):
            tid = ctx.thread_idx.x
            sh = ctx.shared_array(64)
            sh[tid * 2] = tid
            ctx.barrier()
            out[ctx.global_id] = sh[tid * 2]

        mem = DeviceMemory()
        out = mem.alloc("out", 32)
        recorder = Recorder()
        report = launch_kernel(
            strided_shared, LaunchConfig(1, 32, shared_mem_bytes=256), mem, (out,), recorder=recorder
        )
        assert report.bank_conflict_extra_cycles == recount_bank_cycles(recorder) == 2

    def test_per_kernel_breakdown_sums_to_totals(self):
        def parent(ctx, data):
            def body():
                ctx.launch(double_kernel, 1, 5, (data, 5))

            ctx.if_(ctx.global_id == 0, body)

        mem = DeviceMemory()
        data = mem.alloc("data", [1, 2, 3, 4, 5])
        report = launch_kernel(parent, LaunchConfig(1, 32), mem, (data,))
        totals = {k: 0 for k in ("global_transactions", "thread_steps", "child_launches")}
        for counters in report.per_kernel.values():
            for key in totals:
                totals[key] += getattr(counters, key)
        for key, value in totals.items():
            assert getattr(report, key) == value

    def test_one_report_over_several_launches_and_a_failed_one(self):
        """Counts of every kind land in the totals and in each kernel's entry,
        across launches sharing one report and up to the instruction that
        fails; a kernel that counts nothing gets no entry."""

        def idle(ctx, data):
            pass

        def busy(ctx, data):
            words = ctx.shared_array(80)
            words[ctx.thread_idx.x * 2] = ctx.add(data[ctx.global_id % 5], 1)  # two-way bank conflicts
            ctx.barrier()
            ctx.if_(ctx.thread_idx.x % 3 == 0, lambda: ctx.launch(double_kernel, 1, 5, (data, 5)))

        def failing(ctx, data):
            ctx.mul(data[ctx.thread_idx.x % 5], 2)
            ctx.if_(ctx.thread_idx.x < 4, lambda: data[ctx.thread_idx.x + 2])  # lanes 3 read past the end

        mem = DeviceMemory()
        data = mem.alloc("data", [1, 2, 3, 4, 5])
        report = MetricsReport()
        launch_kernel(idle, LaunchConfig(2, 8), mem, (data,), metrics=report)
        launch_kernel(busy, LaunchConfig(2, 40, shared_mem_bytes=320), mem, (data,), metrics=report)
        with pytest.raises(OutOfBounds):
            launch_kernel(failing, LaunchConfig(1, 8), mem, (data,), metrics=report)
        assert json.dumps(report.to_json()) == json.dumps(SHARED_REPORT)


# ----------------------------------------------------------------------
# dynamic parallelism

class TestDeviceLaunch:
    def test_parent_launches_child_doubling(self):
        def parent(ctx, data):
            def body():
                ctx.launch(double_kernel, 1, 5, (data, 5))

            ctx.if_(ctx.global_id == 0, body)

        mem = DeviceMemory()
        data = mem.alloc("data", [1, 2, 3, 4, 5])
        report = launch_kernel(parent, LaunchConfig(1, 32), mem, (data,))
        assert data.tolist() == [2, 4, 6, 8, 10]
        assert report.child_launches == 1
        assert "double_kernel" in report.per_kernel

    def test_zero_grid_child_is_invalid(self):
        def parent(ctx, data):
            def body():
                ctx.launch(double_kernel, 0, 5, (data, 5))

            ctx.if_(ctx.global_id == 0, body)

        mem = DeviceMemory()
        data = mem.alloc("data", [1, 2, 3, 4, 5])
        with pytest.raises(LaunchConfigInvalid):
            launch_kernel(parent, LaunchConfig(1, 32), mem, (data,))

    def test_grandchild_hits_nesting_limit(self):
        def child(ctx, data):
            def body():
                ctx.launch(double_kernel, 1, 5, (data, 5))

            ctx.if_(ctx.global_id == 0, body)

        def parent(ctx, data):
            def body():
                ctx.launch(child, 1, 1, (data,))

            ctx.if_(ctx.global_id == 0, body)

        mem = DeviceMemory()
        data = mem.alloc("data", [1, 2, 3, 4, 5])
        with pytest.raises(NestingLimit):
            launch_kernel(parent, LaunchConfig(1, 32), mem, (data,))

    def test_deeper_limit_allows_grandchild(self):
        def child(ctx, data):
            def body():
                ctx.launch(double_kernel, 1, 5, (data, 5))

            ctx.if_(ctx.global_id == 0, body)

        def parent(ctx, data):
            def body():
                ctx.launch(child, 1, 1, (data,))

            ctx.if_(ctx.global_id == 0, body)

        mem = DeviceMemory()
        data = mem.alloc("data", [1, 2, 3, 4, 5])
        sim = Simulator(max_nesting_depth=3)
        report = sim.launch(parent, LaunchConfig(1, 32), mem, (data,))
        assert data.tolist() == [2, 4, 6, 8, 10]
        assert report.child_launches == 2

    def test_each_active_lane_launches_one_child(self):
        def bump_counter(ctx, counter):
            def body():
                counter[0] = ctx.add(counter[0], 1)

            ctx.if_(ctx.global_id == 0, body)

        def parent(ctx, counter):
            def body():
                ctx.launch(bump_counter, 1, 1, (counter,))

            ctx.if_(ctx.global_id < 3, body)

        # Children complete synchronously one after another, so each sees the
        # previous increment.
        mem = DeviceMemory()
        counter = mem.alloc("counter", 1)
        report = launch_kernel(parent, LaunchConfig(1, 8), mem, (counter,))
        assert counter.tolist() == [3]
        assert report.child_launches == 3

    @pytest.mark.parametrize(
        "sim, grid, kind, message",
        [
            (Simulator(max_nesting_depth=1), 1, "NestingLimit", "child launch at depth 1 reaches the nesting limit of 1"),
            (Simulator(), 0, "LaunchConfigInvalid", "invalid child launch config: grid_dim=(0, 1, 1) has a component < 1"),
            (
                Simulator(),
                (1, 1, 1, 1),
                "LaunchConfigInvalid",
                "invalid child launch config: grid_dim=(1, 1, 1, 1) has 4 components, expected at most 3",
            ),
            (Simulator(max_nesting_depth=1), (1, 1, 1, 1), "NestingLimit", "child launch at depth 1 reaches the nesting limit of 1"),
            (
                Simulator(),
                (2.7, 1),
                "LaunchConfigInvalid",
                "invalid child launch config: grid_dim=(2.7, 1) must be an int or a tuple of ints",
            ),
        ],
    )
    def test_child_launch_check_names_the_first_launcher(self, sim, grid, kind, message):
        def parent(ctx, data):
            ctx.if_(ctx.global_id >= 2, lambda: ctx.launch(double_kernel, grid, 5, (data, 5)))

        mem = DeviceMemory()
        data = mem.alloc("data", 5)
        with pytest.raises(SimError) as exc:
            sim.launch(parent, LaunchConfig(1, 4), mem, (data,))
        assert exc.value.to_json() == {
            "kind": kind,
            "message": f"{message}; kernel=parent; step=1; at block(0, 0, 0) thread(2, 0, 0) (gid=2, warp=0, lane=2)",
            "threads": [{"block_idx": [0, 0, 0], "thread_idx": [2, 0, 0], "global_linear_id": 2, "warp_id": 0, "lane": 2}],
            "buffer": None,
            "step": 1,
            "kernel": "parent",
        }

    @pytest.mark.parametrize(
        "depth, grid, kind", [(1, 0, "NestingLimit"), (2, 0, "LaunchConfigInvalid"), (2, 1, "SimError")]
    )
    def test_child_launch_checks_run_in_order(self, depth, grid, kind):
        # Each case fails every check from its kind on: nesting, config, then the foreign buffer.
        foreign = DeviceMemory().alloc("x", 4)

        def parent(ctx):
            ctx.launch(double_kernel, grid, 4, (foreign, 4))

        with pytest.raises(SimError) as exc:
            Simulator(max_nesting_depth=depth).launch(parent, LaunchConfig(1, 1), DeviceMemory())
        assert exc.value.kind == kind

    def test_child_grids_of_one_geometry_share_one_config(self):
        configs = []

        def child(ctx):
            configs.append(ctx.config)

        def parent(ctx):
            ctx.launch(child, 2, 4)

        launch_kernel(parent, LaunchConfig(2, 3), DeviceMemory())
        assert len(configs) == 12 and all(c is configs[0] for c in configs)

    @pytest.mark.parametrize("grid, block, builds", [(2, (4,), 1), ([2], 4, 2), (np.int64(2), 4, 2)])
    def test_a_child_launch_of_a_known_raw_geometry_builds_no_config(self, grid, block, builds):
        # Each of the two blocks launches once. Plain ints and tuples of them find the config that the first launch
        # built by the raw arguments; a list or a numpy int builds and checks a config on every launch, then shares
        # the equal one already built.
        configs = []

        def parent(ctx):
            ctx.launch(lambda child: configs.append(child.config), grid, block, shared_mem_bytes=8)

        config = LaunchConfig(2, 3)
        with mock.patch("warpsim.core.config.as_dim3", wraps=config_module.as_dim3) as as_dim3:
            launch_kernel(parent, config, DeviceMemory())
        assert as_dim3.call_count == 2 * builds
        assert len(configs) == 12 and all(c is configs[0] for c in configs)

    @pytest.mark.parametrize("grid, message", [
        (True, "grid_dim=True must be an int or a tuple of ints"),
        (1.0, "grid_dim=1.0 must be an int or a tuple of ints"),
        ((True, 1), "grid_dim=(True, 1) must be an int or a tuple of ints"),
        (0, "grid_dim=(0, 1, 1) has a component < 1"),
    ])
    def test_a_raw_geometry_equal_to_a_known_one_is_still_checked(self, grid, message):
        # True == 1 and 1.0 == 1, so the second launch's raw arguments equal the first's; its own check rejects them.
        def parent(ctx):
            ctx.launch(double_kernel, 1, 4, (data, 4))
            ctx.launch(double_kernel, grid, 4, (data, 4))

        mem = DeviceMemory()
        data = mem.alloc("data", [0, 1, 2, 3])
        with pytest.raises(SimError) as exc:
            launch_kernel(parent, LaunchConfig(1, 1), mem)
        assert exc.value.to_json() == {
            "kind": "LaunchConfigInvalid",
            "message": f"invalid child launch config: {message}; kernel=parent; step=1; "
                       "at block(0, 0, 0) thread(0, 0, 0) (gid=0, warp=0, lane=0)",
            "threads": [
                {"block_idx": [0, 0, 0], "thread_idx": [0, 0, 0], "global_linear_id": 0, "warp_id": 0, "lane": 0},
            ],
            "buffer": None,
            "step": 1,
            "kernel": "parent",
        }
        assert data.tolist() == [0, 2, 4, 6]

    def test_foreign_buffer_in_child_launch_rejected(self):
        # A foreign buffer named like a local one shared its race track: the
        # child below used to fail with a false DataRace on 'x' address 0.
        def child(ctx, local, foreign):
            def write():
                local[0] = 1

            ctx.if_(ctx.global_id == 0, write)
            ctx.if_(ctx.global_id == 1, lambda: foreign[0])

        def parent(ctx, local):
            ctx.if_(ctx.global_id == 0, lambda: ctx.launch(child, 1, 2, (local, foreign)))

        mem = DeviceMemory()
        local = mem.alloc("x", 4)
        foreign = DeviceMemory().alloc("x", 4)
        with pytest.raises(SimError) as exc:
            launch_kernel(parent, LaunchConfig(1, 2), mem, (local,))
        assert type(exc.value) is SimError
        assert exc.value.args[0].startswith("buffer 'x' does not belong to this DeviceMemory")
        assert exc.value.kernel == "parent"
        assert [t.global_linear_id for t in exc.value.threads] == [0]


class TestMachineGeometry:
    def test_segment_size_is_configurable(self):
        # 32 contiguous 4-byte loads: one 128B segment, four 32B segments.
        mem = DeviceMemory()
        data = mem.alloc("data", list(range(32)))
        wide = Simulator().launch(read_only_kernel, LaunchConfig(1, 32), mem, (data,))
        narrow = Simulator(segment_bytes=32).launch(
            read_only_kernel, LaunchConfig(1, 32), mem, (data,)
        )
        assert wide.global_transactions == 1
        assert narrow.global_transactions == 4

    def test_bank_geometry_is_configurable(self):
        def stride_four(ctx, out):
            tid = ctx.thread_idx.x
            sh = ctx.shared_array(128)
            sh[tid * 4] = tid
            ctx.barrier()
            out[ctx.global_id] = sh[tid * 4]

        mem = DeviceMemory()
        out = mem.alloc("out", 32)
        config = LaunchConfig(1, 32, shared_mem_bytes=512)
        default = Simulator().launch(stride_four, config, mem, (out,))
        sixteen = Simulator(bank_count=16).launch(stride_four, config, mem, (out,))
        # stride of 4 words: degree 4 over 32 banks, degree 8 over 16 banks.
        assert default.bank_conflict_extra_cycles == 2 * 3
        assert sixteen.bank_conflict_extra_cycles == 2 * 7

    @pytest.mark.parametrize(
        "param, value",
        [("segment_bytes", 0), ("bank_count", 0), ("bank_width_bytes", -4), ("max_threads_per_block", 0),
         ("max_nesting_depth", 0)],
    )
    def test_non_positive_geometry_rejected(self, param, value):
        # Accepted, these gave wrong transaction or bank counts, or a bare
        # reshape error, on the first launch.
        with pytest.raises(ValueError, match=f"^{param}={value} must be positive$"):
            Simulator(**{param: value})
        Simulator(**{param: 1})

    @pytest.mark.parametrize(
        "param", ["segment_bytes", "bank_count", "bank_width_bytes", "max_threads_per_block", "max_nesting_depth"]
    )
    @pytest.mark.parametrize("value", [2.5, 0.5, float("nan"), 64.0, "64", None, True])
    def test_non_integer_geometry_rejected(self, param, value):
        # Accepted, a fractional or nan segment size counted float transactions,
        # and a nan nesting depth never stopped nesting.
        with pytest.raises(ValueError) as exc:
            Simulator(**{param: value})
        assert exc.value.args == (f"{param}={value!r} must be an integer",)

    def test_numpy_integer_geometry_counts_in_ints(self):
        sim = Simulator(segment_bytes=np.int64(32), bank_count=np.int32(32), bank_width_bytes=np.int64(4),
                        max_threads_per_block=np.int64(64))
        mem = DeviceMemory()
        data = mem.alloc("data", list(range(64)))
        report = sim.launch(read_only_kernel, LaunchConfig(2, 32), mem, (data,))
        assert type(report.global_transactions) is int and report.global_transactions == 8
        with pytest.raises(LaunchConfigInvalid, match="exceeds 64 threads per block"):
            sim.launch(read_only_kernel, LaunchConfig(1, 65), mem, (data,))

    def test_warp_size_changes_divergence_granularity(self):
        values = [1 if i % 2 == 0 else -1 for i in range(32)]
        mem = DeviceMemory()
        inp = mem.alloc("inp", values)
        out = mem.alloc("out", 32)
        config = LaunchConfig(1, 32, warp_size=8)
        report = launch_kernel(flags_branchy_kernel, config, mem, (inp, out))
        assert report.divergence_events == 4  # one per 8-lane warp


class TestCoordsAndAliases:
    def test_linearization_x_fastest(self):
        def probe(ctx, gid_out, lane_out, warp_out):
            gid_out[ctx.global_id] = ctx.global_id
            lane_out[ctx.global_id] = ctx.lane
            warp_out[ctx.global_id] = ctx.warp

        config = LaunchConfig((2, 2), (3, 2), shared_mem_bytes=0)
        total = config.total_threads
        mem = DeviceMemory()
        gid = mem.alloc("gid", total)
        lane = mem.alloc("lane", total)
        warp = mem.alloc("warp", total)
        launch_kernel(probe, config, mem, (gid, lane, warp))
        assert gid.tolist() == list(range(total))
        assert lane.tolist() == [t % 6 % 32 for t in range(total)]
        assert warp.tolist() == [0] * total  # 6 threads per block: one warp

        # Coordinates recover block/thread triples x-fastest.
        coord = config.thread_coord(config.threads_per_block * 3 + 4)
        assert coord.block_idx == (1, 1, 0)
        assert coord.thread_idx == (1, 1, 0)
        assert coord.lane == 4 and coord.warp_id == 0

    @pytest.mark.parametrize("lane_array", ["global_id", "warp", "thread_idx.x"])
    def test_lane_arrays_are_read_only(self, lane_array):
        # Doubling ctx.global_id in place used to change the engine's own
        # thread ids: the store below then named gid 8 in block (0, 0, 1).
        def kernel(ctx, buf):
            idx = operator.attrgetter(lane_array)(ctx)
            idx *= 2
            buf[idx] = 1

        mem = DeviceMemory()
        buf = mem.alloc("buf", 8)
        with pytest.raises(ValueError, match="read-only"):
            launch_kernel(kernel, LaunchConfig(1, 8), mem, (buf,))


dims = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(grid=dims, block=dims, warp_size=st.sampled_from([1, 8, 32]))
def test_lane_geometry_matches_the_config(grid, block, warp_size):
    """Every block's lane arrays agree with ``thread_coord`` and ``block_coords``."""
    config = LaunchConfig(grid, block, warp_size=warp_size)
    seen = []

    def probe(ctx):
        seen.append(ctx)

    launch_kernel(probe, config, DeviceMemory())
    assert len(seen) == config.blocks_per_grid
    T = config.threads_per_block
    bdx, bdy, bdz = config.block_dim
    gdx, gdy, _ = config.grid_dim
    for b, ctx in enumerate(seen):
        bx, by, bz = config.block_coords(b)
        assert tuple(ctx.block_idx) == (bx, by, bz)
        assert bx + gdx * (by + gdy * bz) == b  # x fastest
        assert ctx.thread_idx.x is seen[0].thread_idx.x  # built once per grid
        for k in range(T):
            gid = int(ctx.global_id[k])
            coord = config.thread_coord(gid)
            tx, ty, tz = (int(ctx.thread_idx.x[k]), int(ctx.thread_idx.y[k]), int(ctx.thread_idx.z[k]))
            assert gid == b * T + k
            assert coord.block_idx == (bx, by, bz)
            assert coord.thread_idx == (tx, ty, tz)
            assert tx < bdx and ty < bdy and tz < bdz and tx + bdx * (ty + bdy * tz) == k
            assert (int(ctx.warp[k]), int(ctx.lane[k])) == (coord.warp_id, coord.lane)
            assert coord.warp_id * warp_size + coord.lane == k and coord.lane < warp_size
            assert (int(ctx.gx[k]), int(ctx.gy[k]), int(ctx.gz[k])) == (bx * bdx + tx, by * bdy + ty, bz * bdz + tz)


# ----------------------------------------------------------------------
# oracle equivalence on randomized structured kernels

def make_program(rng, block_threads, n_stages):
    stages = []
    for _ in range(n_stages):
        kind = rng.choice(["affine", "branch", "exchange"])
        if kind == "affine":
            stages.append(("affine", int(rng.integers(1, 5)), int(rng.integers(-9, 10))))
        elif kind == "branch":
            stages.append(
                (
                    "branch",
                    int(rng.integers(2, 7)),
                    int(rng.integers(1, 4)),
                    int(rng.integers(-9, 10)),
                    int(rng.integers(-9, 10)),
                )
            )
        else:
            stages.append(("exchange", rng.permutation(block_threads)))
    return stages


def program_kernel(ctx, inp, out, stages):
    tid = ctx.thread_idx.x
    sh = ctx.shared_array(ctx.block_dim.x)
    v = inp[ctx.global_id]
    for stage in stages:
        if stage[0] == "affine":
            _, a, b = stage
            v = ctx.add(ctx.mul(v, a), b)
        elif stage[0] == "branch":
            _, m, cut, c, d = stage
            taken = [np.zeros_like(v)]
            fallen = [np.zeros_like(v)]

            def then_b(vv=v, c=c):
                taken[0] = ctx.add(vv, c)

            def else_b(vv=v, d=d):
                fallen[0] = ctx.sub(vv, d)

            ctx.if_(tid % m < cut, then_b, else_b)
            v = taken[0] + fallen[0]
        else:
            _, perm = stage
            sh[tid] = v
            ctx.barrier()
            v = ctx.add(v, sh[perm[tid]])
            ctx.barrier()
    out[ctx.global_id] = v


def program_oracle(values, stages, blocks, threads):
    """Sequential per-thread execution in ascending id order, segment-wise."""
    out = []
    for b in range(blocks):
        v = list(values[b * threads : (b + 1) * threads])
        for stage in stages:
            if stage[0] == "affine":
                _, a, bb = stage
                for t in range(threads):
                    v[t] = v[t] * a + bb
            elif stage[0] == "branch":
                _, m, cut, c, d = stage
                for t in range(threads):
                    if t % m < cut:
                        v[t] = v[t] + c
                    else:
                        v[t] = v[t] - d
            else:
                _, perm = stage
                written = list(v)  # all writes complete before any read
                for t in range(threads):
                    v[t] = v[t] + written[perm[t]]
        out.extend(v)
    return out


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_programs_match_sequential_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        threads = int(rng.integers(1, 129))
        blocks = int(rng.integers(1, 5))
        stages = make_program(rng, threads, int(rng.integers(1, 7)))
        values = rng.integers(-100, 100, blocks * threads).tolist()
        mem = DeviceMemory()
        inp = mem.alloc("inp", values)
        out = mem.alloc("out", blocks * threads)
        config = LaunchConfig(blocks, threads, shared_mem_bytes=threads * 4)
        launch_kernel(program_kernel, config, mem, (inp, out, stages))
        assert out.tolist() == program_oracle(values, stages, blocks, threads)

    def test_full_size_grid(self):
        rng = np.random.default_rng(999)
        threads, blocks = 1024, 4  # 4096 threads
        stages = make_program(rng, threads, 5)
        values = rng.integers(-100, 100, blocks * threads).tolist()
        mem = DeviceMemory()
        inp = mem.alloc("inp", values)
        out = mem.alloc("out", blocks * threads)
        config = LaunchConfig(blocks, threads, shared_mem_bytes=threads * 4)
        launch_kernel(program_kernel, config, mem, (inp, out, stages))
        assert out.tolist() == program_oracle(values, stages, blocks, threads)


def test_the_run_memo_keeps_only_runs_that_passed_and_starts_over_at_its_cap(monkeypatch):
    memo = access._Memo()
    monkeypatch.setattr(access, "MEMO", memo)
    monkeypatch.setattr(access, "_MEMO_BYTES", 64)
    run = np.arange(3, 15, 3)  # 3, 6, 9, 12: 32 bytes under (lo, n, d) = (3, 4, 3)
    assert engine._run(run) == engine._run(run.copy()) == slice(3, 13, 3)
    assert (list(memo), memo.nbytes) == ([(3, 4, 3)], 32)
    for not_a_run in ([3, 9, 6, 12], [3, 7, 8, 12]):  # the same ends and lane count
        assert engine._run(np.array(not_a_run)) is None
    assert list(memo) == [(3, 4, 3)]
    assert engine._run(np.arange(8)) == slice(0, 8, 1)  # 64 more bytes would pass the budget: the memo starts over
    assert (list(memo), memo.nbytes) == ([(0, 8, 1)], 64)


# ----------------------------------------------------------------------
# scalar operands of the arithmetic instructions

SCALARS = [3, 2.5, True, np.int32(3), 2**63, 2**64]
ARITH = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "floordiv": np.floor_divide}


def outcome(compute):
    """The dtype and values ``compute()`` gives, or its exception; with the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = compute()
            result = (str(got.dtype), got.shape, got.tolist())
        except Exception as e:
            result = (type(e).__name__, str(e))
    return result, [f"{w.category.__name__}: {w.message}" for w in caught]


def expanded(a, b, op, mask):
    """``op`` over the lanes of ``mask`` as it ran when a 0-d operand was first repeated once per lane."""
    av, bv = (np.full(mask.size, np.asarray(v)[()]) if np.ndim(v) == 0 else v for v in (a, b))
    if mask.all():
        return op(av, bv)
    out = np.zeros(mask.size, dtype=np.result_type(av, bv))
    out[mask] = op(av[mask], bv[mask])
    return out


@pytest.mark.parametrize("placement", ["full", "partial"])
@pytest.mark.parametrize("scalar", SCALARS, ids=repr)
def test_a_scalar_operand_gives_the_dtype_values_and_errors_of_its_lanes(scalar, placement):
    """A 0-d operand reaches the ufunc unexpanded; NEP 50 promotes a 0-d array as the lanes it stands for."""
    got, want = [], []

    def kernel(ctx, buf):
        tid = ctx.thread_idx.x
        lanes = [tid, tid.astype(np.int32), tid.astype(np.uint8), tid * 0.5, (tid % 2).astype(bool)]
        mask = np.ones(ctx.nthreads, bool) if placement == "full" else (tid % 3 == 1)

        def run():
            for name, op in ARITH.items():
                for a, b in [*((v, scalar) for v in lanes), *((scalar, v) for v in lanes), (scalar, scalar)]:
                    got.append(outcome(lambda: getattr(ctx, name)(a, b)))
                    want.append(outcome(lambda: expanded(a, b, op, mask)))

        run() if placement == "full" else ctx.if_(mask, run)

    mem = DeviceMemory()
    Simulator().launch(kernel, LaunchConfig(1, 12), mem, (mem.alloc("buf", 1),))
    assert len(got) == 4 * 11 and got == want
