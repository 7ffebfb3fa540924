"""Batched blocks: a marked kernel runs consecutive blocks as one group and
must give exactly what the same kernel gives block by block.

Random programs of the reference-machine IR, global-only and with shared
memory and barriers, run through the marked interpreter kernel (at the
engine's group width or at 2 to 4 blocks per group), the same kernel
unmarked and the reference machine; memory, ``MetricsReport`` JSON,
``SimError`` JSON and race warnings must be equal. Hand cases pin a race
inside one group, errors in one block of a group, primitives that stop a
group, cost-memo keys that a group shares with a single block, bank costs
on block-local addresses, and that batching is on at all.
"""

import functools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_machine
from test_race_tracker import observe, patterns, run_program
from warpsim import DeviceMemory, LaunchConfig, MetricsReport, Recorder, SimError, Simulator
from warpsim.core import access, block_batchable, engine, race
from warpsim.core.metrics import KernelCounters
from warpsim.kernels import matrix, reduce, scan
from warpsim.kernels.vector import vector_add_kernel


@block_batchable
@functools.wraps(run_program)
def batched_program(ctx, x, y, program):
    run_program(ctx, x, y, program)


def global_instructions(max_depth):
    leaf = st.one_of(
        st.tuples(st.just("gload"), st.sampled_from(["x", "y"]), patterns),
        st.tuples(st.just("gstore"), st.sampled_from(["x", "y"]), patterns, st.integers(0, 9)),
    )
    if max_depth == 0:
        return leaf
    body = st.lists(global_instructions(max_depth - 1), max_size=4)
    return st.one_of(leaf, st.tuples(st.just("if"), st.integers(1, 8), st.integers(0, 7), body, body))


def buffer(length):
    return [(7 * i) % 101 - 50 for i in range(length)]


# Up to 8 blocks of up to 256 threads. Buffers from 1 element to more than
# the grid's threads, so that blocks of a group sometimes share addresses and
# sometimes do not.
global_cases = st.tuples(
    st.integers(1, 8),
    st.integers(32, 256),
    st.integers(1, 2100).map(buffer),
    st.integers(1, 2100).map(buffer),
    st.lists(global_instructions(2), min_size=1, max_size=8),
)

SHIFT = ("shift", 0, [0])
# Blocks per group, drawn per example. At the engine's width (None) a grid of
# up to 8 blocks of up to 256 threads is one group; at 2, 3 or 4 blocks,
# random programs cross group boundaries.
blocks_per_group = st.sampled_from([None, 2, 3, 4])


def group_width(lanes):
    """The engine's group width patched to ``lanes`` lanes."""
    return mock.patch.object(engine, "_GROUP_LANES", lanes)


@settings(max_examples=80, deadline=None)
@given(global_cases, blocks_per_group)
# Conflict-free: the group runs through.
@example((8, 256, buffer(2048), buffer(2048), [("gload", "x", SHIFT), ("gstore", "y", SHIFT, 1)]), None)
# Blocks 0 and 1 of the group store one address: replayed.
@example((4, 32, buffer(40), buffer(40), [("gstore", "x", ("table", 1, [3]), 0)]), None)
# A partial mask across blocks, then a cross-block read of stored values.
@example((3, 64, buffer(200), buffer(200), [("if", 7, 3, [("gstore", "x", SHIFT, 2)], []), ("gload", "x", ("shift", 64, [0]))]),
         None)
# Two groups of four 1024-thread blocks; block b reads block b + 4's cells.
# The first group runs through; block 4's store meets block 0's read.
@example((8, 1024, buffer(8192), buffer(8192), [("gstore", "x", SHIFT, 1), ("gload", "x", ("shift", 4096, [0]))]), 4)
@example((8, 1024, buffer(8192), buffer(8192), [("gload", "x", ("shift", 4096, [0])), ("gstore", "x", SHIFT, 1)]), 4)
@example((8, 1024, buffer(8192), buffer(8192), [("gload", "x", ("shift", 4096, [0])), ("gstore", "y", SHIFT, 1)]), 4)
def test_batched_matches_sequential_and_reference_machine(case, per_group):
    assert_batched_matches(case, per_group)


def assert_batched_matches(case, per_group=None):
    """The marked kernel in groups of ``per_group`` blocks or of the engine's width, the unmarked one and the
    reference machine agree."""
    lanes = engine._GROUP_LANES if per_group is None else per_group * case[1]
    for mode in ("strict", "permissive"):
        want = observe(case, mode)
        with group_width(lanes):
            assert observe(case, mode, batched_program) == want
        assert reference_machine.run(case, mode) == want


# "table" unwrapped: its indices may fall outside the array. Drawn for about
# one access in ten, so that most programs run past their first instruction.
raw_patterns = st.tuples(st.just("raw"), st.integers(0, 12), st.lists(st.integers(0, 60), min_size=1, max_size=64))
any_patterns = st.integers(0, 9).flatmap(lambda r: raw_patterns if r == 0 else patterns)


def block_instructions(max_depth):
    """The IR without child launches or Python branches on the block: what a marked kernel may run."""
    leaf = st.one_of(
        st.tuples(st.just("gload"), st.sampled_from(["x", "y"]), any_patterns),
        st.tuples(st.just("gstore"), st.sampled_from(["x", "y"]), any_patterns, st.integers(0, 9)),
        st.tuples(st.just("sload"), any_patterns),
        st.tuples(st.just("sstore"), any_patterns, st.integers(0, 9)),
        st.just(("barrier",)),
    )
    if max_depth == 0:
        return leaf
    body = st.lists(block_instructions(max_depth - 1), max_size=4)
    return st.one_of(leaf, st.tuples(st.just("if"), st.integers(1, 8), st.integers(0, 7), body, body))


block_cases = st.tuples(
    st.integers(1, 8),
    st.integers(32, 256),
    st.integers(1, 2100).map(buffer),
    st.integers(1, 2100).map(buffer),
    st.lists(block_instructions(2), min_size=1, max_size=8),
)

LOCAL = ("local", 0, [0])
BARRIER = ("barrier",)
# Block 1 loads x[0] before a barrier and thread 0 of block 0 stores x[0]
# after it: block by block a race between blocks, at block 1.
CROSS_BARRIER_RACE = (4, 32, buffer(128), buffer(128), [("gload", "x", ("broadcast", 0, [0])), BARRIER,
                                                        ("gstore", "x", SHIFT, 1)])
# Blocks 0, 1 and 3 take the branch with every lane; block 2 without lanes 6-15.
PARTIAL_BARRIER_IN_BLOCK_2 = (4, 32, buffer(128), buffer(128), [("gstore", "y", SHIFT, 1),
                                                                ("if", 80, 70, [BARRIER], [])])
# Block b loads shared element 16 b of 48: block 3 is the first outside.
SHARED_OUT_OF_BOUNDS_IN_BLOCK_3 = (6, 32, buffer(192), buffer(192), [("gstore", "y", SHIFT, 1),
                                                                     ("sload", ("raw", 16, [0])),
                                                                     ("gstore", "x", SHIFT, 2)])
# Every thread stores its shared cell; block b then loads cell (40 + 4 b) % 48,
# which in block 2 is cell 0, stored by its thread 0 in the same interval.
SHARED_RACE_IN_BLOCK_2 = (4, 32, buffer(128), buffer(128), [("sstore", LOCAL, 1), ("sload", ("table", 4, [40])),
                                                            ("gstore", "y", SHIFT, 0)])


@settings(max_examples=80, deadline=None)
@given(block_cases, blocks_per_group)
# A reduction-like program that runs through: per-block cells, three barriers.
@example((4, 32, buffer(128), buffer(128), [("gload", "x", SHIFT), ("sstore", LOCAL, 1), BARRIER,
                                            ("sload", ("local", 1, [0])), BARRIER, ("sstore", LOCAL, 2), BARRIER,
                                            ("sload", ("reverse", 0, [0])), ("gstore", "y", SHIFT, 3)]), None)
# One block: thread t stores x[t], then after a barrier loads x[31 - t],
# another thread's store, and stores y[t].
@example((1, 32, buffer(32), buffer(32), [("gstore", "x", SHIFT, 1), BARRIER, ("gload", "x", ("reverse", 0, [0])),
                                          ("gstore", "y", SHIFT, 2)]), None)
@example(CROSS_BARRIER_RACE, None)
@example(PARTIAL_BARRIER_IN_BLOCK_2, None)
@example(SHARED_OUT_OF_BOUNDS_IN_BLOCK_3, None)
@example(SHARED_RACE_IN_BLOCK_2, None)
def test_batched_with_shared_memory_and_barriers_matches_sequential_and_reference_machine(case, per_group):
    assert_batched_matches(case, per_group)


@pytest.mark.parametrize("case, kind, block, thread", [
    (CROSS_BARRIER_RACE, "DataRace", 1, 0),
    (PARTIAL_BARRIER_IN_BLOCK_2, "BarrierDivergence", 2, 6),
    (SHARED_OUT_OF_BOUNDS_IN_BLOCK_3, "OutOfBounds", 3, 0),
    (SHARED_RACE_IN_BLOCK_2, "DataRace", 2, 1),
])
def test_an_error_in_one_block_of_a_group_names_that_block(case, kind, block, thread):
    error = observe(case, "strict", batched_program)[2]
    first = error["threads"][0]
    assert (error["kind"], first["block_idx"], first["thread_idx"]) == (kind, [block, 0, 0], [thread, 0, 0])


# ----------------------------------------------------------------------
# runs and lane selections: an instruction whose active indices are
# lo, lo + d, ... loads, stores and tracks races as a slice; one under a
# partial mask gathers its lanes once per mask, as views where they are one
# contiguous range. Pinned, in both modes.

PERMUTED = [0, *range(30, 0, -1), 31]  # ends like the run 0..31, but descends in between
STEP_2, STEP_3 = list(range(0, 32, 2)), list(range(0, 48, 3))  # 16 lanes each, inside the 48-cell shared array
EQUAL_COUNT_BRANCHES = [
    # Then-lanes gid % 4 < 2 and else-lanes: 16 of 32 each, as are the 8 and 8 of the inner branch.
    ("if", 4, 2, [("gload", "x", SHIFT), ("if", 2, 1, [("gstore", "y", SHIFT, 1)], [("gstore", "y", SHIFT, 2)]),
                  ("sstore", LOCAL, 1)],
     [("gload", "x", ("reverse", 0, [0])), ("gstore", "y", SHIFT, 3), ("sstore", LOCAL, 4)]),
    ("sload", LOCAL), ("gstore", "x", SHIFT, 5),
]
RUN_CASES = {
    "run to the last element": (1, 32, buffer(40), buffer(40), [("gload", "x", ("shift", 8, [0])),
                                                                ("gstore", "y", ("shift", 8, [0]), 1)]),
    "group run to the last element": (4, 32, buffer(128), buffer(128), [("gload", "x", SHIFT),
                                                                        ("gstore", "y", SHIFT, 1)]),
    "run of one lane": (1, 1, buffer(5), buffer(5), [("gload", "x", ("shift", 4, [0])),
                                                     ("gstore", "y", ("shift", 4, [0]), 1),
                                                     ("sstore", LOCAL, 1), ("sload", LOCAL)]),
    "run of one lane under a partial mask": (2, 32, buffer(64), buffer(64), [
        ("if", 64, 1, [("gstore", "x", SHIFT, 3), ("gload", "y", SHIFT), ("sstore", LOCAL, 1)], []),
    ]),
    # A run block by block; in a group the two blocks' lanes 0-39 leave a gap.
    "partial mask, contiguous lanes": (2, 64, buffer(128), buffer(128), [
        ("if", 64, 40, [("gload", "x", SHIFT), ("gstore", "y", SHIFT, 1), ("sstore", LOCAL, 2), ("sload", LOCAL)], []),
    ]),
    "partial mask, gapped lanes": (2, 32, buffer(64), buffer(64), [
        ("if", 4, 2, [("gload", "x", SHIFT), ("gstore", "y", SHIFT, 1), ("sstore", LOCAL, 2), ("sload", LOCAL)], []),
    ]),
    "permuted window": (2, 32, buffer(64), buffer(64), [("gload", "x", ("table", 32, PERMUTED)),
                                                        ("gstore", "y", ("table", 32, PERMUTED), 1),
                                                        ("sstore", ("table", 0, PERMUTED), 2),
                                                        ("sload", ("table", 0, PERMUTED)),
                                                        ("gstore", "x", SHIFT, 3)]),
    "wrapped shift": (1, 32, buffer(40), buffer(40), [("gload", "x", ("shift", 20, [0])),
                                                      ("gstore", "y", ("shift", 20, [0]), 1)]),
    # Thread 5 stores x[4] first; then threads 0-7 store the run x[0:8], where thread 4's store loses.
    "run store after a higher thread's store": (1, 8, buffer(16), buffer(16), [
        ("if", 8, 5, [], [("gstore", "x", ("table", 0, [0, 0, 0, 0, 0, 4, 14, 15]), 7)]),
        ("gstore", "x", SHIFT, 1),
    ]),
    # The group stores the run y[0:192], then block 3 loads outside the shared array: the replay
    # stops there, so blocks 4 and 5 of y get back what the slice's undo entry kept.
    "group replayed after a run store": (6, 32, buffer(192), buffer(192), [("gstore", "y", SHIFT, 1),
                                                                           ("sload", ("raw", 16, [0]))]),
    "nested branches of equal lane counts": (1, 32, buffer(32), buffer(32), EQUAL_COUNT_BRANCHES),
    "nested branches of equal lane counts in a group": (2, 32, buffer(64), buffer(64), EQUAL_COUNT_BRANCHES),
    # A unit run first: a run's memo key holds its pitch, so the runs that follow it from the same first
    # address cost their own segments. Shared runs under a contiguous mask of lanes 0-15.
    "step-2 runs": (1, 32, buffer(64), buffer(64), [
        ("gload", "x", SHIFT), ("gload", "x", ("stride", 2, [0])), ("gstore", "y", ("stride", 2, [0]), 1),
        ("if", 32, 16, [("sstore", ("table", 0, STEP_2), 2), ("sload", ("table", 0, STEP_2)),
                        ("gstore", "y", ("table", 0, STEP_2), 3)], []),
    ]),
    "step-3 runs": (1, 16, buffer(48), buffer(48), [
        ("gload", "x", SHIFT), ("gload", "x", ("stride", 3, [0])), ("gstore", "y", ("stride", 3, [0]), 1),
        ("sstore", ("table", 0, STEP_3), 2), ("sload", ("table", 0, STEP_3)), ("gstore", "y", ("table", 0, STEP_3), 3),
    ]),
    # Both blocks' lanes together are the step-2 run 0..62 of x.
    "group step-2 run": (2, 16, buffer(64), buffer(64), [("gload", "x", ("stride", 2, [0])),
                                                         ("gstore", "y", ("stride", 2, [0]), 1)]),
    # Each block's lanes step by 2 (by 3 under the branch); the group's do not: block 1 starts at 40 in x,
    # at 48 in the group's shared cells. Global memory keeps one interval per group, so the group meets its
    # own load of x[46] at the store after the barrier, and replays.
    "blocks of runs, group not a run": (2, 16, buffer(80), buffer(80), [
        ("gload", "x", ("table", 40, STEP_2)), ("gstore", "y", ("table", 40, STEP_2), 1),
        ("sstore", ("table", 0, STEP_2), 2), ("sload", ("table", 0, STEP_2)), BARRIER,
        ("if", 16, 8, [("sstore", ("table", 0, STEP_3), 3), ("gstore", "x", ("table", 40, STEP_3), 4)], []),
    ]),
    # The ends match the run 0, 2, 4, 6; the middle does not.
    "near run": (2, 4, buffer(16), buffer(16), [("gload", "x", ("table", 8, [0, 2, 5, 6])),
                                                ("gstore", "y", ("table", 8, [0, 2, 5, 6]), 1),
                                                ("sstore", ("table", 0, [0, 2, 5, 6]), 2),
                                                ("sload", ("table", 0, [0, 2, 5, 6])),
                                                ("gstore", "x", SHIFT, 3)]),
    # Lanes 0-6 step by 3 inside the array; lane 7 lands one past its end.
    "step-3 run out of bounds at its last lane": (1, 8, buffer(21), buffer(21), [
        ("gstore", "y", SHIFT, 1), ("gload", "x", ("raw", 0, list(range(0, 24, 3)))),
    ]),
    "shared step-7 run out of bounds at its last lane": (1, 8, buffer(8), buffer(8), [
        ("sstore", LOCAL, 1), ("sload", ("raw", 0, list(range(0, 56, 7)))),
    ]),
    # Threads 0 and 8 store their own cells 0 and 8; then lane i stores cell 2 + 3 i, and lane 2 meets thread 8's
    # cell: the race names cell 2 + 2 * 3 (shared: its byte offset), not lane 2's cell of a unit run.
    "shared step-3 store race": (1, 16, buffer(16), buffer(16), [
        ("if", 8, 1, [("sstore", LOCAL, 1)], []), ("sstore", ("table", 0, list(range(2, 50, 3))), 2),
    ]),
    "global step-3 store race": (1, 16, buffer(64), buffer(64), [
        ("if", 8, 1, [("gstore", "x", SHIFT, 1)], []), ("gstore", "x", ("table", 0, list(range(2, 50, 3))), 2),
    ]),
    # Lanes 0-3 read cells 0-3 twice, a store between the reads, as the Blelloch down-sweep does; then lanes 4-7
    # read the same run. Thread 0's store of cell 0 meets thread 4's read.
    "a run read again, by its lanes and by others": (1, 8, buffer(8), buffer(8), [
        ("if", 8, 4, [("sload", ("table", 0, [0, 1, 2, 3])), ("sstore", ("table", 0, [4, 5, 6, 7]), 1),
                      ("sload", ("table", 0, [0, 1, 2, 3])), ("sstore", ("table", 0, [8, 9, 10, 11]), 2)],
         [("sload", ("table", 0, [0, 1, 2, 3])), ("sstore", ("table", 0, [12, 13, 14, 15]), 3)]),
        ("sstore", LOCAL, 4),
    ]),
}


@pytest.mark.parametrize("case", RUN_CASES.values(), ids=RUN_CASES.keys())
def test_runs_and_lane_selections_match_sequential_and_reference_machine(case):
    assert_batched_matches(case)


def test_vector_add_stores_runs_without_sorting_addresses():
    with mock.patch.object(race, "_distinct", wraps=race._distinct) as distinct:
        assert vector_add_calls() == group_calls(64, 256)
    assert distinct.call_count == 0


def tracked_slices(primitive):
    """(memory instructions whose indices reach the race tracker as a slice, all of them) in a run of ``primitive``."""
    kinds = []

    def spied(check):
        def counted(track, addrs, *args):
            kinds.append(isinstance(addrs, slice))
            return check(track, addrs, *args)
        return counted

    with mock.patch.object(access, "MEMO", access._Memo()), \
            mock.patch.object(race._RaceTrack, "check_read", spied(race._RaceTrack.check_read)), \
            mock.patch.object(race._RaceTrack, "check_write", spied(race._RaceTrack.check_write)):
        primitive()  # under a fresh memo: no record to replay
    return sum(kinds), len(kinds)


def test_strided_tree_sweeps_track_every_memory_instruction_as_a_slice():
    """The up- and down-sweep and the interleaved reduction step their indices evenly, often under a mask whose
    lanes are one range: each instruction takes the slice path, with no address array to check or sort."""
    values = list(range(2048))
    assert tracked_slices(lambda: scan.exclusive_scan_blelloch(values)) == (97, 97)
    assert tracked_slices(lambda: reduce.reduce_sum(values[:1024], "interleaved")) == (34, 34)


def index_editing_kernel(ctx, x, edit):
    """Lanes 0-3, one contiguous range, load x at 3, 1, 2, 0 and ``edit`` their index array in place; then thread 4
    stores x[0], which thread 3 loaded in the same interval."""
    tid = ctx.thread_idx.x

    def load():
        idx = np.array([3, 1, 2, 0, 0, 0, 0, 0], dtype=np.int64)
        x[idx]
        if edit:
            idx[:] = 7

    def store():
        x[0] = 9

    ctx.if_(tid < 4, load)
    ctx.if_(tid == 4, store)


@pytest.mark.parametrize("mode", ["strict", "permissive"])
def test_a_kernel_that_edits_its_index_array_under_a_contiguous_mask_still_races(mode):
    observed = []
    for edit in (False, True):
        mem = DeviceMemory()
        x = mem.alloc("x", 8)
        try:
            Simulator().launch(index_editing_kernel, LaunchConfig(1, 8), mem, (x, edit), mode=mode)
            observed.append((None, list(mem.race_warnings), x.tolist()))
        except SimError as e:
            observed.append((e.to_json(), [], x.tolist()))
    assert observed[0] == observed[1]
    error, warnings, _ = observed[0]
    if mode == "strict":
        assert error["kind"] == "DataRace" and error["message"].startswith("conflicting accesses to 'x' address 0")
    else:
        assert warnings == ["conflicting accesses to 'x' address 0 without an intervening barrier "
                            "(threads 4 and 3, kernel index_editing_kernel, block 0, step 3)"]


# ----------------------------------------------------------------------
# hand cases


def run(kernel, blocks, threads, buffers, mode="strict", recorder=None):
    """(buffers after the launch, MetricsReport JSON, SimError JSON or None, warnings)."""
    mem = DeviceMemory()
    bufs = [mem.alloc(name, list(values)) for name, values in buffers.items()]
    metrics, error = MetricsReport(), None
    try:
        config = LaunchConfig(blocks, threads, shared_mem_bytes=4 * threads)
        Simulator().launch(kernel, config, mem, bufs, mode=mode, metrics=metrics, recorder=recorder)
    except SimError as e:
        error = e.to_json()
    return [b.tolist() for b in bufs], metrics.to_json(), error, list(mem.race_warnings)


def assert_same_as_unmarked(kernel, *args, **kwargs):
    got = run(kernel, *args, **kwargs)
    assert got == run(spy(kernel, marked=False)[0], *args, **kwargs)
    return got


@block_batchable
def clash_kernel(ctx, x, y):
    """Every block marks its cells of y; blocks 0 and 3 then store x[thread], then mark again."""
    y[ctx.global_id] = ctx.add(ctx.global_id, 1)
    ctx.if_((ctx.block_idx.x == 0) | (ctx.block_idx.x == 3), lambda: x.__setitem__(ctx.thread_idx.x, 7))
    y[ctx.global_id] = ctx.add(ctx.global_id, 100)


def test_race_between_blocks_of_one_group_gives_the_sequential_payload():
    threads, blocks = 32, 6
    (x, y), metrics, error, _ = assert_same_as_unmarked(
        clash_kernel, blocks, threads, {"x": [0] * threads, "y": [-1] * (threads * blocks)}
    )
    assert error["kind"] == "DataRace"
    assert [t["block_idx"] for t in error["threads"]] == [[3, 0, 0]]  # another block: no second thread
    assert error["threads"][0]["thread_idx"] == [0, 0, 0]
    assert x == [7] * threads  # block 0's store
    gid = list(range(threads * blocks))
    assert y[: 3 * threads] == [g + 100 for g in gid[: 3 * threads]]  # blocks 0-2 ran through
    assert y[3 * threads : 4 * threads] == [g + 1 for g in gid[3 * threads : 4 * threads]]  # block 3 stopped
    assert y[4 * threads :] == [-1] * (2 * threads)  # blocks 4 and 5 never ran
    assert metrics["global_transactions"] == 3 * 2 + 1 + 1 + 1  # the race counts before it is checked


@block_batchable
def barrier_kernel(ctx, x, y):
    y[ctx.global_id] = ctx.add(x[ctx.global_id], 1)
    ctx.barrier()
    x[ctx.global_id] = y[ctx.global_id ^ 1]  # a neighbour in the same block


@block_batchable
def shared_kernel(ctx, x, y):
    s = ctx.shared_array(ctx.block_dim.x)
    s[ctx.thread_idx.x] = x[ctx.global_id]
    y[ctx.global_id] = s[ctx.thread_idx.x]


@block_batchable
def launch_kernel(ctx, x, y):
    ctx.if_(ctx.thread_idx.x == 0, lambda: ctx.launch(child_kernel, 1, 4, (x, y)))


def child_kernel(ctx, x, y):
    y[ctx.global_id] = ctx.add(x[ctx.global_id], 5)


@block_batchable
def python_branch_kernel(ctx, x, y):
    if ctx.block_idx.x >= 2:  # breaks the mark's promise
        y[ctx.global_id] = ctx.add(x[ctx.global_id], 1)
    else:
        y[ctx.global_id] = x[ctx.global_id]


def test_marked_kernels_that_need_their_block_alone_match_the_unmarked_run():
    threads, blocks = 64, 4
    bufs = {"x": list(range(threads * blocks)), "y": [0] * (threads * blocks)}
    x = bufs["x"]
    want_y = {
        barrier_kernel: [v + 1 for v in x],
        shared_kernel: x,
        launch_kernel: [v + 5 for v in x[:4]] + [0] * (threads * blocks - 4),
        python_branch_kernel: [v + (g >= 2 * threads) for g, v in enumerate(x)],
    }
    for kernel, want in want_y.items():
        (_, y), _, error, _ = assert_same_as_unmarked(kernel, blocks, threads, bufs)
        assert error is None and y == want


def run_twice(kernel, first_blocks, blocks, threads=32):
    """Memory, one report's JSON and the SimError JSON or None after launches of ``first_blocks`` then ``blocks``."""
    mem = DeviceMemory()
    x, y = mem.alloc("x", list(range(threads))), mem.alloc("y", [0] * (threads * blocks))
    metrics, error = MetricsReport(), None
    Simulator().launch(kernel, LaunchConfig(first_blocks, threads), mem, (x, y), metrics=metrics)
    try:
        Simulator().launch(kernel, LaunchConfig(blocks, threads), mem, (x, y), metrics=metrics)
    except SimError as e:
        error = e.to_json()
    return x.tolist(), y.tolist(), json.dumps(metrics.to_json()), error


@pytest.mark.parametrize("kernel", [clash_kernel, launch_kernel], ids=["race", "launch"])
def test_a_replayed_group_counts_once_into_a_report_an_earlier_launch_filled(kernel):
    """A group that raises adds no counts, and its replay adds each block's once, after the earlier launch's."""
    marked, calls = spy(kernel)
    got = run_twice(marked, 3, 6)
    assert got == run_twice(spy(kernel, marked=False)[0], 3, 6)
    assert calls[calls.index(6 * 32) + 1] == 32  # the second launch's group replayed
    assert got[3] is None or got[3]["kind"] == "DataRace"


@block_batchable
def shared_only_kernel(ctx):
    words = ctx.shared_array(ctx.block_dim.x)
    words[ctx.thread_idx.x] = 1
    words[ctx.thread_idx.x]


@pytest.mark.parametrize("marked", [True, False], ids=["batched", "alone"])
def test_conflict_free_shared_accesses_give_an_all_zero_entry(marked):
    kernel, calls = spy(shared_only_kernel, marked)
    report = Simulator().launch(kernel, LaunchConfig(4, 32, shared_mem_bytes=4 * 32), DeviceMemory())
    zeros = KernelCounters().to_json()
    assert report.to_json() == {**zeros, "per_kernel": {"shared_only_kernel": zeros}}
    assert calls == ([4 * 32] if marked else [32] * 4)


@block_batchable
def load_kernel(ctx, buf):
    buf[ctx.global_id]


def padded_parent_kernel(ctx, buf):
    """One 80-thread block loads what a group of two 40-thread child blocks loads: the same addresses, other warps."""
    buf[ctx.global_id]
    ctx.if_(ctx.thread_idx.x == 0, lambda: ctx.launch(load_kernel, 2, 40, (buf,)))


def test_a_group_of_padded_blocks_does_not_share_cost_with_a_block_of_as_many_lanes():
    per_kernel = run(padded_parent_kernel, 1, 80, {"buf": [0] * 80})[1]["per_kernel"]
    assert per_kernel["padded_parent_kernel"]["global_transactions"] == 3  # warps of 32, 32 and 16 lanes
    assert per_kernel["load_kernel"]["global_transactions"] == 2 + 3  # per block, warps of 32 and 8 lanes


@block_batchable
def pair_kernel(ctx, buf):
    buf[ctx.global_id // 2]  # lanes 2i and 2i + 1 load element i


def wide_parent_kernel(ctx, small, large):
    """8 loads whose 4-byte key (4i + 65536 * 4i) equals, byte for byte, the 2-byte key of 16 child loads."""
    large[ctx.global_id * 65537]
    ctx.if_(ctx.global_id == 0, lambda: ctx.launch(pair_kernel, 2, 8, (small,)))


def test_memo_keys_of_one_pattern_in_two_integer_types_stay_apart():
    mem = DeviceMemory()
    small, large = mem.alloc("small", 8), mem.alloc("large", 1 << 19)
    report = Simulator().launch(wide_parent_kernel, LaunchConfig(1, 8), mem, (small, large))
    assert report.per_kernel["wide_parent_kernel"].global_transactions == 8  # a segment per lane
    assert report.per_kernel["pair_kernel"].global_transactions == 2  # a segment per block


# ----------------------------------------------------------------------
# reads a group forgets: once a group's loads of an array in one interval
# would outnumber its elements, the group drops them, and a store to the
# array in that interval replays the group block by block. In each case a
# group's first load of x already outnumbers x's elements.

STORE_IF_GX_BELOW_256 = ("if", 1024, 256)
# One group of four blocks of 256. Thread 0 stores x[1], which thread 1
# loaded: block by block, a race in block 0.
FORGOTTEN_READ_RACE = (4, 256, buffer(512), buffer(1), [
    ("gload", "x", SHIFT), ("gload", "x", ("stride", 3, [0])),
    (*STORE_IF_GX_BELOW_256, [("gstore", "x", ("shift", 1, [0]), 1)], []),
])
# Blocks load x[0:256]; block 0 stores x[300:556], which no thread loads.
FORGOTTEN_READS_WITHOUT_RACE = (4, 256, buffer(600), buffer(1), [
    ("gload", "x", LOCAL), (*STORE_IF_GX_BELOW_256, [("gstore", "x", ("shift", 300, [0]), 1)], []),
])
# Two groups of four blocks of 1024 at a group width of 4096 lanes. The first
# loads x[gx % 2048] and forgets it for its interval, but not for the grid:
# block 4 of the second group stores what block 0 loaded.
LATER_GROUP_STORES_WHAT_A_GROUP_FORGOT = (8, 1024, buffer(2048), buffer(1), [
    ("if", 8192, 4096, [("gload", "x", SHIFT)], [("gstore", "x", SHIFT, 1)]),
])


def forgetting_calls(case):
    kernel, calls = spy(run_program)
    return observe(case, "strict", kernel), calls


def test_a_store_after_forgotten_reads_replays_the_group_and_finds_its_race():
    assert_batched_matches(FORGOTTEN_READ_RACE)
    (_, _, error, _, _), calls = forgetting_calls(FORGOTTEN_READ_RACE)
    assert calls == [1024, 256]
    assert error["kind"] == "DataRace" and error["step"] == 3
    assert [t["global_linear_id"] for t in error["threads"]] == [0, 1]
    assert "address 1 " in error["message"]


def test_a_race_free_store_after_forgotten_reads_replays_to_the_same_result():
    assert_batched_matches(FORGOTTEN_READS_WITHOUT_RACE)
    (x, _, error, _, _), calls = forgetting_calls(FORGOTTEN_READS_WITHOUT_RACE)
    assert calls == [1024] + [256] * 4
    assert error is None and x[300:556] == [v + 1 for v in buffer(256)]


def test_a_group_keeps_the_reads_it_forgets_for_later_groups():
    assert_batched_matches(LATER_GROUP_STORES_WHAT_A_GROUP_FORGOT, 4)
    with group_width(4096):
        (_, _, error, _, _), calls = forgetting_calls(LATER_GROUP_STORES_WHAT_A_GROUP_FORGOT)
    assert calls == [4096, 4096, 1024]
    assert error["kind"] == "DataRace" and error["threads"][0]["block_idx"] == [4, 0, 0]


def test_naive_matmul_sorts_addresses_once():
    """Its one 4096-lane group loads a and b, 4096 elements each, 64 times;
    it never stores them, so those loads are forgotten, not folded."""
    a = matrix.Matrix(64, 64, [(5 * i) % 23 - 11 for i in range(64 * 64)])
    with mock.patch.object(access, "MEMO", access._Memo()), \
            mock.patch.object(race, "_distinct", wraps=race._distinct) as distinct:  # no record to replay
        c = matrix.matmul(a, a, "naive")
    want = np.array(a.data).reshape(64, 64)
    assert c.data == (want @ want).ravel().tolist()
    assert distinct.call_count <= 1


# ----------------------------------------------------------------------
# batching is on: kernel calls, not wall time


def spy(kernel, marked=True):
    """``kernel`` wrapped to record the lane count of each call, keeping or dropping its mark."""
    calls = []

    def counted(ctx, *args):
        calls.append(ctx.nthreads)
        kernel(ctx, *args)

    counted.__name__ = kernel.__name__
    return (block_batchable(counted) if marked else counted), calls


def group_calls(blocks, threads):
    """The lane count of each call when ``blocks`` blocks of ``threads`` run in groups of the engine's width."""
    per = max(1, min(engine._GROUP_LANES // threads, blocks))
    assert per > 1  # batching is on
    return [min(per, blocks - first) * threads for first in range(0, blocks, per)]


def vector_add_calls(marked=True, mode="strict", recorder=None):
    n, threads = 64 * 256, 256
    kernel, calls = spy(vector_add_kernel, marked)
    mem = DeviceMemory()
    a, b, c = mem.alloc("a", list(range(n))), mem.alloc("b", [1] * n), mem.alloc("c", n)
    Simulator().launch(kernel, LaunchConfig(n // threads, threads), mem, (a, b, c, n), mode=mode, recorder=recorder)
    assert c.tolist() == list(range(1, n + 1))
    return calls


def test_vector_add_runs_in_groups_of_the_group_width():
    assert vector_add_calls() == group_calls(64, 256)


def test_permissive_recorded_and_unmarked_launches_run_block_by_block():
    assert vector_add_calls(mode="permissive") == [256] * 64
    assert vector_add_calls(recorder=Recorder()) == [256] * 64
    assert vector_add_calls(marked=False) == [256] * 64


def test_a_group_that_raises_is_replayed_block_by_block():
    """``barrier_kernel`` passes data through global memory across a barrier.

    Global memory keeps one interval per group, so the group sees a store
    and another thread's load of one address in it, and replays.
    """
    kernel, calls = spy(barrier_kernel)
    run(kernel, 4, 64, {"x": list(range(256)), "y": [0] * 256})
    assert calls == [256, 64, 64, 64, 64]


def reduce_calls(variant, mode="strict", recorder=None):
    """Calls of the reduce kernel of ``variant`` over 2^16 values in 64 blocks of 1024 threads."""
    n = 1 << 16
    kernel, calls = spy(getattr(reduce, f"reduce_{variant}_kernel"))
    mem = DeviceMemory()
    inp, partials = mem.alloc("input", list(range(n))), mem.alloc("partials", 64)
    config = LaunchConfig(64, 1024, shared_mem_bytes=4096)
    Simulator().launch(kernel, config, mem, (inp, partials), mode=mode, recorder=recorder)
    assert sum(partials.tolist()) == n * (n - 1) // 2
    return calls


@pytest.mark.parametrize("variant", reduce.VARIANTS)
def test_reduce_sum_runs_in_groups_of_the_group_width(variant):
    name = f"reduce_{variant}_kernel"
    kernel, calls = spy(getattr(reduce, name))
    with mock.patch.object(reduce, name, kernel):
        total, _ = reduce.reduce_sum(list(range(1 << 16)), variant)
    assert total == (1 << 16) * ((1 << 16) - 1) // 2
    assert calls == group_calls(64, 1024)


@pytest.mark.parametrize("variant", reduce.VARIANTS)
def test_permissive_and_recorded_reduce_launches_run_block_by_block(variant):
    assert reduce_calls(variant) == group_calls(64, 1024)
    assert reduce_calls(variant, mode="permissive") == [1024] * 64
    assert reduce_calls(variant, recorder=Recorder()) == [1024] * 64


def test_tiled_matmul_runs_its_nine_blocks_as_one_group():
    kernel, calls = spy(matrix.matmul_tiled_kernel)
    a = matrix.Matrix(48, 48, [(3 * i) % 17 - 8 for i in range(48 * 48)])
    with mock.patch.object(matrix, "matmul_tiled_kernel", kernel):
        c = matrix.matmul(a, a, "tiled")
    assert c == matrix.matmul(a, a, "naive")
    assert calls == [2304]


@block_batchable
def half_word_kernel(ctx, buf):
    s = ctx.shared_array(33, dtype=np.int16, element_width=2)
    buf[ctx.global_id] = s[ctx.thread_idx.x % 2]


def test_a_group_counts_bank_conflicts_on_block_local_addresses():
    """Half-words 0 and 1 share a 4-byte bank: one extra cycle per warp.

    Block 1's 66-byte region starts half a bank in, so on group-wide
    addresses its two half-words would sit on two banks.
    """
    for marked in (True, False):
        kernel, calls = spy(half_word_kernel, marked)
        mem = DeviceMemory()
        report = Simulator().launch(kernel, LaunchConfig(2, 64, shared_mem_bytes=66), mem, (mem.alloc("buf", 128),))
        assert calls == ([128] if marked else [64, 64])
        assert report.bank_conflict_extra_cycles == 4


def test_group_lanes_repeat_per_block_and_number_warps_across_the_group():
    lanes = LaunchConfig(3, (8, 2)).lanes(3)
    linear, (tx, ty, _), warp, lane, warp_ids, active, *_, offset = lanes
    assert linear.tolist() == list(range(48))
    assert tx.tolist() == [i % 8 for i in range(16)] * 3 and ty.tolist() == [i // 8 for i in range(16)] * 3
    assert offset.tolist() == [i // 16 for i in range(48)]
    cfg = LaunchConfig(3, 40)
    _, _, warp, lane, warp_ids, active, *_, offset = cfg.lanes(3)
    assert warp_ids.tolist() == [2 * (i // 40) + (i % 40) // 32 for i in range(120)]
    assert cfg.lanes(3) is cfg.lanes(3) and cfg.lanes(1)[-1] == 0
    assert not np.asarray(warp_ids).flags.writeable


def lane_ids(ctx):
    """Each id field of ``ctx`` as one list per coordinate, a value per lane; every id array must be read-only."""
    ids = {}
    for name in ("block_linear", "block_idx", "global_id", "gx", "gy", "gz", "thread_idx"):
        value = getattr(ctx, name)
        for axis, v in zip("xyz", value) if isinstance(value, tuple) else [("", value)]:
            assert not isinstance(v, np.ndarray) or not v.flags.writeable, name + axis
            ids[name + axis] = np.broadcast_to(v, (ctx.nthreads,)).tolist()
    return ids


def launch_ids(grid, block, marked):
    """Each id field of every lane of one launch, in lane order, and the number of kernel calls."""
    per_call = []
    kernel, _ = spy(lambda ctx: per_call.append(lane_ids(ctx)), marked)
    Simulator().launch(kernel, LaunchConfig(grid, block), DeviceMemory())
    return {k: sum((ids[k] for ids in per_call), []) for k in per_call[0]}, len(per_call)


@pytest.mark.parametrize("grid, block", [(40, 64), ((5, 3), (8, 2)), ((2, 2, 2), 32)], ids=["1-D", "2-D", "3-D grid"])
@pytest.mark.parametrize("lanes", [engine._GROUP_LANES, 128])
def test_group_id_arrays_equal_each_blocks_own_and_are_read_only(grid, block, lanes):
    with group_width(lanes):
        grouped, calls = launch_ids(grid, block, marked=True)
    alone, block_calls = launch_ids(grid, block, marked=False)
    assert calls < block_calls == LaunchConfig(grid, block).blocks_per_grid  # batching is on
    assert grouped == alone
