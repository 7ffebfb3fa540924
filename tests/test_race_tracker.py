"""Differential test of the race tracker against a brute-force reference machine.

Random small kernels run once on the engine and once on
``reference_machine``, which interprets the same program one lane at a time
from full access histories; memory, the strict ``SimError`` JSON, the
permissive race warnings and the ``MetricsReport`` JSON must match in both
modes.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_machine
from reference_machine import SHARED_LEN, lane_address
from warpsim import DeviceMemory, LaunchConfig, MetricsReport, SimError, Simulator
from warpsim.core import engine
from warpsim.core.race import _RaceTrack
from warpsim.kernels.matrix import TILE, matmul_naive_kernel, matmul_tiled_kernel, matrix_add_kernel

# ----------------------------------------------------------------------
# random kernels
#
# An address pattern maps (global id, block-local thread id) to an index.
# They cover ascending, descending, strided (colliding), broadcast and
# arbitrary per-thread addresses, and block-local runs ``k + tid * d`` with a
# step ``d >= 2``, such as a tree sweep's.

MAX_THREADS = 64


def addresses(pattern, ctx, length):
    """Each lane's index; ``ctx.block_linear`` holds one block or, for a group of blocks, one per lane."""
    gids, tids = ctx.global_id.tolist(), ctx.thread_idx.x.tolist()
    blocks = np.broadcast_to(ctx.block_linear, ctx.global_id.shape).tolist()
    return np.array([lane_address(pattern, g, t, b, ctx.block_dim.x, length) for g, t, b in zip(gids, tids, blocks)])


patterns = st.one_of(
    st.tuples(
        st.sampled_from(["shift", "stride", "reverse", "broadcast", "table", "local"]),
        st.integers(0, 5),
        st.lists(st.integers(0, 200), min_size=1, max_size=MAX_THREADS),
    ),
    st.tuples(st.just("step"), st.integers(0, 5), st.lists(st.integers(2, 4), min_size=1, max_size=1)),
)


def instructions(max_depth, allow_launch):
    leaf = st.one_of(
        st.tuples(st.just("gload"), st.sampled_from(["x", "y"]), patterns),
        st.tuples(st.just("gstore"), st.sampled_from(["x", "y"]), patterns, st.integers(0, 9)),
        st.tuples(st.just("sload"), patterns),
        st.tuples(st.just("sstore"), patterns, st.integers(0, 9)),
        st.just(("barrier",)),
    )
    if allow_launch:
        leaf = st.one_of(leaf, launches(min_launchers=1))
    if max_depth == 0:
        return leaf
    body = st.lists(instructions(max_depth - 1, allow_launch), max_size=4)
    branch = st.one_of(
        st.tuples(st.just("if"), st.integers(1, 8), st.integers(0, 7), body, body),
        st.tuples(st.just("range"), st.integers(0, 32), st.integers(1, MAX_THREADS), body, body),
    )
    return st.one_of(leaf, branch)


def launches(min_launchers):
    """A child launch from the lowest ``launchers`` threads: sibling grids."""
    return st.tuples(
        st.just("launch"),
        st.integers(min_launchers, 3),
        st.integers(1, 2),
        st.integers(1, 32),
        st.lists(instructions(1, False), min_size=min_launchers - 1, max_size=6),
    )


def run_program(ctx, x, y, program):
    bufs = {"x": x, "y": y}
    shared = []  # allocated on first use, so that a program without shared accesses allocates none
    reg = [ctx.global_id]

    def sh():
        if not shared:
            shared.append(ctx.shared_array(SHARED_LEN))
        return shared[0]

    def execute(instrs):
        for ins in instrs:
            op = ins[0]
            if op == "gload":
                reg[0] = bufs[ins[1]][addresses(ins[2], ctx, len(bufs[ins[1]].buffer))]
            elif op == "gstore":
                bufs[ins[1]][addresses(ins[2], ctx, len(bufs[ins[1]].buffer))] = ctx.add(reg[0], ins[3])
            elif op == "sload":
                reg[0] = sh()[addresses(ins[1], ctx, SHARED_LEN)]
            elif op == "sstore":
                sh()[addresses(ins[1], ctx, SHARED_LEN)] = ctx.add(reg[0], ins[2])
            elif op == "barrier":
                ctx.barrier()
            elif op == "from_block":  # a uniform branch: only blocks from ins[1] on
                if ctx.block_linear >= ins[1]:
                    execute(ins[2])
            elif op == "if":
                _, modulus, cut, then_body, else_body = ins
                ctx.if_(
                    ctx.global_id % modulus < cut,
                    lambda: execute(then_body),
                    lambda: execute(else_body),
                )
            elif op == "range":  # one contiguous lane range of each block
                _, lo, hi, then_body, else_body = ins
                tid = ctx.thread_idx.x
                ctx.if_((lo <= tid) & (tid < hi), lambda: execute(then_body), lambda: execute(else_body))
            else:
                _, launchers, grid, block, child_program = ins
                ctx.if_(
                    ctx.global_id < launchers,
                    lambda: ctx.launch(
                        run_program, grid, block, (x, y, child_program), shared_mem_bytes=SHARED_LEN * 8
                    ),
                )

    execute(program)


def observe(case, mode, kernel=run_program):
    """What ``reference_machine.run`` gives, from the engine running ``kernel``."""
    blocks, threads, x_init, y_init, program = case
    mem = DeviceMemory()
    x = mem.alloc("x", x_init)
    y = mem.alloc("y", y_init)
    config = LaunchConfig(blocks, threads, shared_mem_bytes=SHARED_LEN * 8)
    metrics, error = MetricsReport(), None
    try:
        Simulator().launch(kernel, config, mem, (x, y, program), mode=mode, metrics=metrics)
    except SimError as e:
        error = e.to_json()
    return x.tolist(), y.tolist(), error, list(mem.race_warnings), metrics.to_json()


def cases(programs, min_blocks=1):
    return st.tuples(
        st.integers(min_blocks, 4),
        st.integers(1, MAX_THREADS),
        st.lists(st.integers(-50, 50), min_size=1, max_size=96),
        st.lists(st.integers(-50, 50), min_size=1, max_size=96),
        programs,
    )


def assert_same_observables(case):
    for mode in ("strict", "permissive"):
        assert observe(case, mode) == reference_machine.run(case, mode)


LOCAL0 = ("local", 0, [0])
SHIFT0 = ("shift", 0, [0])
BARRIER = ("barrier",)


def step(k, d):
    """The run ``k + tid * d`` of each block."""
    return ("step", k, [d])


# Tree and distance-doubling sweeps, one interval each, after every lane of 16 has stored its own shared cell. A
# Blelloch up-sweep at stride s, under lanes 0..n/2s - 1, loads idx = 2s(tid + 1) - 1 and idx - s and stores idx;
# the conflicting variant stores idx + s, which lane tid + 1 loaded as its idx - s.
def up_sweep(store):
    return [("sstore", LOCAL0, 0), BARRIER,
            ("range", 0, 8, [("sload", step(3, 4)), ("sload", step(1, 4)), ("sstore", store, 1)], []), BARRIER,
            ("range", 0, 4, [("sload", step(7, 8)), ("sload", step(3, 8)), ("sstore", step(7, 8), 2)], [])]


# A down-sweep stores idx - s, then idx; the conflicting variant's second store lands on idx + s.
def down_sweep(second):
    return [("sstore", LOCAL0, 0), BARRIER,
            ("range", 0, 8, [("sload", step(1, 4)), ("sload", step(3, 4)), ("sstore", step(1, 4), 1),
                             ("sload", step(3, 4)), ("sstore", second, 2)], [])]


# A Hillis-Steele step at distance 2 from cells 0-15 to cells 16-31 of one shared array (of x to y in global
# memory): lanes 2-15 add cell tid - 2, lanes 0-1 copy, both stores in one interval. The conflicting variant's
# else-branch stores where lanes 2-3 store.
def hillis_steele(else_store):
    return [("sstore", LOCAL0, 0), BARRIER,
            ("range", 2, 16, [("sload", LOCAL0), ("sload", ("local", -2, [0])), ("sstore", ("local", 16, [0]), 1)],
             [("sload", LOCAL0), ("sstore", else_store, 2)])]


def global_hillis_steele(else_store):
    return [("range", 2, 16, [("gload", "x", SHIFT0), ("gload", "x", ("shift", -2, [0])), ("gstore", "y", SHIFT0, 1)],
             [("gload", "x", SHIFT0), ("gstore", "y", else_store, 2)])]


# One run indexed by the lanes of two masks. A branch whose predicate holds on every active lane, or on none,
# runs under its parent's mask; a store there of the run that the parent's lanes loaded meets only each lane's
# own word. Two complementary branches that store one run race, in shared and in global memory.
def uniform(body):
    return st.sampled_from([("if", 1, 1, body, []), ("if", 1, 0, [], body), ("range", 0, MAX_THREADS, body, [])])


def access(space, pattern, store):
    if space == "shared":
        return ("sstore", pattern, store) if store is not None else ("sload", pattern)
    return ("gstore", space, pattern, store) if store is not None else ("gload", space, pattern)


run_patterns = st.one_of(
    st.tuples(st.sampled_from(["local", "shift"]), st.integers(0, 5), st.just([0])),
    st.tuples(st.just("step"), st.integers(0, 5), st.lists(st.integers(2, 4), min_size=1, max_size=1)),
)


@st.composite
def one_run_two_masks(draw):
    """A case whose program stores one run under two masks; ``instructions`` seldom draws two such accesses."""
    space = draw(st.sampled_from(["shared", "x", "y"]))
    k = draw(st.integers(0, 9))
    if draw(st.booleans()):  # the parent's load, and a uniform branch's store
        threads = draw(st.integers(1, MAX_THREADS))
        pattern = draw(run_patterns)
        body = [access(space, pattern, None), draw(uniform([access(space, pattern, k)]))]
        lo, hi = draw(st.integers(0, 32)), draw(st.integers(1, MAX_THREADS))
        program = body if draw(st.booleans()) else [("range", lo, hi, body, [])]
    else:  # lanes 0..h-1 store the run k.., then lanes h..2h-1 store it
        half = draw(st.integers(1, MAX_THREADS // 2))
        threads, pattern = 2 * half, ("wrap", draw(st.integers(0, 5)), [half])
        program = [("range", 0, half, [access(space, pattern, k)], [access(space, pattern, k + 1)])]
    before = draw(st.lists(instructions(1, False), max_size=2))
    after = draw(st.lists(instructions(1, False), max_size=2))
    x, y = (draw(st.lists(st.integers(-50, 50), min_size=1, max_size=96)) for _ in range(2))
    return draw(st.integers(1, 3)), threads, x, y, [*before, *program, *after]


SAME_RUN_UNDER_UNIFORM_BRANCH = (1, 16, [0] * 8, [0] * 8, [
    ("sstore", LOCAL0, 0), BARRIER,
    ("range", 0, 8, [("sload", step(1, 2)), ("if", 1, 1, [("sstore", step(1, 2), 1)], [])], [])])
SAME_RUN_BY_TWO_RANGES = (1, 16, [0] * 8, [0] * 8, [
    ("range", 0, 8, [("sstore", ("wrap", 2, [8]), 1)], [("sstore", ("wrap", 2, [8]), 2)])])
GLOBAL_RUN_BY_TWO_RANGES = (2, 8, list(range(16)), [0] * 16, [
    ("range", 0, 4, [("gstore", "y", ("wrap", 0, [4]), 1)], [("gstore", "y", ("wrap", 0, [4]), 2)])])


@settings(max_examples=120, deadline=None)
@given(cases(st.lists(instructions(2, True), min_size=1, max_size=10)))
@example((1, 16, [0] * 8, [0] * 8, up_sweep(step(3, 4))))
@example((1, 16, [0] * 8, [0] * 8, up_sweep(step(5, 4))))
@example((1, 16, [0] * 8, [0] * 8, down_sweep(step(3, 4))))
@example((1, 16, [0] * 8, [0] * 8, down_sweep(step(5, 4))))
@example((1, 16, [0] * 8, [0] * 8, hillis_steele(("local", 16, [0]))))
@example((1, 16, [0] * 8, [0] * 8, hillis_steele(("local", 18, [0]))))
@example((2, 16, list(range(32)), [0] * 32, global_hillis_steele(SHIFT0)))
@example((2, 16, list(range(32)), [0] * 32, global_hillis_steele(("shift", 2, [0]))))
@example(SAME_RUN_UNDER_UNIFORM_BRANCH)
@example(SAME_RUN_BY_TWO_RANGES)
@example(GLOBAL_RUN_BY_TWO_RANGES)
def test_tracker_matches_reference_machine(case):
    assert_same_observables(case)


@settings(max_examples=60, deadline=None)
@given(one_run_two_masks())
def test_one_run_under_two_masks_matches_reference_machine(case):
    assert_same_observables(case)


def test_a_uniform_branch_runs_under_its_parents_mask():
    # The store under the uniform branch names the lanes of the parent's load, so it takes the clear path.
    case = SAME_RUN_UNDER_UNIFORM_BRANCH
    folds, (_, _, error, warnings, _) = folded_reads(lambda: observe(case, "strict"))
    assert (folds, error, warnings) == (0, None, [])


def folded_reads(run):
    """Calls of the fold of pending reads, and what ``run()`` returns."""
    with mock.patch.object(_RaceTrack, "note_reads", autospec=True, side_effect=_RaceTrack.note_reads) as note:
        got = run()
    return note.call_count, got


def test_sweep_stores_that_meet_no_other_threads_word_fold_no_read():
    # Each store of an up-sweep interval is the run its lanes loaded, apart by residue from the other run they
    # loaded: the reads stay pending until the barrier drops them.
    case = (1, 16, [0] * 8, [0] * 8, up_sweep(step(3, 4)))
    assert folded_reads(lambda: observe(case, "strict")) == (0, observe(case, "strict"))


def test_a_store_that_meets_another_lanes_read_folds_it_and_races():
    # Lane 0 stores cell 5, which lane 1 loaded as its idx - s: the reads are folded and the race names both.
    case = (1, 16, [0] * 8, [0] * 8, up_sweep(step(5, 4)))
    folds, (_, _, error, _, _) = folded_reads(lambda: observe(case, "strict"))
    assert folds > 0
    threads = [{"block_idx": [0, 0, 0], "thread_idx": [t, 0, 0], "global_linear_id": t, "warp_id": 0, "lane": t}
               for t in (0, 1)]
    assert error == {
        "kind": "DataRace",
        "message": "conflicting accesses to 'shared@0' address 20 without an intervening barrier; kernel=run_program; "
                   "buffer=shared@0; step=5; at block(0, 0, 0) thread(0, 0, 0) (gid=0, warp=0, lane=0); "
                   "at block(0, 0, 0) thread(1, 0, 0) (gid=1, warp=0, lane=1)",
        "threads": threads,
        "buffer": "shared@0",
        "step": 5,
        "kernel": "run_program",
    }


@settings(max_examples=120, deadline=None)
@given(cases(st.lists(launches(min_launchers=2), min_size=1, max_size=2)))
# Two blocks of a child grid read x and never store it; the next child grid
# stores there from its block 1 only, which conflicts with nothing.
@example((1, 1, [0] * 16, [0] * 16, [
    ("launch", 1, 2, 8, [("gload", "x", LOCAL0)]),
    ("launch", 1, 2, 8, [("from_block", 1, [("gstore", "x", LOCAL0, 1)])]),
]))
def test_sibling_child_grids_match_reference_machine(case):
    assert_same_observables(case)


def reads_before_the_first_store():
    """Every block reads; stores start in block k, so blocks 0..k-1 only read.

    The reads of the first blocks wait for block k's first store. With up to
    64 threads, eight reads a block and buffers of 1 to 96 elements, they
    often outnumber the buffer's elements and fold early.
    """
    read = st.tuples(st.just("gload"), st.sampled_from(["x", "y"]), patterns)
    store = st.tuples(st.just("gstore"), st.sampled_from(["x", "y"]), patterns, st.integers(0, 9))
    late = st.tuples(store, st.lists(instructions(1, False), max_size=3)).map(lambda t: [t[0], *t[1]])
    return st.tuples(
        st.lists(read, min_size=1, max_size=8),
        st.integers(1, 3),
        late,
        st.lists(instructions(1, False), max_size=3),
    ).map(lambda t: [*t[0], ("from_block", t[1], t[2]), *t[3]])


@settings(max_examples=120, deadline=None)
@given(cases(reads_before_the_first_store(), min_blocks=2))
# Early fold: block 0 alone reads 64 addresses of an 8-element buffer.
@example((4, 32, [1] * 8, [2] * 8, [("gload", "x", SHIFT0), ("gload", "x", ("stride", 3, [0])),
                                   ("from_block", 3, [("gstore", "x", ("local", 1, [0]), 4)])]))
# No early fold: 8 of 96 addresses a block, and block 1 stores where block 0 read.
@example((2, 8, [1] * 96, [2] * 96, [("gload", "x", SHIFT0),
                                     ("from_block", 1, [("gstore", "x", ("local", 0, [0]), 4)])]))
def test_reads_before_the_first_store_match_reference_machine(case):
    assert_same_observables(case)


# ----------------------------------------------------------------------
# what the tracks of one grid allocate


def run_grid(kernel, config, mem, args, mode="strict"):
    """One grid on a launch state the test keeps, to look at its tracks."""
    sim = Simulator()
    state = engine._LaunchState(sim, mem, MetricsReport(), mode, depth=0)
    state.run_grid(kernel, config, tuple(args), kernel.__name__)
    return state


def shared_track_lengths(state, mem):
    """The entries of each shared array's track: every track not of a global buffer."""
    return sorted(t.length for key, t in state.tracks.items() if key not in mem.buffers)


def matrix_buffers(n):
    mem = DeviceMemory()
    a = mem.alloc("a", list(range(n * n)))
    b = mem.alloc("b", list(range(n * n)))
    c = mem.alloc("c", n * n)
    return mem, (a, b, c)


def test_inputs_read_once_keep_no_cross_block_arrays():
    mem, (a, b, c) = matrix_buffers(48)
    state = run_grid(matrix_add_kernel, LaunchConfig((3, 3), (TILE, TILE)), mem, (a, b, c, 48, 48))
    for name in ("a", "b"):
        track = state.tracks[name]
        assert track.rb_block1 is None and track.w_block1 is None and track.writer1 is None
        assert track.cross_read_count == 48 * 48  # every read still waits, none folded
    assert state.tracks["c"].w_block1 is not None


def test_naive_product_inputs_hold_at_most_one_buffer_of_reads():
    # Each element of a and b is read 16 * 3 times, so the deferred reads
    # outgrow the buffer and fold early, at most one read of the nine-block
    # group past it; a and b are never written, so they never get
    # writer-side arrays.
    n = 48
    mem, (a, b, c) = matrix_buffers(n)
    folds = []
    fold = _RaceTrack.fold_cross_reads

    def counting_fold(track):
        folds.append(track.cross_read_count)
        fold(track)

    with mock.patch.object(_RaceTrack, "fold_cross_reads", counting_fold):
        state = run_grid(matmul_naive_kernel, LaunchConfig((3, 3), (TILE, TILE)), mem, (a, b, c, n, n, n))
    assert c.tolist() == (np.arange(n * n).reshape(n, n) @ np.arange(n * n).reshape(n, n)).ravel().tolist()
    for name in ("a", "b"):
        track = state.tracks[name]
        assert track.writer1 is None and track.w_block1 is None
        assert track.rb_block1 is not None
        assert track.cross_read_count <= track.length
    assert folds and max(folds) <= n * n + 9 * TILE * TILE


def broadcast_read_kernel(ctx, a, out):
    out[ctx.gx] = a[ctx.gx % 16]  # 256 lanes of each block read a 16-element array


@pytest.mark.parametrize("launch", ["naive_product", "lanes_outnumber_the_array"])
def test_cross_block_reads_never_outnumber_the_array_after_a_load(launch):
    if launch == "naive_product":
        mem, args = matrix_buffers(48)
        kernel, config, args = matmul_naive_kernel, LaunchConfig((3, 3), (TILE, TILE)), (*args, 48, 48, 48)
    else:
        mem = DeviceMemory()
        kernel, config, args = broadcast_read_kernel, LaunchConfig(4, 256), (mem.alloc("a", 16), mem.alloc("out", 1024))
    after = []
    check_read = _RaceTrack.check_read

    def checked_read(track, *a):
        check_read(track, *a)
        after.append(track.cross_read_count <= track.length)

    with mock.patch.object(_RaceTrack, "check_read", checked_read):
        run_grid(kernel, config, mem, args)
    assert after and all(after)


def test_a_block_folds_the_reads_that_would_outnumber_its_buffer():
    # One block loads a permutation of a 1024-element buffer 4000 times, then
    # stores where each thread loaded. Waiting until the store, the reads held
    # 4000 copies of the lanes' indices: 32 MB.
    def kernel(ctx, a):
        idx = (ctx.thread_idx.x * 7) % 1024
        for _ in range(4000):
            a[idx]
        a[idx] = ctx.thread_idx.x

    mem = DeviceMemory()
    a = mem.alloc("a", 1024)
    tracemalloc.start()
    try:
        Simulator().launch(kernel, LaunchConfig(1, 1024), mem, (a,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.tolist() == sorted(range(1024), key=lambda t: (t * 7) % 1024)
    assert peak < 1 << 20


def test_a_shared_track_has_one_entry_per_array_element():
    # Not one per byte of shared_mem_bytes, allocated or not.
    def kernel(ctx):
        ctx.shared_array(8)[ctx.thread_idx.x] = ctx.thread_idx.x

    mem = DeviceMemory()
    state = run_grid(kernel, LaunchConfig(1, 8, shared_mem_bytes=49152), mem, ())
    assert shared_track_lengths(state, mem) == [8]


def test_tiled_product_keeps_one_track_per_tile_of_its_group():
    # Nine blocks run as one group, so each tile array holds nine blocks' cells.
    n = 48
    mem, (a, b, c) = matrix_buffers(n)
    state = run_grid(matmul_tiled_kernel, LaunchConfig((3, 3), (TILE, TILE), shared_mem_bytes=2 * TILE * TILE * 4),
                     mem, (a, b, c, n, n, n))
    assert c.tolist() == (np.arange(n * n).reshape(n, n) @ np.arange(n * n).reshape(n, n)).ravel().tolist()
    assert shared_track_lengths(state, mem) == [9 * TILE * TILE] * 2


@pytest.mark.parametrize("mode", ["strict", "permissive"])
def test_global_buffer_named_like_a_shared_array_keeps_its_own_track(mode):
    # Each thread reads g[gid] and stores s[tid + 1]; then it reads back its
    # own s[tid + 1] and stores g[gid]. One track for both would see thread
    # tid + 1 read where thread tid stores, and the other way round.
    def kernel(ctx, g):
        tid, nxt = ctx.thread_idx.x, (ctx.thread_idx.x + 1) % 8
        s = ctx.shared_array(8)  # at byte offset 0, so named "shared@0"
        s[nxt] = g[ctx.global_id]
        g[ctx.global_id] = ctx.add(s[nxt], tid)

    mem = DeviceMemory()
    g = mem.alloc("shared@0", list(range(8)))  # as long as s, so that one shared track would keep both
    state = run_grid(kernel, LaunchConfig(1, 8, shared_mem_bytes=32), mem, (g,), mode)
    assert g.tolist() == [2 * i for i in range(8)]
    assert mem.race_warnings == []
    assert state.tracks["shared@0"].length == 8 and shared_track_lengths(state, mem) == [8]
