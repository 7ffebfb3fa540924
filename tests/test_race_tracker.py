"""Differential test of the race tracker against its earlier whole-buffer design.

``WholeBufferTrack`` and the two ``whole_buffer_race_*`` functions are a copy
of the tracker as it stood before resets went by touched address: fresh
arrays for every grid and every block's shared memory, a reset that refills
every array of the buffer, and cross-block reads folded into per-address
state (first reading block plus a several-blocks flag) as they happen.
Random small kernels run once on the engine and once with that copy patched
in; every observable must match.
"""

import contextlib
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpsim import DeviceMemory, LaunchConfig, MetricsReport, SimError, Simulator
from warpsim.core import engine
from warpsim.kernels.matrix import TILE, matmul_naive_kernel, matrix_add_kernel

_NO_TID = np.int64(-1)


class WholeBufferTrack:
    def __init__(self, length: int, cross_block: bool):
        self.length = length
        self.reader1 = np.full(length, _NO_TID)
        self.reader_multi = np.zeros(length, dtype=bool)
        self.writer1 = np.full(length, _NO_TID)
        self.writer_multi = np.zeros(length, dtype=bool)
        self.writer_max = np.full(length, _NO_TID)
        self.pending_reads = []
        self.interval_writes = 0
        self.dirty = False
        self.cross_block = cross_block
        if cross_block:
            self.rb_block1 = np.full(length, _NO_TID)
            self.rb_block_multi = np.zeros(length, dtype=bool)
            self.w_block1 = np.full(length, _NO_TID)
            self.w_block_multi = np.zeros(length, dtype=bool)
            self.writer_blocks = set()

    def reset_interval(self):
        self.pending_reads.clear()
        self.interval_writes = 0
        if self.dirty:
            self.reader1.fill(_NO_TID)
            self.reader_multi.fill(False)
            self.writer1.fill(_NO_TID)
            self.writer_multi.fill(False)
            self.writer_max.fill(_NO_TID)
            self.dirty = False

    def materialize_reads(self):
        for addrs, tids in self.pending_reads:
            u_addr, first_idx, counts = np.unique(addrs, return_index=True, return_counts=True)
            rep = tids[first_idx]
            cur = self.reader1[u_addr]
            self.reader_multi[u_addr] |= (counts > 1) | ((cur != _NO_TID) & (cur != rep))
            self.reader1[u_addr] = np.where(cur == _NO_TID, rep, cur)
            self.dirty = True
        self.pending_reads.clear()


def whole_buffer_race_read(self, track, addrs, tids, name):
    b = self.block_linear
    if track.interval_writes:
        w1 = track.writer1[addrs]
        conflict = (w1 != _NO_TID) & ((w1 != tids) | track.writer_multi[addrs])
        if conflict.any():
            i = int(np.argmax(conflict))
            self._race_fail(name, int(addrs[i]), int(tids[i]), int(w1[i]))
    if track.cross_block and (track.writer_blocks - {b}):
        wb = track.w_block1[addrs]
        conflict = (wb != _NO_TID) & ((wb != b) | track.w_block_multi[addrs])
        if conflict.any():
            i = int(np.argmax(conflict))
            self._race_fail(name, int(addrs[i]), int(tids[i]), -1)

    track.pending_reads.append((addrs, tids))
    if track.cross_block:
        cur = track.rb_block1[addrs]
        track.rb_block_multi[addrs] |= (cur != _NO_TID) & (cur != b)
        track.rb_block1[addrs] = np.where(cur == _NO_TID, b, cur)


def whole_buffer_race_write(self, track, addrs, tids, name):
    track.materialize_reads()
    b = self.block_linear
    u_addr, first_idx, counts = np.unique(addrs, return_index=True, return_counts=True)
    dup = counts > 1

    r1 = track.reader1[addrs]
    w1 = track.writer1[addrs]
    conflict = (r1 != _NO_TID) & ((r1 != tids) | track.reader_multi[addrs])
    conflict |= (w1 != _NO_TID) & ((w1 != tids) | track.writer_multi[addrs])
    if track.cross_block:
        rb = track.rb_block1[addrs]
        conflict |= (rb != _NO_TID) & ((rb != b) | track.rb_block_multi[addrs])
        wb = track.w_block1[addrs]
        conflict |= (wb != _NO_TID) & ((wb != b) | track.w_block_multi[addrs])
    if conflict.any():
        i = int(np.argmax(conflict))
        other = int(w1[i]) if w1[i] != _NO_TID else int(r1[i])
        self._race_fail(name, int(addrs[i]), int(tids[i]), other)
    if dup.any():
        i = int(first_idx[np.argmax(dup)])
        dup_addr = addrs[i]
        peers = np.flatnonzero(addrs == dup_addr)
        self._race_fail(name, int(dup_addr), int(tids[peers[0]]), int(tids[peers[1]]))

    eff = track.writer_max[addrs] <= tids

    rep = tids[first_idx]
    cur = track.writer1[u_addr]
    track.writer_multi[u_addr] |= dup | ((cur != _NO_TID) & (cur != rep))
    track.writer1[u_addr] = np.where(cur == _NO_TID, rep, cur)
    if dup.any():
        np.maximum.at(track.writer_max, addrs, tids)
    else:
        track.writer_max[addrs] = np.maximum(track.writer_max[addrs], tids)
    track.interval_writes += 1
    track.dirty = True
    if track.cross_block:
        wb = track.w_block1[u_addr]
        track.w_block_multi[u_addr] |= (wb != _NO_TID) & (wb != b)
        track.w_block1[u_addr] = np.where(wb == _NO_TID, b, wb)
        track.writer_blocks.add(b)
    return eff


class WholeBufferState(engine._LaunchState):
    """Fresh tracks for every grid, as the earlier design allocated them."""

    def begin_grid(self, config):
        self.multi_block = config.blocks_per_grid > 1
        self.tracks = {}
        self.shared_track = WholeBufferTrack(config.shared_mem_bytes, cross_block=False)

    def track_for(self, buf):
        t = self.tracks.get(buf.name)
        if t is None:
            t = WholeBufferTrack(len(buf), cross_block=self.multi_block)
            self.tracks[buf.name] = t
        return t

    def child(self):
        return WholeBufferState(self.sim, self.mem, self.metrics, self.mode, self.depth + 1)


class WholeBufferContext(engine.KernelContext):
    _race_read = whole_buffer_race_read
    _race_write = whole_buffer_race_write


# ----------------------------------------------------------------------
# random kernels
#
# An address pattern maps (global id, block-local thread id) to an index.
# They cover ascending, descending, strided (colliding), broadcast and
# arbitrary per-thread addresses.

SHARED_LEN = 48
MAX_THREADS = 64


def addresses(pattern, ctx, length):
    kind, k, table = pattern
    gid, tid = ctx.global_id, ctx.thread_idx.x
    if kind == "shift":
        return (gid + k) % length
    if kind == "stride":
        return (gid * k) % length
    if kind == "reverse":
        return (length - 1 - gid) % length
    if kind == "broadcast":
        return np.full(ctx.nthreads, k % length)
    if kind == "table":
        return (np.asarray(table)[tid % len(table)] + k * ctx.block_linear) % length
    return (tid + k) % length  # "local": the same addresses in every block


patterns = st.tuples(
    st.sampled_from(["shift", "stride", "reverse", "broadcast", "table", "local"]),
    st.integers(0, 5),
    st.lists(st.integers(0, 200), min_size=1, max_size=MAX_THREADS),
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
    branch = st.tuples(st.just("if"), st.integers(1, 8), st.integers(0, 7), body, body)
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
    sh = ctx.shared_array(SHARED_LEN)
    reg = [ctx.global_id]

    def execute(instrs):
        for ins in instrs:
            op = ins[0]
            if op == "gload":
                reg[0] = bufs[ins[1]][addresses(ins[2], ctx, len(bufs[ins[1]].buffer))]
            elif op == "gstore":
                bufs[ins[1]][addresses(ins[2], ctx, len(bufs[ins[1]].buffer))] = ctx.add(reg[0], ins[3])
            elif op == "sload":
                reg[0] = sh[addresses(ins[1], ctx, SHARED_LEN)]
            elif op == "sstore":
                sh[addresses(ins[1], ctx, SHARED_LEN)] = ctx.add(reg[0], ins[2])
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
            else:
                _, launchers, grid, block, child_program = ins
                ctx.if_(
                    ctx.global_id < launchers,
                    lambda: ctx.launch(
                        run_program, grid, block, (x, y, child_program), shared_mem_bytes=SHARED_LEN * 8
                    ),
                )

    execute(program)


def observe(case, mode, whole_buffer):
    blocks, threads, x_init, y_init, program = case
    mem = DeviceMemory()
    x = mem.alloc("x", x_init)
    y = mem.alloc("y", y_init)
    config = LaunchConfig(blocks, threads, shared_mem_bytes=SHARED_LEN * 8)
    error = None
    with contextlib.ExitStack() as stack:
        if whole_buffer:
            stack.enter_context(mock.patch.object(engine, "_LaunchState", WholeBufferState))
            stack.enter_context(mock.patch.object(engine, "KernelContext", WholeBufferContext))
        try:
            report = Simulator().launch(run_program, config, mem, (x, y, program), mode=mode).to_json()
        except SimError as e:
            report = None
            error = (type(e).__name__, e.to_json())
    return x.tolist(), y.tolist(), report, error, list(mem.race_warnings)


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
        assert observe(case, mode, whole_buffer=False) == observe(case, mode, whole_buffer=True)


@settings(max_examples=120, deadline=None)
@given(cases(st.lists(instructions(2, True), min_size=1, max_size=10)))
def test_tracker_matches_whole_buffer_design(case):
    assert_same_observables(case)


LOCAL0 = ("local", 0, [0])
SHIFT0 = ("shift", 0, [0])


@settings(max_examples=120, deadline=None)
@given(cases(st.lists(launches(min_launchers=2), min_size=1, max_size=2)))
# Two blocks of a child grid read x and never store it; the next child grid
# stores there from its block 1 only, which conflicts with nothing.
@example((1, 1, [0] * 16, [0] * 16, [
    ("launch", 1, 2, 8, [("gload", "x", LOCAL0)]),
    ("launch", 1, 2, 8, [("from_block", 1, [("gstore", "x", LOCAL0, 1)])]),
]))
def test_sibling_child_grids_match_whole_buffer_design(case):
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
def test_reads_before_the_first_store_match_whole_buffer_design(case):
    assert_same_observables(case)


# ----------------------------------------------------------------------
# what the tracks of one grid allocate


def run_grid(kernel, config, mem, args):
    """One grid on a launch state the test keeps, to look at its tracks."""
    sim = Simulator()
    state = engine._LaunchState(sim, mem, MetricsReport(), "strict", depth=0)
    sim._run_grid(kernel, config, tuple(args), state, kernel.__name__)
    return state


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
    # outgrow the buffer and fold early; a and b are never written, so they
    # never get writer-side arrays.
    n = 48
    mem, (a, b, c) = matrix_buffers(n)
    folds = []
    fold = engine._RaceTrack.fold_cross_reads

    def counting_fold(track):
        folds.append(track.cross_read_count)
        fold(track)

    with mock.patch.object(engine._RaceTrack, "fold_cross_reads", counting_fold):
        state = run_grid(matmul_naive_kernel, LaunchConfig((3, 3), (TILE, TILE)), mem, (a, b, c, n, n, n))
    assert c.tolist() == (np.arange(n * n).reshape(n, n) @ np.arange(n * n).reshape(n, n)).ravel().tolist()
    for name in ("a", "b"):
        track = state.tracks[name]
        assert track.writer1 is None and track.w_block1 is None
        assert track.rb_block1 is not None
        assert track.cross_read_count <= track.length
    assert folds and max(folds) <= n * n + TILE * TILE
