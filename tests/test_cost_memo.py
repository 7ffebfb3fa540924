"""The engine's memo changes no result, counter, warning or error.

Every launch of the process looks up each memory instruction's cost
(coalesced segments or bank-conflict cycles) in one memo, ``access.MEMO``,
under a key normalized by a shift of the space's period; the same memo
keeps the runs of indices the engine has checked. These tests run
random programs with the shared memo, kept across examples of different
geometry, and with a memo that never keeps anything, and require identical
memory, ``MetricsReport`` JSON, race warnings and ``SimError`` JSON. A
recount of every recorded instruction with the scalar oracles of
``core/access.py`` must give the reported totals. The patterns include
partial masks, broadcasts, child grids of another block size and shifts
that are not a multiple of the period. Pinned cases run one pattern under
two values of each geometry input of the key, in both orders.
"""

import itertools
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpsim import DeviceMemory, LaunchConfig, Recorder, SimError, Simulator
from warpsim.core import access, block_batchable, engine
from warpsim.core.access import _MEMO_BYTES, _Memo, bank_conflict_degree, coalesce_count
from warpsim.kernels import (
    Matrix, exclusive_scan_blelloch, inclusive_scan_hillis_steele, matmul, matrix_add, reduce_sum, vector_add,
)

GLOBAL_LEN = 4096
SHARED_LEN = 512


class NoMemo(_Memo):
    """A memo that never keeps an entry: every instruction computes its own cost and checks its own runs."""

    adds = 0  # calls over all instances, which show that a launch looked its costs up in the swapped-in memo

    def add(self, key, cost, nbytes):
        NoMemo.adds += 1


def lane_indices(pattern, active: np.ndarray, shift: int) -> np.ndarray:
    """Indices by rank among the active lanes, so that two masks with as many
    lanes give the same addresses from different warps."""
    rank = np.cumsum(active, dtype=np.int64) - 1
    kind, arg = pattern
    if kind == "stride":  # stride 0 is a broadcast
        idx = rank * arg
    elif kind == "groups":  # runs of ``arg`` lanes share an index
        idx = rank // arg
    else:  # "random": a fixed draw, repeats allowed
        idx = np.random.default_rng(arg).integers(0, 64, active.size)[rank]
    return idx + shift


def lane_mask(placement: str, count: int, seed: int, nthreads: int) -> np.ndarray:
    """``count`` active lanes (fewer in a smaller block) placed as named."""
    tid = np.arange(nthreads)
    k = min(count, nthreads)
    if placement == "full":
        return np.ones(nthreads, dtype=bool)
    if placement == "first":
        return tid < k
    if placement == "spread":
        return np.isin(tid, np.arange(k) * nthreads // k)
    if placement == "mod":  # about nthreads / (k + 1) lanes
        return tid % (k + 1) == seed % (k + 1)
    mask = np.zeros(nthreads, dtype=bool)  # "random"
    mask[np.random.default_rng(seed).choice(nthreads, k, replace=False)] = True
    return mask


def program_kernel(program):
    """Each instruction runs its pattern under each of its mask placements,
    at shift 0 and at each of its shifts."""

    def run(ctx, buf, with_child):
        n = ctx.nthreads
        ctx.shared_array(program["pad"])
        sh = ctx.shared_array(SHARED_LEN, element_width=program["shared_width"])
        for space, kind, pattern, (count, placements, seed), shifts in program["instructions"]:
            view, size = (buf, GLOBAL_LEN) if space == "global" else (sh, SHARED_LEN)
            for placement, shift in itertools.product(placements, (0, *shifts)):
                m = lane_mask(placement, count, seed, n)
                idx = lane_indices(pattern, m, shift)
                if not program["out_of_bounds"]:
                    idx = idx % size

                def body(view=view, idx=idx, kind=kind):
                    if kind == "load":
                        view[idx]
                    else:
                        view[idx] = ctx.add(ctx.thread_idx.x, 1)

                if m.all():
                    body()
                else:
                    ctx.if_(m, body)
        if with_child:
            ctx.if_(
                ctx.thread_idx.x == 0,
                lambda: ctx.launch(run, 1 + program["child_blocks"], program["child_threads"], (buf, False),
                                   shared_mem_bytes=shared_bytes(program)),
            )

    return run


def shared_bytes(program) -> int:
    return program["pad"] * 4 + SHARED_LEN * program["shared_width"]


def launch(program, memo=None):
    """Run ``program`` with ``memo`` in place of the process's memo, or with that memo if None."""
    sim = Simulator(**program["geometry"])
    mem = DeviceMemory()
    buf = mem.alloc("buf", GLOBAL_LEN, element_width=program["global_width"])
    config = LaunchConfig(program["blocks"], program["threads"], shared_bytes(program), program["warp_size"])
    kernel = program_kernel(program)
    recorder = Recorder()
    out = {}
    original, adds = access.MEMO, NoMemo.adds
    access.MEMO = original if memo is None else memo
    try:
        out["metrics"] = sim.launch(
            kernel, config, mem, (buf, program["child"]), mode=program["mode"], recorder=recorder
        ).to_json()
    except SimError as e:
        out["error"] = e.to_json()
    finally:
        access.MEMO = original
    # Each recorded instruction had its cost computed, by a NoMemo if the swap took effect.
    assert not isinstance(memo, NoMemo) or NoMemo.adds > adds or not recorder.accesses
    out["buf"] = buf.data.tolist()
    out["race_warnings"] = list(mem.race_warnings)
    return out, recorder


def recount(recorder: Recorder, geometry: dict) -> tuple[int, int]:
    """Global transactions and bank-conflict cycles by the scalar oracles."""
    segments = bank_cycles = 0
    for rec in recorder.accesses:
        by_warp = defaultdict(list)
        for w, a in zip(rec.warp_ids.tolist(), rec.addresses.tolist()):
            by_warp[w].append(a)
        for addrs in by_warp.values():
            if rec.space == "global":
                segments += coalesce_count([(a, rec.width) for a in addrs], geometry["segment_bytes"])
            else:
                bank_cycles += bank_conflict_degree(addrs, geometry["bank_count"], geometry["bank_width_bytes"]) - 1
    return segments, bank_cycles


PATTERNS = st.one_of(
    st.tuples(st.just("stride"), st.sampled_from([0, 1, 2, 3, 4, 8, 32, 33])),
    st.tuples(st.just("groups"), st.sampled_from([2, 3, 4, 32])),
    st.tuples(st.just("random"), st.integers(0, 3)),
)
# One lane count per instruction, placed in up to three ways: equal counts
# give equal addresses from different warps.
MASK_SETS = st.tuples(
    st.integers(1, 48),
    st.lists(st.sampled_from(["full", "first", "spread", "mod", "random"]), min_size=1, max_size=3),
    st.integers(0, 1000),
)
# Element shifts: multiples of the period and shifts of a word or two off it.
SHIFTS = st.lists(st.sampled_from([0, 1, 2, 3, 5, 8, 16, 31, 32, 33, 64, 97]), max_size=3)
INSTRUCTIONS = st.lists(
    st.tuples(st.sampled_from(["global", "shared"]), st.sampled_from(["load", "load", "store"]), PATTERNS, MASK_SETS, SHIFTS),
    min_size=1,
    max_size=8,
)
THREADS = st.one_of(st.integers(1, 80), st.sampled_from([96, 128, 256, 500, 1024]))
PROGRAMS = st.fixed_dictionaries(
    {
        "geometry": st.fixed_dictionaries(
            {
                "segment_bytes": st.sampled_from([20, 32, 128]),
                "bank_count": st.sampled_from([4, 32]),
                "bank_width_bytes": st.sampled_from([4, 8]),
            }
        ),
        "warp_size": st.sampled_from([8, 32]),
        "blocks": st.integers(1, 2),
        "threads": THREADS,
        "child": st.booleans(),
        "child_threads": THREADS,
        "child_blocks": st.integers(0, 1),
        "global_width": st.sampled_from([4, 8]),
        "shared_width": st.sampled_from([4, 8]),
        "pad": st.integers(0, 5),
        "instructions": INSTRUCTIONS,
        "mode": st.sampled_from(["strict", "permissive"]),
        "out_of_bounds": st.booleans(),
    }
)


@settings(max_examples=150, deadline=None)
@given(PROGRAMS)
def test_memo_on_and_off_agree_and_match_the_oracles(program):
    on, recorder = launch(program)
    off, _ = launch(program, NoMemo())
    assert on == off
    if "metrics" in on:
        segments, bank_cycles = recount(recorder, program["geometry"])
        assert on["metrics"]["global_transactions"] == segments
        assert on["metrics"]["bank_conflict_extra_cycles"] == bank_cycles


# Pinned cases: each breaks one property the memo key relies on.
BASE = {
    "geometry": {"segment_bytes": 128, "bank_count": 32, "bank_width_bytes": 4},
    "warp_size": 32,
    "blocks": 1,
    "child": False,
    "child_threads": 1,
    "child_blocks": 0,
    "global_width": 4,
    "shared_width": 4,
    "pad": 0,
    "mode": "strict",
    "out_of_bounds": False,
}
PINNED = {
    # 32 words from address 0 are one segment; shifted by a word, two.
    "shift_off_segment": dict(BASE, threads=32, instructions=[("global", "load", ("stride", 1), (32, ["full"], 0), [1])]),
    # Words 0 and 4 share an 8-byte bank, so one extra cycle; 20 bytes on,
    # they fall in two banks. The shift is a multiple of the segment but not
    # of the bank width.
    "shift_off_bank": dict(
        BASE,
        geometry={"segment_bytes": 20, "bank_count": 4, "bank_width_bytes": 8},
        threads=2,
        instructions=[("shared", "load", ("stride", 1), (32, ["full"], 0), [5])],
    ),
    # Two broadcasts from 16 active lanes each: over two warps of 8 lanes,
    # then spread over all eight warps. Only the warp ids tell them apart.
    "partial_mask_warps": dict(
        BASE,
        threads=64,
        warp_size=8,
        instructions=[("global", "load", ("stride", 0), (16, ["first", "spread"], 0), [])],
    ),
    # The same 32 words from global and from shared memory: one segment,
    # no bank conflict.
    "space_tag": dict(
        BASE,
        threads=32,
        instructions=[
            ("global", "load", ("stride", 1), (32, ["full"], 0), []),
            ("shared", "load", ("stride", 1), (32, ["full"], 0), []),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_patterns_match_the_oracles(name):
    program = PINNED[name]
    on, recorder = launch(program)
    assert on == launch(program, NoMemo())[0]
    assert (on["metrics"]["global_transactions"], on["metrics"]["bank_conflict_extra_cycles"]) == recount(
        recorder, program["geometry"]
    )


def gather_kernel(ctx, buf, seeds, probe):
    """Loads of all-distinct random addresses; ``probe`` runs after each."""
    rng = np.random.default_rng(ctx.block_linear)
    for step in range(seeds):
        idx = rng.permutation(len(buf.buffer))[: ctx.nthreads]
        if step % 2:
            ctx.if_(ctx.thread_idx.x % 3 != 0, lambda idx=idx: buf[idx])
        else:
            buf[idx]
        probe()


def test_one_memo_serves_every_launch_and_stays_under_the_cap(monkeypatch):
    memo = _Memo()
    monkeypatch.setattr(access, "MEMO", memo)

    def child(ctx, buf):
        buf[ctx.thread_idx.x]

    def parent(ctx, buf):
        buf[ctx.thread_idx.x]
        ctx.if_(ctx.thread_idx.x == 0, lambda: ctx.launch(child, 2, 32, (buf,)))

    mem = DeviceMemory()
    buf = mem.alloc("buf", 64)
    for sim in (Simulator(), Simulator()):
        sim.launch(parent, LaunchConfig(2, 32), mem, (buf,))
    # Parent and child blocks of both simulators read one pattern, a run whose key counts 8 bytes, at the
    # indices 0, 1, ..., 31, whose 256 bytes the run check keeps: one add of each.
    assert (len(memo), memo.nbytes) == (2, 8 + 256)
    Simulator(segment_bytes=64).launch(parent, LaunchConfig(2, 32), mem, (buf,))
    assert len(memo) == 3

    sizes = []
    big = mem.alloc("big", 1 << 16)
    # 16 blocks x 64 instructions of 1024 lanes hold about 6 MiB of keys: 4 KiB of int32 addresses each, and
    # under the branch 683 int32 addresses and 683 int64 warp ids.
    Simulator().launch(gather_kernel, LaunchConfig(16, 1024), mem, (big, 64, lambda: sizes.append(memo.nbytes)))
    assert max(sizes) <= _MEMO_BYTES
    assert sum(b2 < b1 for b1, b2 in zip(sizes, sizes[1:])) >= 1  # the memo started over


def geometry_cost(space: str, threads: int, geometry: dict, warp_size: int) -> tuple[int, int]:
    """The reported cost of one block loading ``buf[tid]`` or ``shared[tid]`` of 4-byte words, and its oracle."""
    sim = Simulator(**geometry)
    mem = DeviceMemory()
    buf = mem.alloc("buf", threads)

    def kernel(ctx, buf):
        view = buf if space == "global" else ctx.shared_array(threads)
        view[ctx.thread_idx.x]

    report = sim.launch(kernel, LaunchConfig(1, threads, 4 * threads, warp_size), mem, (buf,)).to_json()
    warps = [range(w, min(w + warp_size, threads)) for w in range(0, threads, warp_size)]
    if space == "global":
        oracle = sum(coalesce_count([(4 * t, 4) for t in w], sim.segment_bytes) for w in warps)
        return report["global_transactions"], oracle
    oracle = sum(bank_conflict_degree([4 * t for t in w], sim.bank_count, sim.bank_width_bytes) - 1 for w in warps)
    return report["bank_conflict_extra_cycles"], oracle


# One pattern under two values of one geometry input of the memo key:
# (space, threads, [(simulator geometry, warp size, cost)] * 2).
GEOMETRY_CASES = {
    # Two warps of 32 lanes read one segment each; four warps of 16 do.
    "warp_size": ("global", 64, [({}, 32, 2), ({}, 16, 4)]),
    # 32 words fill one 128-byte segment, or two of 64 bytes.
    "segment_bytes": ("global", 32, [({"segment_bytes": 128}, 32, 1), ({"segment_bytes": 64}, 32, 2)]),
    # 32 words over 32 banks are conflict-free; over 16 banks, two words share a bank.
    "bank_count": ("shared", 32, [({"bank_count": 32}, 32, 0), ({"bank_count": 16}, 32, 1)]),
    # 4-byte words in 4-byte banks are conflict-free; in 8-byte banks, two words share a bank.
    "bank_width_bytes": ("shared", 32, [({"bank_width_bytes": 4}, 32, 0), ({"bank_width_bytes": 8}, 32, 1)]),
}


@pytest.mark.parametrize("order", ["forward", "reverse"])
@pytest.mark.parametrize("name", sorted(GEOMETRY_CASES))
def test_each_geometry_input_is_in_the_memo_key(name, order, monkeypatch):
    monkeypatch.setattr(access, "MEMO", _Memo())  # one fresh memo for both launches
    space, threads, runs = GEOMETRY_CASES[name]
    for geometry, warp_size, cost in runs if order == "forward" else runs[::-1]:
        assert geometry_cost(space, threads, geometry, warp_size) == (cost, cost)


@pytest.fixture
def cost_calls(monkeypatch):
    """The names of the cost functions called, in order, under a fresh memo: each call costs one pattern."""
    monkeypatch.setattr(access, "MEMO", _Memo())
    calls = []
    for name in ("_warp_segment_total", "_warp_bank_extra_cycles"):
        def counted(*args, _name=name, _f=getattr(access, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(access, name, counted)
    return calls


def test_a_warm_memo_computes_no_cost(cost_calls):
    """Each shipped primitive costs its patterns on first sight only: a rerun computes nothing."""
    m = Matrix(20, 20, list(range(400)))
    runs = [
        lambda: vector_add(list(range(300)), list(range(300))),
        *(lambda v=v, n=n: reduce_sum(list(range(n)), v) for v in ("interleaved", "sequential") for n in (256, 2048)),
        *(lambda n=n: inclusive_scan_hillis_steele(list(range(n))) for n in (100, 2048)),
        lambda: exclusive_scan_blelloch(list(range(64))),
        lambda: matrix_add(m, m),
        *(lambda v=v: matmul(m, m, v) for v in ("naive", "tiled")),
    ]
    for run in runs:
        run()
    assert set(cost_calls) == {"_warp_segment_total", "_warp_bank_extra_cycles"}
    first = len(cost_calls)
    for run in runs:
        run()
    assert len(cost_calls) == first


def test_a_repeated_naive_matmul_128_computes_no_cost(cost_calls):
    """Its 34 patterns of 16384 lanes hold 2.2 MB, within the budget: the memo keeps them all."""
    m = Matrix(128, 128, list(range(128 * 128)))
    matmul(m, m, "naive")
    first = len(cost_calls)
    matmul(m, m, "naive")
    assert first > 0 and len(cost_calls) == first


@block_batchable
def shifted_load(ctx, buf):
    buf[ctx.gx + 1]  # a run that is checked once per group: not the global id itself


class CountingMemo(_Memo):
    adds = clears = 0

    def add(self, key, value, nbytes):
        self.adds += 1
        super().add(key, value, nbytes)

    def clear(self):
        self.clears += 1
        super().clear()


def test_a_repeated_launch_adds_nothing_to_the_memo(monkeypatch):
    """Eight groups of 16384 lanes check eight runs, 1 MiB of indices; a second launch finds every entry."""
    memo = CountingMemo()
    monkeypatch.setattr(access, "MEMO", memo)
    groups, lanes = 8, engine._GROUP_LANES
    mem = DeviceMemory()
    buf = mem.alloc("buf", groups * lanes + 1)
    sim, config = Simulator(), LaunchConfig(groups * lanes // 1024, 1024)
    sim.launch(shifted_load, config, mem, (buf,))
    runs = {(g * lanes + 1, lanes, 1) for g in range(groups)}
    assert runs <= set(memo) and sum(len(memo[k]) for k in runs) > 1 << 19
    held, adds = dict(memo), memo.adds
    sim.launch(shifted_load, config, mem, (buf,))
    assert (dict(memo), memo.adds, memo.clears) == (held, adds, 0)
