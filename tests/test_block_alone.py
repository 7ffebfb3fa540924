"""What a block run alone pays before its work, checked against plain references.

A block alone (a child grid's, a permissive launch's, an unmarked kernel's)
folds its counts into the report by a walk over the counter names, takes its
config-only context parts from ``LaunchConfig.lanes``, and stores through
``race._distinct``, which skips the sort for indices that never decrease.
Each is compared here with a brute-force statement of what it must give.
"""

from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpsim import DeviceMemory, LaunchConfig, MetricsReport, Simulator
from warpsim.core import race
from warpsim.core.metrics import KernelCounters

NAMES = [f.name for f in fields(KernelCounters)]

# ----------------------------------------------------------------------
# counter folding

counters = st.builds(KernelCounters, **{name: st.integers(0, 10**6) for name in NAMES})


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["k", "child", "z"]), st.none() | counters), max_size=12))
@example([("k", KernelCounters())])  # an all-zero block still adds an entry
@example([("k", None)])  # None adds none
def test_add_folds_counters_into_field_wise_sums(blocks):
    report = MetricsReport()
    for kernel, counts in blocks:
        report.add(kernel, counts)
    want = {name: 0 for name in NAMES}
    per_kernel = {}
    for kernel, counts in blocks:
        if counts is not None:
            entry = per_kernel.setdefault(kernel, {name: 0 for name in NAMES})
            for name in NAMES:
                want[name] += getattr(counts, name)
                entry[name] += getattr(counts, name)
    got = report.to_json()
    assert got == {**want, "per_kernel": per_kernel}
    assert list(got) == [*NAMES, "per_kernel"]
    assert all(list(entry) == NAMES for entry in got["per_kernel"].values())


# ----------------------------------------------------------------------
# the ids of a block alone


def expected_ids(config, block):
    """Every id of ``block`` of ``config``, per lane, from the linearization rules alone."""
    T = config.threads_per_block
    bx, by, bz = config.block_dim
    cx, cy, cz = config.block_coords(block)
    tids = range(T)
    tx, ty, tz = [t % bx for t in tids], [t // bx % by for t in tids], [t // (bx * by) for t in tids]
    return {
        "block_linear": block, "block_idx": (cx, cy, cz), "global_id": [block * T + t for t in tids],
        "thread_idx": (tx, ty, tz), "gx": [cx * bx + x for x in tx], "gy": [cy * by + y for y in ty],
        "gz": [cz * bz + z for z in tz],
    }


def seen_ids(ctx):
    """The ids of ``ctx`` as plain values, after checking the types and flags of a block alone."""
    assert ctx.nthreads == ctx.config.threads_per_block
    assert type(ctx.block_linear) is int and all(type(c) is int for c in ctx.block_idx)
    arrays = [ctx.global_id, *ctx.thread_idx, ctx.gx, ctx.gy, ctx.gz, ctx.warp, ctx.lane]
    assert not any(a.flags.writeable for a in arrays)
    return {
        "block_linear": ctx.block_linear, "block_idx": tuple(ctx.block_idx), "global_id": ctx.global_id.tolist(),
        "thread_idx": tuple(a.tolist() for a in ctx.thread_idx), "gx": ctx.gx.tolist(), "gy": ctx.gy.tolist(),
        "gz": ctx.gz.tolist(),
    }


GRIDS = [(5, 40), ((2, 3, 2), (4, 2, 3))]


@pytest.mark.parametrize("grid, block", GRIDS, ids=["1-D", "3-D"])
def test_a_permissive_launch_runs_blocks_alone_with_their_own_ids(grid, block):
    config, seen = LaunchConfig(grid, block), []
    Simulator().launch(lambda ctx: seen.append(seen_ids(ctx)), config, DeviceMemory(), mode="permissive")
    assert seen == [expected_ids(config, b) for b in range(config.blocks_per_grid)]


@pytest.mark.parametrize("grid, block", GRIDS, ids=["1-D", "3-D"])
def test_a_child_grid_runs_blocks_alone_with_their_own_ids(grid, block):
    seen = []

    def parent(ctx):
        ctx.if_(ctx.global_id < 2, lambda: ctx.launch(lambda c: seen.append(seen_ids(c)), grid, block))

    Simulator().launch(parent, LaunchConfig(1, 4), DeviceMemory())
    config = LaunchConfig(grid, block)
    assert seen == [expected_ids(config, b) for b in range(config.blocks_per_grid)] * 2


def test_blocks_of_one_config_share_its_constant_parts():
    config, parts = LaunchConfig((3, 2), 32), []
    Simulator().launch(lambda ctx: parts.append((ctx.block_dim, ctx.grid_dim, ctx.thread_idx)), config, DeviceMemory())
    assert all(p[0] is parts[0][0] and p[1] is parts[0][1] and p[2] is parts[0][2] for p in parts)
    assert parts[0][:2] == ((32, 1, 1), (3, 2, 1)) and len(parts) == 6


# ----------------------------------------------------------------------
# distinct addresses of one store


def brute_distinct(addrs, stamps):
    """Per distinct address, ascending: the stamps of its first and second lane in lane order (-1: none)."""
    lanes = {}
    for a, s in zip(addrs, stamps):
        lanes.setdefault(a, []).append(s)
    return [(a, ss[0], ss[1] if len(ss) > 1 else -1) for a, ss in sorted(lanes.items())]


ascending = st.lists(st.integers(0, 50), min_size=1, max_size=40, unique=True).map(sorted)
address_lists = st.one_of(
    ascending,  # strictly ascending
    st.lists(st.integers(0, 20), min_size=1, max_size=40).map(sorted),  # non-decreasing, with repeats
    st.lists(st.integers(0, 20), min_size=1, max_size=40),  # unsorted
    st.tuples(st.integers(0, 9), st.integers(1, 40)).map(lambda p: [p[0]] * p[1]),  # all equal
    st.integers(0, 9).map(lambda a: [a]),  # one lane
)


@settings(max_examples=300, deadline=None)
@given(address_lists, st.randoms(use_true_random=False))
@example([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2], None)  # dst[i // 4]
@example([3, 1, 3, 1], None)
def test_distinct_keeps_the_first_two_lanes_of_each_address(addrs, rnd):
    stamps = list(range(100, 100 + len(addrs)))
    if rnd is not None:
        rnd.shuffle(stamps)  # a store's stamps ascend, but the result must not rely on it
    a, first, second = race._distinct(np.array(addrs, dtype=np.int64), np.array(stamps, dtype=np.int64))
    a, first = np.asarray(a).tolist(), np.asarray(first).tolist()
    second = np.broadcast_to(second, (len(a),)).tolist()
    assert list(zip(a, first, second)) == brute_distinct(addrs, stamps)


def test_in_order_repeats_take_no_sort():
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        u, first, second = race._distinct(np.arange(256, dtype=np.int64) // 4, np.arange(256, dtype=np.int64))
    assert argsort.call_count == 0
    assert u.tolist() == list(range(64)) and first.tolist() == list(range(0, 256, 4))
    assert second.tolist() == list(range(1, 256, 4))
