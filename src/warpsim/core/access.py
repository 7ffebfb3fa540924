"""Warp memory-access analysis: coalescing and shared-memory bank conflicts.

Both entry points are pure functions over one warp's simultaneous accesses.
The engine uses the vectorized ``_warp_*`` variants to process every warp of
a block in a single pass.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

DEFAULT_SEGMENT_BYTES = 128
DEFAULT_BANK_COUNT = 32
DEFAULT_BANK_WIDTH_BYTES = 4


def coalesce_count(
    accesses: Iterable[tuple[int, int]],
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
) -> int:
    """Number of aligned segments touched by one warp access instruction.

    ``accesses`` lists (byte_address, width) for each active lane; inactive
    lanes are excluded by the caller. All widths must be equal. The count is
    the cardinality of {floor(address / segment_bytes)} over active lanes.
    """
    if segment_bytes <= 0:
        raise ValueError(f"segment_bytes={segment_bytes} must be positive")
    pairs = list(accesses)
    if not pairs:
        return 0
    widths = {w for _, w in pairs}
    if len(widths) > 1:
        raise ValueError(f"mixed access widths in one warp instruction: {sorted(widths)}")
    return len({addr // segment_bytes for addr, _ in pairs})


def bank_conflict_degree(
    addresses: Iterable[int],
    bank_count: int = DEFAULT_BANK_COUNT,
    bank_width_bytes: int = DEFAULT_BANK_WIDTH_BYTES,
) -> int:
    """Worst-case serialization degree of one warp shared-memory access.

    The degree is the maximum, over banks, of the number of *distinct*
    addresses mapped to that bank; lanes reading the identical address are a
    broadcast and count once. A conflict-free access has degree 1 and the
    access costs (degree - 1) extra cycles.
    """
    distinct = set(addresses)
    if not distinct:
        return 0
    counts: dict[int, int] = {}
    for addr in distinct:
        bank = (addr // bank_width_bytes) % bank_count
        counts[bank] = counts.get(bank, 0) + 1
    return max(counts.values())


_PAIR_SHIFT = np.int64(1) << 40  # warp/key packing headroom; addresses stay far below this
_BANK_HIST_MAX = 1 << 16  # largest (warp, bank) histogram the sort-free path builds


def _warp_segment_total(
    warp_ids: np.ndarray, byte_addrs: np.ndarray, segment_bytes: int
) -> int:
    """Sum over warps of distinct segments touched, for one access instruction."""
    if byte_addrs.size == 0:
        return 0
    segs = byte_addrs // segment_bytes
    keys = warp_ids.astype(np.int64) * _PAIR_SHIFT + segs
    steps = np.diff(keys)
    if bool((steps >= 0).all()):
        # Sorted keys (the usual ascending lane addresses): count the runs.
        return int(np.count_nonzero(steps)) + 1
    return int(np.unique(keys).size)


def _warp_bank_extra_cycles(
    warp_ids: np.ndarray,
    byte_addrs: np.ndarray,
    bank_count: int,
    bank_width_bytes: int,
) -> int:
    """Sum over warps of (degree - 1), for one shared access instruction."""
    if byte_addrs.size == 0:
        return 0
    # Distinct (warp, address) pairs first: identical addresses broadcast.
    warps = warp_ids.astype(np.int64)
    keys = warps * _PAIR_SHIFT + byte_addrs
    if (
        bool((keys[1:] > keys[:-1]).all())
        and (int(warps[-1]) - int(warps[0]) + 1) * bank_count <= _BANK_HIST_MAX
    ):
        # Strictly ascending keys are already distinct and grouped by warp:
        # a (warp, bank) histogram gives each warp's bank populations.
        pair_warp = warps - warps[0]
        banks = (byte_addrs // bank_width_bytes) % bank_count
        hist = np.bincount(pair_warp * bank_count + banks, minlength=(int(pair_warp[-1]) + 1) * bank_count)
        degree_per_warp = hist.reshape(-1, bank_count).max(axis=1)
        # Warps without active lanes have degree 0 and add nothing.
        return int(degree_per_warp.sum()) - int(np.count_nonzero(degree_per_warp))
    uniq = np.unique(keys)
    pair_warp = uniq // _PAIR_SHIFT
    pair_addr = uniq % _PAIR_SHIFT
    banks = (pair_addr // bank_width_bytes) % bank_count
    bank_keys = pair_warp * bank_count + banks
    uniq_keys, counts = np.unique(bank_keys, return_counts=True)
    # Degree per warp is the max bank population; sum (degree - 1) over warps.
    warp_of_key = uniq_keys // bank_count
    boundaries = np.flatnonzero(np.diff(warp_of_key)) + 1
    degree_per_warp = np.maximum.reduceat(counts, np.concatenate(([0], boundaries)))
    return int(np.sum(degree_per_warp - 1))
