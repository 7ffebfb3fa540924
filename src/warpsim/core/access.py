"""Warp memory-access analysis: coalescing and shared-memory bank conflicts.

Both entry points are pure functions over one warp's simultaneous accesses;
the tests keep them as the scalar oracles. ``MEMO``, the process's one
memo, runs the vectorized ``_warp_*`` variants over a group's warps in one
pass, only for a pattern it has not seen: a shift of all addresses by a
multiple of ``segment_bytes`` keeps the segment total, and one of
``bank_width_bytes`` the bank cycles, so its keys drop that shift. Each
variant is one sort-based pass with no fast path, because a pattern is
costed on first sight only. The same memo keeps the engine's checked runs
of indices (``engine._run``), under one byte budget.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

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


_PAIR_BITS = 40  # warp/key packing headroom for a byte address, segment or bank index
_PAIR_SHIFT = np.int64(1) << _PAIR_BITS
BYTE_EXTENT_LIMIT = 1 << _PAIR_BITS  # a buffer or shared region spans fewer bytes, so its addresses fit the packing


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """A mask of where each run of equal values of the sorted, nonempty ``keys`` starts."""
    fresh = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    return fresh


def _warp_segment_total(warp_ids: np.ndarray, byte_addrs: np.ndarray, segment_bytes: int) -> int:
    """Sum over warps of distinct segments touched, for one access instruction."""
    if byte_addrs.size == 0:
        return 0
    keys = np.sort(warp_ids * _PAIR_SHIFT + byte_addrs // segment_bytes)
    return int(np.count_nonzero(_run_starts(keys)))  # sorted keys group each warp's segments: count the runs


def _warp_bank_extra_cycles(warp_ids: np.ndarray, byte_addrs: np.ndarray, bank_count: int,
                            bank_width_bytes: int) -> int:
    """Sum over warps of (degree - 1), for one shared access instruction."""
    if byte_addrs.size == 0:
        return 0
    # Distinct (warp, address) pairs first: identical addresses broadcast.
    keys = warp_ids * _PAIR_SHIFT + byte_addrs
    keys.sort()
    keys = keys[_run_starts(keys)]
    # Then (warp, bank) pairs, packed alike as a bank is at most its address:
    # each run is one bank of one warp, and a warp's degree its longest run.
    addrs = keys & (_PAIR_SHIFT - 1)
    keys += addrs // bank_width_bytes % bank_count - addrs  # each address becomes its bank
    keys.sort()
    starts = np.flatnonzero(_run_starts(keys))
    runs = np.diff(starts, append=keys.size)
    degree_per_warp = np.maximum.reduceat(runs, np.flatnonzero(_run_starts(keys[starts] >> _PAIR_BITS)))
    return int(degree_per_warp.sum()) - degree_per_warp.size


_MEMO_BYTES = 4 << 20  # a memo whose held bytes would pass this starts over


def _key_type(bound: int) -> type:
    """The narrowest signed integer type holding every integer of magnitude below ``bound``."""
    return np.int16 if bound <= 1 << 15 else np.int32 if bound <= 1 << 31 else np.int64


class _Memo(dict):
    """Access analysis by key for every launch of the process; why each key is exact is in README.

    ``cost`` keys a pattern's cost by the space, the segment and bank geometry, the warp size, the block size (where
    a group's warps restart), on a partial mask the warp ids, and the lane byte addresses less the first active
    lane's rounded down to the space's period, as bytes of the narrowest integer type that holds the buffer's byte
    length, which the key names. A run of ``n`` lanes on the elements ``lo, lo + d, ...`` keeps only its first
    address's offset into the period, its pitch ``d * width`` and ``n``. ``engine._run`` keys the int64 bytes of a
    run that passed its check by ``(lo, n, d)``. ``nbytes`` counts the bytes the entries hold: a cost key's addresses
    and warp ids (8 for a run's key) and a run's bytes. The memo starts over before they would pass ``_MEMO_BYTES``.
    """

    nbytes = 0

    def add(self, key: tuple, value: Any, nbytes: int) -> None:
        if self.nbytes + nbytes > _MEMO_BYTES:
            self.clear()
            self.nbytes = 0
        self[key] = value
        self.nbytes += nbytes

    def cost(self, sim: Any, space: str, warp_ids: np.ndarray, warp_key: bytes, byte_addrs: Optional[np.ndarray],
             first: int, pitch: int, extent: int, warp_size: int, block_size: int) -> int:
        """Segments or bank cycles of an instruction; ``extent`` bounds its byte addresses.

        ``warp_key`` holds the warp ids as bytes, none on a full mask; ``byte_addrs`` None stands for a
        run of ``warp_ids.size`` lanes ``pitch`` bytes apart from byte ``first``."""
        is_global = space == "global"
        period = sim.segment_bytes if is_global else sim.bank_width_bytes
        dt = _key_type(extent)
        base = first // period * period
        head = (space, dt, sim.segment_bytes, sim.bank_count, sim.bank_width_bytes, warp_size, block_size, warp_key)
        if byte_addrs is None:
            key, held = (*head, first - base, pitch, warp_ids.size), 8
        else:
            norm = (byte_addrs - base).astype(dt)
            key, held = (*head, norm.tobytes()), norm.nbytes
        cost = self.get(key)
        if cost is None:
            if byte_addrs is None:
                byte_addrs = first + pitch * np.arange(warp_ids.size)
            if is_global:
                cost = _warp_segment_total(warp_ids, byte_addrs, sim.segment_bytes)
            else:
                cost = _warp_bank_extra_cycles(warp_ids, byte_addrs, sim.bank_count, sim.bank_width_bytes)
            self.add(key, cost, held + len(warp_key))
        return cost


MEMO = _Memo()  # the one memo of the process; each key holds every input of its value
