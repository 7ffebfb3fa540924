"""Coalescing and bank-conflict analysis vs brute-force oracles."""

import numpy as np
import pytest

from warpsim import DeviceMemory, LaunchConfig, Recorder, Simulator, bank_conflict_degree, coalesce_count
from warpsim.core.access import _warp_bank_extra_cycles, _warp_segment_total


def segment_oracle(addresses, segment_bytes=128):
    """Brute force: count distinct floor(addr / segment_bytes) values."""
    seen = set()
    for a in addresses:
        seen.add(a // segment_bytes)
    return len(seen)


def bank_oracle(addresses, bank_count=32, bank_width=4):
    """Brute force: map distinct addresses to banks, return the max population."""
    per_bank = {}
    for a in set(addresses):
        per_bank.setdefault((a // bank_width) % bank_count, set()).add(a)
    return max((len(s) for s in per_bank.values()), default=0)


class TestCoalesceCount:
    def test_contiguous_aligned_is_one_transaction(self):
        base = 1024  # 128-aligned
        accesses = [(base + 4 * lane, 4) for lane in range(32)]
        assert coalesce_count(accesses) == 1

    def test_stride_two_is_two_transactions(self):
        base = 256
        accesses = [(base + 8 * lane, 4) for lane in range(32)]
        assert coalesce_count(accesses) == 2

    def test_broadcast_single_address(self):
        accesses = [(4096, 4)] * 32
        assert coalesce_count(accesses) == 1

    def test_empty_warp(self):
        assert coalesce_count([]) == 0

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError):
            coalesce_count([(0, 4), (4, 8)])

    def test_misaligned_contiguous_spans_two_segments(self):
        base = 128 - 4
        accesses = [(base + 4 * lane, 4) for lane in range(32)]
        assert coalesce_count(accesses) == segment_oracle(a for a, _ in accesses) == 2

    def test_random_address_sets_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            lanes = int(rng.integers(1, 33))
            addrs = rng.integers(0, 4096, size=lanes) * 4
            got = coalesce_count([(int(a), 4) for a in addrs])
            assert got == segment_oracle(int(a) for a in addrs)

    def test_segment_size_must_be_positive(self):
        with pytest.raises(ValueError, match="^segment_bytes=0 must be positive$"):
            coalesce_count([(0, 4)], 0)

    def test_configurable_segment_size(self):
        accesses = [(64 * lane, 4) for lane in range(4)]
        assert coalesce_count(accesses, segment_bytes=64) == 4
        assert coalesce_count(accesses, segment_bytes=256) == 1


class TestBankConflictDegree:
    def test_one_word_per_lane_is_conflict_free(self):
        addrs = [4 * lane for lane in range(32)]
        assert bank_conflict_degree(addrs) == 1

    def test_stride_two_words_doubles_up(self):
        addrs = [4 * 2 * lane for lane in range(32)]
        assert bank_conflict_degree(addrs) == 2

    def test_broadcast_counts_once(self):
        addrs = [7 * 4] * 32
        assert bank_conflict_degree(addrs) == 1

    def test_all_lanes_same_bank_distinct_words(self):
        addrs = [4 * 32 * lane for lane in range(32)]
        assert bank_conflict_degree(addrs) == 32

    def test_empty(self):
        assert bank_conflict_degree([]) == 0

    def test_random_cases_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            lanes = int(rng.integers(1, 33))
            addrs = (rng.integers(0, 512, size=lanes) * 4).tolist()
            assert bank_conflict_degree(addrs) == bank_oracle(addrs)

    def test_alternate_geometry(self):
        # 16 banks of 8 bytes: addresses 0 and 128 share bank 0.
        assert bank_conflict_degree([0, 128], bank_count=16, bank_width_bytes=8) == 2
        assert bank_conflict_degree([0, 8], bank_count=16, bank_width_bytes=8) == 1


class TestWarpVectorizedForms:
    """The engine's whole-block forms equal per-warp sums of the scalar oracles.

    The input families cover ascending, permuted, broadcast and scattered
    lane addresses, with lanes and whole warps masked off.
    """

    @staticmethod
    def per_warp_sums(warp_ids, addrs, segment_bytes, bank_count, bank_width):
        segments = extra = 0
        for w in np.unique(warp_ids):
            lanes = addrs[warp_ids == w].tolist()
            segments += coalesce_count([(a, 4) for a in lanes], segment_bytes)
            extra += bank_conflict_degree(lanes, bank_count, bank_width) - 1
        return segments, extra

    @staticmethod
    def block_access(rng, family, warp_size=32, warps=4):
        lane_ids = np.arange(warp_size * warps)
        if family == "ascending":
            addrs = lane_ids * 4 * int(rng.integers(1, 5)) + 4 * int(rng.integers(0, 64))
        elif family == "non_monotone":
            addrs = rng.permutation(lane_ids) * 4
        elif family == "broadcast":
            addrs = (lane_ids // int(rng.integers(2, 9))) * 4
        else:  # "scattered": arbitrary, with repeats and unaligned bytes
            addrs = rng.integers(0, 4096, size=lane_ids.size)
        # Drop some lanes and whole warps, as a partial mask does.
        keep = rng.random(lane_ids.size) < 0.7
        keep[warp_size:2 * warp_size] = False
        return (lane_ids // warp_size)[keep], addrs[keep].astype(np.int64)

    FAMILIES = ["ascending", "non_monotone", "broadcast", "scattered"]

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("geometry", [(128, 32, 4), (32, 16, 4), (64, 32, 8), (256, 8, 16)])
    def test_match_scalar_oracles(self, family, geometry):
        segment_bytes, bank_count, bank_width = geometry
        rng = np.random.default_rng([*geometry, self.FAMILIES.index(family)])
        for _ in range(25):
            warp_ids, addrs = self.block_access(rng, family)
            want = self.per_warp_sums(warp_ids, addrs, segment_bytes, bank_count, bank_width)
            got = (
                _warp_segment_total(warp_ids, addrs, segment_bytes),
                _warp_bank_extra_cycles(warp_ids, addrs, bank_count, bank_width),
            )
            assert got == want

    def test_single_lane_and_empty(self):
        one = np.array([3]), np.array([100])
        assert _warp_segment_total(*one, 128) == 1
        assert _warp_bank_extra_cycles(*one, 32, 4) == 0
        empty = np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        assert _warp_segment_total(*empty, 128) == 0
        assert _warp_bank_extra_cycles(*empty, 32, 4) == 0

    # The matrix products' access patterns over one 16x16 block (x fastest),
    # as byte addresses: the naive product's ``a[i*n+k]`` and ``b[k*p+j]``
    # with 8-byte elements, and the tiled product's three shared patterns
    # with 4-byte elements and ``tile_b`` after ``tile_a``.
    TILE = 16
    PRODUCT_PATTERNS = {
        "naive_a": lambda tx, ty, k: ((2 * 16 + tx) * 64 + k) * 8,
        "naive_b": lambda tx, ty, k: (k * 64 + 16 + ty) * 8,
        "tile_store": lambda tx, ty, k: (tx * 16 + ty) * 4,
        "tile_a": lambda tx, ty, k: (tx * 16 + k) * 4,
        "tile_b": lambda tx, ty, k: 1024 + (k * 16 + ty) * 4,
    }

    @pytest.mark.parametrize("mask", ["full", "partial", "edge"])
    @pytest.mark.parametrize("pattern", sorted(PRODUCT_PATTERNS))
    def test_product_patterns(self, pattern, mask):
        linear = np.arange(self.TILE * self.TILE)
        tx, ty = linear % self.TILE, linear // self.TILE
        warp_ids = linear // 32
        rng = np.random.default_rng(len(pattern))
        for k in range(self.TILE):
            addrs = self.PRODUCT_PATTERNS[pattern](tx, ty, k).astype(np.int64)
            if mask == "full":
                keep = np.ones(linear.size, dtype=bool)
            elif mask == "partial":
                keep = rng.random(linear.size) < 0.5
            else:  # a matrix edge: rows and columns past the bounds are masked off
                keep = (tx < 11) & (ty < 7)
            want = self.per_warp_sums(warp_ids[keep], addrs[keep], 128, 32, 4)
            got = (
                _warp_segment_total(warp_ids[keep], addrs[keep], 128),
                _warp_bank_extra_cycles(warp_ids[keep], addrs[keep], 32, 4),
            )
            assert got == want

    @pytest.mark.parametrize("group", [2, 4, 32, 256])
    def test_broadcast_repeats(self, group):
        linear = np.arange(256)
        warp_ids = linear // 32
        for scale in (4, 8, 128):
            # Lanes in groups of ``group`` share an address, in both orders.
            for addrs in ((linear // group) * scale, ((255 - linear) // group) * scale):
                want = self.per_warp_sums(warp_ids, addrs, 128, 32, 4)
                assert (_warp_segment_total(warp_ids, addrs, 128), _warp_bank_extra_cycles(warp_ids, addrs, 32, 4)) == want

    @pytest.mark.parametrize("family", FAMILIES)
    def test_geometry_past_the_histogram_bound(self, family):
        # 4096 banks over 32 warps: a wide geometry must agree too.
        bank_count, bank_width = 4096, 4
        rng = np.random.default_rng(self.FAMILIES.index(family))
        for _ in range(10):
            warp_ids, addrs = self.block_access(rng, family, warps=32)
            addrs = addrs * 64  # spread over the many banks, with repeats kept
            want = self.per_warp_sums(warp_ids, addrs, 128, bank_count, bank_width)
            assert _warp_bank_extra_cycles(warp_ids, addrs, bank_count, bank_width) == want[1]

    @pytest.mark.parametrize("bank_count", [2**49, 2**55, 2**62])
    def test_bank_counts_past_the_int64_product(self, bank_count):
        # Warps 2**64 / bank_count apart: a (warp, bank) key formed as
        # warp * bank_count + bank wraps them onto one warp in int64.
        far = 2**64 // bank_count
        rng = np.random.default_rng(bank_count.bit_length())
        lanes = np.arange(32)
        for warps in ([0, far], [1, far + 1, 2 * far + 1], [far - 1, far, 2 * far, 3 * far]):
            warp_ids = np.repeat(np.array(warps, dtype=np.int64), 32)
            conflict_free = np.tile(lanes * 4, len(warps))
            want = self.per_warp_sums(warp_ids, conflict_free, 128, bank_count, 4)
            assert want[1] == 0
            assert _warp_bank_extra_cycles(warp_ids, conflict_free, bank_count, 4) == want[1]
            for _ in range(10):  # unaligned bytes share a bank word; repeats broadcast
                addrs = rng.integers(0, 96, size=warp_ids.size)
                want = self.per_warp_sums(warp_ids, addrs, 128, bank_count, 4)
                assert _warp_bank_extra_cycles(warp_ids, addrs, bank_count, 4) == want[1]


def test_a_huge_bank_count_leaves_a_conflict_free_load_free():
    # Each warp loads 32 consecutive words: one per bank, whatever the count.
    def kernel(ctx):
        s = ctx.shared_array(256)
        s[ctx.lane]

    report = Simulator(bank_count=2**62).launch(kernel, LaunchConfig(1, 256, 1024), DeviceMemory())
    want = 8 * (bank_conflict_degree([4 * lane for lane in range(32)], 2**62) - 1)
    assert report.to_json()["bank_conflict_extra_cycles"] == want == 0


INT64_GEOMETRY = ["segment_bytes", "bank_count", "bank_width_bytes"]


@pytest.mark.parametrize("name", INT64_GEOMETRY)
def test_a_geometry_past_int64_is_refused_at_construction(name):
    with pytest.raises(ValueError) as caught:
        Simulator(**{name: 2**63})
    assert caught.value.args == (f"{name}={2**63} must be below 2**63",)


@pytest.mark.parametrize("name", INT64_GEOMETRY)
def test_the_widest_int64_geometry_counts_like_the_scalar_functions(name):
    geometry = {"segment_bytes": 128, "bank_count": 32, "bank_width_bytes": 4, name: 2**63 - 1}

    def kernel(ctx, buf):
        s = ctx.shared_array(128)
        s[2 * ctx.thread_idx.x] = buf[3 * ctx.global_id]

    mem, recorder = DeviceMemory(), Recorder()
    buf = mem.alloc("x", 192)
    report = Simulator(**geometry).launch(kernel, LaunchConfig(1, 64, 512), mem, (buf,), recorder=recorder)
    want = {"global": 0, "shared": 0}
    for rec in recorder.accesses:
        for warp in np.unique(rec.warp_ids).tolist():
            addrs = rec.addresses[rec.warp_ids == warp].tolist()
            if rec.space == "global":
                want["global"] += coalesce_count([(a, rec.width) for a in addrs], geometry["segment_bytes"])
            else:
                want["shared"] += bank_conflict_degree(addrs, geometry["bank_count"], geometry["bank_width_bytes"]) - 1
    got = report.to_json()
    assert (got["global_transactions"], got["bank_conflict_extra_cycles"]) == (want["global"], want["shared"])
