"""Prefix-sum golden tables, oracle checks, and work-count properties."""

import numpy as np
import pytest

from warpsim import MetricsReport
from warpsim.kernels import (
    NotPowerOfTwo,
    exclusive_scan_blelloch,
    inclusive_scan_hillis_steele,
)

PAPER_ARRAY = [8, 3, 5, 7, 2, 9, 1, 6, 4, 10, 12, 15, 11, 14, 13, 16]

PAPER_STEP_ROWS = [
    [8, 11, 8, 12, 9, 11, 10, 7, 10, 14, 22, 27, 26, 25, 27, 29],
    [8, 11, 16, 23, 17, 23, 19, 18, 20, 21, 32, 41, 48, 52, 53, 54],
    [8, 11, 16, 23, 25, 34, 35, 41, 37, 44, 51, 59, 68, 73, 85, 95],
    [8, 11, 16, 23, 25, 34, 35, 41, 45, 55, 67, 82, 93, 107, 120, 136],
]

PAPER_EXCLUSIVE = [0, 8, 11, 16, 23, 25, 34, 35, 41, 45, 55, 67, 82, 93, 107, 120]


def prefix_sums(values):
    out, running = [], 0
    for v in values:
        running += v
        out.append(running)
    return out


class TestGoldenInclusiveScan:
    def test_paper_array_all_rows_cell_for_cell(self):
        out, trace = inclusive_scan_hillis_steele(PAPER_ARRAY)
        assert trace.rows[0] == PAPER_ARRAY
        assert trace.rows[1:] == PAPER_STEP_ROWS
        assert out == PAPER_STEP_ROWS[-1]

    def test_single_element_identity(self):
        out, trace = inclusive_scan_hillis_steele([7])
        assert out == [7]
        assert trace.rows == [[7]]

    def test_empty(self):
        out, trace = inclusive_scan_hillis_steele([])
        assert out == []

    def test_every_cell_populated(self):
        _, trace = inclusive_scan_hillis_steele(PAPER_ARRAY)
        assert all(cell is not None for row in trace.rows for cell in row)


class TestGoldenExclusiveScan:
    def test_paper_array(self):
        assert exclusive_scan_blelloch(PAPER_ARRAY) == PAPER_EXCLUSIVE

    def test_all_zeros(self):
        assert exclusive_scan_blelloch([0] * 64) == [0] * 64

    def test_not_power_of_two(self):
        with pytest.raises(NotPowerOfTwo):
            exclusive_scan_blelloch([1, 2, 3])

    def test_capacity_limit(self):
        with pytest.raises(ValueError):
            exclusive_scan_blelloch(list(range(4096)))

    def test_empty(self):
        assert exclusive_scan_blelloch([]) == []

    def test_tiny_sizes(self):
        assert exclusive_scan_blelloch([5]) == [0]
        assert exclusive_scan_blelloch([5, 3]) == [0, 5]
        assert exclusive_scan_blelloch([5, 3, 2, 4]) == [0, 5, 8, 10]


class TestScanOracles:
    def test_inclusive_random_512(self):
        rng = np.random.default_rng(31)
        values = rng.integers(-1000, 1000, 512).tolist()
        out, trace = inclusive_scan_hillis_steele(values)
        assert out == prefix_sums(values)
        assert trace.n_steps == 9

    def test_inclusive_non_power_of_two_padding(self):
        rng = np.random.default_rng(32)
        for n in (3, 5, 17, 100, 1000):
            values = rng.integers(-50, 50, n).tolist()
            out, trace = inclusive_scan_hillis_steele(values)
            assert out == prefix_sums(values)
            assert len(trace.rows[0]) == n

    def test_inclusive_wide_multipass(self):
        rng = np.random.default_rng(33)
        values = rng.integers(-100, 100, 4096).tolist()
        out, trace = inclusive_scan_hillis_steele(values)
        assert out == prefix_sums(values)
        assert trace.n_steps == 12

    def test_exclusive_shift_relation(self):
        rng = np.random.default_rng(34)
        for exp in range(1, 12):
            values = rng.integers(-100, 100, 2**exp).tolist()
            inclusive = prefix_sums(values)
            exclusive = exclusive_scan_blelloch(values)
            assert exclusive == [0] + inclusive[:-1]
            assert all(e + v == i for e, v, i in zip(exclusive, values, inclusive))

    def test_float_scan_tolerance(self):
        rng = np.random.default_rng(35)
        values = rng.normal(size=128).tolist()
        out, _ = inclusive_scan_hillis_steele(values)
        for got, want in zip(out, prefix_sums(values)):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestWorkCounts:
    def test_distance_doubling_addition_count(self):
        # n log2 n - (n - 1) additions, counted by thread_steps.
        for exp in (3, 4, 6, 8):
            n = 2**exp
            report = MetricsReport()
            inclusive_scan_hillis_steele(list(range(n)), metrics=report)
            assert report.thread_steps == n * exp - (n - 1)

    def test_distance_doubling_count_wide(self):
        n = 2048
        report = MetricsReport()
        inclusive_scan_hillis_steele(list(range(n)), metrics=report)
        assert report.thread_steps == n * 11 - (n - 1)

    def test_two_phase_scan_addition_count(self):
        # Up-sweep n-1 plus down-sweep n-1 additions.
        for exp in (2, 4, 6, 8, 10):
            n = 2**exp
            report = MetricsReport()
            exclusive_scan_blelloch(list(range(n)), metrics=report)
            assert report.thread_steps == 2 * (n - 1)
