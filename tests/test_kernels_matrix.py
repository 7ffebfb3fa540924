"""Matrix primitives: goldens, oracles, and the tiled-vs-naive traffic win."""

import numpy as np
import pytest

from warpsim import MetricsReport
from warpsim.kernels import Matrix, ShapeMismatch, matmul, matrix_add, vector_add
from warpsim.kernels import LengthMismatch


def matmul_oracle(a: Matrix, b: Matrix) -> Matrix:
    """Triple loop, independent of the simulator."""
    out = [0] * (a.rows * b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            acc = 0
            for k in range(a.cols):
                acc += a.at(i, k) * b.at(k, j)
            out[i * b.cols + j] = acc
    return Matrix(a.rows, b.cols, out)


def random_matrix(rng, rows, cols, lo=-9, hi=10) -> Matrix:
    return Matrix(rows, cols, rng.integers(lo, hi, rows * cols).tolist())


class TestMatrixType:
    def test_round_trip(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert m.to_rows() == [[1, 2], [3, 4]]
        assert m.at(1, 0) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            Matrix(2, 2, [1, 2, 3])
        with pytest.raises(ValueError):
            Matrix(0, 2, [])

    @pytest.mark.parametrize("rows, cols, data", [
        (2.0, 2, [1, 2, 3, 4]),  # equal to 2, but not a count
        (True, 1, [5]),
        ("2", 1, [1, 2]),
        (2, None, [1, 2]),
    ])
    def test_dimensions_follow_the_count_rule(self, rows, cols, data):
        with pytest.raises(ValueError, match=f"matrix dimensions must be integers, got {rows!r}x{cols!r}"):
            Matrix(rows, cols, data)

    def test_numpy_dimensions_are_counts(self):
        assert Matrix(np.int64(2), np.int32(1), [1, 2]).to_rows() == [[1], [2]]

    def test_no_rows_is_a_value_error(self):
        with pytest.raises(ValueError, match="must be positive, got 0x0"):
            Matrix.from_rows([])


class TestMatrixAdd:
    def test_paper_inputs(self):
        a = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        b = Matrix.from_rows([[9, 8, 7], [6, 5, 4], [3, 2, 1]])
        assert matrix_add(a, b).to_rows() == [[10, 10, 10]] * 3

    def test_zero_matrix_identity(self):
        rng = np.random.default_rng(41)
        a = random_matrix(rng, 5, 7)
        z = Matrix(5, 7, [0] * 35)
        assert matrix_add(a, z).data == a.data

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            matrix_add(Matrix(2, 2, [1] * 4), Matrix(2, 3, [1] * 6))

    def test_random_100x37(self):
        rng = np.random.default_rng(42)
        a = random_matrix(rng, 100, 37)
        b = random_matrix(rng, 100, 37)
        got = matrix_add(a, b)
        assert got.data == [x + y for x, y in zip(a.data, b.data)]


class TestMatmul:
    def test_hand_product(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        b = Matrix.from_rows([[5, 6], [7, 8]])
        assert matmul(a, b).to_rows() == [[19, 22], [43, 50]]
        assert matmul(a, b, "tiled").to_rows() == [[19, 22], [43, 50]]

    def test_identity(self):
        rng = np.random.default_rng(43)
        a = random_matrix(rng, 9, 9)
        eye = Matrix(9, 9, [1 if i == j else 0 for i in range(9) for j in range(9)])
        assert matmul(a, eye).data == a.data
        assert matmul(a, eye, "tiled").data == a.data

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            matmul(Matrix(2, 3, [1] * 6), Matrix(2, 2, [1] * 4))

    def test_rectangular_48x32x19(self):
        rng = np.random.default_rng(44)
        a = random_matrix(rng, 48, 32)
        b = random_matrix(rng, 32, 19)
        want = matmul_oracle(a, b)
        assert matmul(a, b, "naive").data == want.data
        assert matmul(a, b, "tiled").data == want.data

    def test_float_matmul_tolerance(self):
        rng = np.random.default_rng(45)
        a = Matrix(8, 8, rng.normal(size=64).tolist())
        b = Matrix(8, 8, rng.normal(size=64).tolist())
        got = matmul(a, b)
        want = matmul_oracle(a, b)
        for g, w in zip(got.data, want.data):
            assert g == pytest.approx(w, rel=1e-9, abs=1e-12)

    def test_tiled_bit_identical_to_naive(self):
        rng = np.random.default_rng(46)
        for m, n, p in [(1, 1, 1), (16, 16, 16), (17, 5, 33), (64, 64, 64)]:
            a = random_matrix(rng, m, n)
            b = random_matrix(rng, n, p)
            assert matmul(a, b, "naive").data == matmul(a, b, "tiled").data


class TestTrafficComparison:
    def test_tiled_beats_naive_at_64(self):
        rng = np.random.default_rng(47)
        a = random_matrix(rng, 64, 64)
        b = random_matrix(rng, 64, 64)
        naive_report, tiled_report = MetricsReport(), MetricsReport()
        naive = matmul(a, b, "naive", metrics=naive_report)
        tiled = matmul(a, b, "tiled", metrics=tiled_report)
        assert naive.data == tiled.data
        assert tiled_report.global_transactions < naive_report.global_transactions

    def test_tiled_wins_grow_with_size(self):
        rng = np.random.default_rng(48)
        for size in (64, 80):
            a = random_matrix(rng, size, size)
            b = random_matrix(rng, size, size)
            rn, rt = MetricsReport(), MetricsReport()
            matmul(a, b, "naive", metrics=rn)
            matmul(a, b, "tiled", metrics=rt)
            assert rt.global_transactions < rn.global_transactions


class TestVectorAdd:
    def test_paper_result(self):
        assert vector_add([1, 2, 3, 4, 5], [10, 20, 30, 40, 50]) == [11, 22, 33, 44, 55]

    def test_empty(self):
        assert vector_add([], []) == []

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            vector_add([1], [1, 2])

    @pytest.mark.parametrize("threads", [0, -32])
    def test_threads_per_block_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match=f"^threads_per_block={threads} must be at least 1$"):
            vector_add([1, 2], [3, 4], threads_per_block=threads)

    def test_random_1000(self):
        rng = np.random.default_rng(49)
        a = rng.integers(-10**9, 10**9, 1000).tolist()
        b = rng.integers(-10**9, 10**9, 1000).tolist()
        assert vector_add(a, b) == [x + y for x, y in zip(a, b)]

    def test_float_inputs(self):
        a = [0.5, 1.25, -2.75]
        b = [1.5, 2.0, 0.25]
        assert vector_add(a, b) == [2.0, 3.25, -2.5]

    @pytest.mark.parametrize("a", [[2**63], [2**63, -1], [-(2**63) - 1, 0], [2**70, True]])
    def test_integers_past_int64_rejected(self, a):
        # numpy reads these as uint64, float64 (rounded) and object arrays.
        big = next(v for v in a if not -(2**63) <= v < 2**63)
        with pytest.raises(ValueError, match=f"^buffer 'a': input integer {big} does not fit int64$"):
            vector_add(a, [0] * len(a))

    def test_int64_lanes_wrap_as_on_a_device(self):
        # A GPU's 64-bit integer add (PTX add.s64) wraps modulo 2**64; no check runs per instruction.
        assert vector_add([2**63 - 1], [1]) == [-(2**63)]
        assert vector_add([-(2**63)], [-1]) == [2**63 - 1]

    def test_int64_extremes_and_huge_floats_keep_their_rules(self):
        assert vector_add([2**63 - 1, -(2**63)], [0, 0]) == [2**63 - 1, -(2**63)]
        assert vector_add([2**63, 0.5], [0, 0]) == [2.0**63, 0.5]
        assert vector_add([2**70, 0.5], [0, 0]) == [2.0**70, 0.5]
