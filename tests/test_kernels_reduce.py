"""Reduction golden traces and oracle checks."""

import json
import math

import numpy as np
import pytest

from warpsim import MetricsReport, Simulator
from warpsim.kernels import NotPowerOfTwo, StepTrace, reduce_sum

PAPER_ARRAY = [8, 3, 5, 7, 2, 9, 1, 6, 4, 10, 12, 15, 11, 14, 13, 16]

# Interleaved adjacent-pair reduction: active threads and their sums per step,
# idle cells empty.
PAPER_ROWS = [
    [11, None, 12, None, 11, None, 7, None, 14, None, 27, None, 25, None, 29, None],
    [23, None, None, None, 18, None, None, None, 41, None, None, None, 54, None, None, None],
    [41, None, None, None, None, None, None, None, 95, None, None, None, None, None, None, None],
    [136] + [None] * 15,
]

NAN = float("nan")


def same_cells(rows, expected):
    """Row equality that takes a NaN cell to equal a NaN cell."""
    def key(cell):
        return "nan" if isinstance(cell, float) and math.isnan(cell) else cell

    return [[key(c) for c in row] for row in rows] == [[key(c) for c in row] for row in expected]


class TestGoldenReduction:
    def test_paper_array_sum_and_trace(self):
        total, trace = reduce_sum(PAPER_ARRAY, "interleaved")
        assert total == 136
        assert trace.rows[0] == PAPER_ARRAY
        assert trace.rows[1:] == PAPER_ROWS
        assert trace.n_steps == 4

    def test_sequential_variant_agrees_on_sum(self):
        total, trace = reduce_sum(PAPER_ARRAY, "sequential")
        assert total == 136
        assert trace.n_steps == 4
        # Sequential halving: step 1 keeps threads 0..7 active.
        assert trace.rows[1][:8] == [12, 13, 17, 22, 13, 23, 14, 22]
        assert trace.rows[1][8:] == [None] * 8

    def test_single_element_trace_is_empty(self):
        total, trace = reduce_sum([42])
        assert total == 42
        assert trace.n_steps == 0
        assert trace.rows == [[42]]

    def test_nan_cells_are_stored_values(self):
        _, trace = reduce_sum([float("nan"), 1.0, 2.0, 3.0])
        assert same_cells(trace.rows[1:], [[NAN, None, 5.0, None], [NAN, None, None, None]])

    def test_most_negative_int64_is_a_stored_value(self):
        low = -(2**63)
        _, trace = reduce_sum([low, 0, 5, 6])
        assert trace.rows[1:] == [[low, None, 11, None], [low + 11, None, None, None]]

    def test_non_power_of_two_rejected(self):
        with pytest.raises(NotPowerOfTwo):
            reduce_sum([1, 2, 3])
        with pytest.raises(NotPowerOfTwo):
            reduce_sum([])


class TestStepTraceText:
    def test_integral_floats_lose_their_point_and_other_floats_print_as_str(self):
        text = StepTrace([[2.0, 0.5, None], [-3.0, 1e-07, 7]]).to_text()
        assert text.splitlines() == [
            "   step  T_0    T_1  T_2",
            "initial    2    0.5     ",
            "      1   -3  1e-07    7",
        ]

    def test_empty_trace(self):
        assert StepTrace().to_text() == "(empty trace)"


class TestReductionOracles:
    @pytest.mark.parametrize("variant", ["interleaved", "sequential"])
    def test_random_1024_exact(self, variant):
        rng = np.random.default_rng(21)
        values = rng.integers(-(10**6), 10**6, 1024).tolist()
        total, trace = reduce_sum(values, variant)
        assert total == sum(values)
        assert trace.n_steps == 10

    @pytest.mark.parametrize("variant", ["interleaved", "sequential"])
    def test_multi_block_partials(self, variant):
        rng = np.random.default_rng(22)
        values = rng.integers(-1000, 1000, 4096).tolist()
        total, trace = reduce_sum(values, variant)
        assert total == sum(values)
        assert trace.rows[0] == values

    @pytest.mark.parametrize("variant", ["interleaved", "sequential"])
    def test_multi_block_partials_add_in_the_devices_dtype(self, variant):
        # int64 partials wrap as the adds inside a block do; no int64 machine holds 2**64 - 2048.
        assert reduce_sum([(2**63 - 1) // 1024] * 2048, variant)[0] == -2048

    @pytest.mark.parametrize("variant", ["interleaved", "sequential"])
    def test_multi_block_float_partials_add_left_to_right(self, variant):
        # Each 1024-element chunk runs the same one-block tree as its partial; Python 3.12's sum() would
        # compensate where the device does not.
        values = np.random.default_rng(25).normal(scale=1e6, size=4096).tolist()
        parts = [reduce_sum(values[i:i + 1024], variant)[0] for i in range(0, 4096, 1024)]
        assert reduce_sum(values, variant)[0] == ((parts[0] + parts[1]) + parts[2]) + parts[3]

    def test_variants_agree_across_sizes(self):
        rng = np.random.default_rng(23)
        for exp in range(0, 12):
            values = rng.integers(-100, 100, 2**exp).tolist()
            a, _ = reduce_sum(values, "interleaved")
            b, _ = reduce_sum(values, "sequential")
            assert a == b == sum(values)

    def test_float_inputs_within_tolerance(self):
        rng = np.random.default_rng(24)
        values = rng.normal(size=256).tolist()
        total, _ = reduce_sum(values)
        assert total == pytest.approx(sum(values), rel=1e-9)

    def test_step_count_is_log2(self):
        for exp in range(1, 11):
            values = list(range(2**exp))
            _, trace = reduce_sum(values)
            assert trace.n_steps == exp

    def test_trace_row_zero_is_input(self):
        values = [5, 1, 4, 1]
        _, trace = reduce_sum(values)
        assert trace.rows[0] == values

    def test_metrics_accumulate_into_caller_report(self):
        report = MetricsReport()
        reduce_sum(PAPER_ARRAY, metrics=report)
        assert report.barriers_executed > 0
        assert report.thread_steps == 15  # n-1 additions for n=16

    def test_reused_simulator_is_consistent(self):
        sim = Simulator()
        a, _ = reduce_sum(PAPER_ARRAY, simulator=sim)
        b, _ = reduce_sum(PAPER_ARRAY, simulator=sim)
        assert a == b == 136

    @pytest.mark.parametrize("n", [1, 16, 2048])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_array_input_serializes_like_the_same_list(self, n, dtype):
        values = np.arange(n, dtype=dtype)
        got, want = reduce_sum(values), reduce_sum(values.tolist())
        assert got == want
        assert json.dumps(got[1].to_json()) == json.dumps(want[1].to_json())
        assert all(type(v) is type(values.tolist()[0]) for v in got[1].rows[0])


@pytest.mark.parametrize("variant", ["interleaved", "sequential"])
@pytest.mark.parametrize("n", [1, 2, 16, 1024, 2048])
def test_without_steps_the_sum_and_metrics_are_the_same(n, variant):
    values = [(7 * i) % 23 - 5 for i in range(n)]
    with_steps, without = MetricsReport(), MetricsReport()
    total, trace = reduce_sum(values, variant, metrics=with_steps)
    assert reduce_sum(values, variant, metrics=without, steps=False) == (total, None)
    assert isinstance(trace, StepTrace)
    assert json.dumps(without.to_json()) == json.dumps(with_steps.to_json())
