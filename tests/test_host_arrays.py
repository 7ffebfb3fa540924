"""The host boundary: its input contract, held to a reference written here, and its copy rule.

``host_arrays`` turns the primitives' input sequences into arrays of one
dtype. The reference below states the contract element by element in plain
Python: the property test requires the same dtype and bytes, or the same
exception type and message, for every drawn input. ``DeviceMemory.alloc``
keeps an array it converted from a list and copies any array the caller
could still hold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpsim import DeviceMemory, LaunchConfig, Simulator
from warpsim.core.memory import host_arrays
from warpsim.kernels import Matrix, matrix_add, vector_add


class Index:
    """Not a number, but reads as one through ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


def reference(*seqs):
    rows = []
    for pos, seq in enumerate(seqs):
        row = []
        for i, v in enumerate(seq):
            if isinstance(v, (bool, np.bool_, int, np.integer)):
                row.append(int(v))
            elif isinstance(v, (float, np.floating)):
                row.append(float(v))
            elif isinstance(v, Index):
                row.append(v.value)
            else:
                raise ValueError(f"argument {pos}: element [{i}] must be a real number, got {v!r}")
        if all(type(v) is int for v in row):
            for v in row:
                if not -(2**63) <= v < 2**63:
                    raise ValueError(f"input integer {v} does not fit int64")
        rows.append(row)
    if any(type(v) is float for row in rows for v in row):
        return [np.array([float(v) for v in row], dtype=np.float64) for row in rows]
    return [np.array(row, dtype=np.int64) for row in rows]


def outcome(f, seqs):
    try:
        return [(a.dtype, a.shape, a.tobytes()) for a in f(*seqs)]
    except Exception as e:  # the type and message are the contract
        return (type(e), str(e))


EDGE = 2**63
ints = st.one_of(
    st.integers(-5, 5),
    st.integers(EDGE - 3, EDGE + 2),
    st.integers(-EDGE - 2, -EDGE + 3),
    st.integers(2 * EDGE - 2, 2 * EDGE + 2),
    st.integers(-(2**80), 2**80),
)
numpy_scalars = st.one_of(
    ints.filter(lambda v: -EDGE <= v < EDGE).map(np.int64),
    st.integers(0, 2 * EDGE - 1).map(np.uint64),
    st.integers(-128, 127).map(np.int8),
    st.booleans().map(np.bool_),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
)
scalars = st.one_of(
    ints,
    st.booleans(),
    numpy_scalars,
    st.floats(),
    st.floats(-4, 4).map(round).map(float),  # integral floats, which still make an argument float64
    ints.map(Index),
)
not_numbers = st.one_of(st.none(), st.text(max_size=3), st.binary(max_size=3), st.complex_numbers(max_magnitude=4))
elements = st.one_of(
    scalars,
    not_numbers,
    st.lists(scalars, max_size=3),  # nested, sometimes a regular 2-D shape for numpy
)
arguments = st.one_of(
    st.lists(scalars, max_size=6),  # all numbers, the common case
    st.lists(st.one_of(scalars, scalars, scalars, elements), max_size=6),
    st.lists(st.sampled_from([EDGE - 1, -EDGE, 0, True, np.bool_(True), Index(7)]), max_size=6),
)
argument_lists = st.lists(
    st.tuples(arguments, st.booleans()).map(lambda t: tuple(t[0]) if t[1] else t[0]),  # a tuple is never a list
    min_size=1,
    max_size=3,
)


@settings(max_examples=600, deadline=None)
@given(argument_lists)
def test_host_arrays_matches_the_reference(seqs):
    assert outcome(host_arrays, seqs) == outcome(reference, seqs)


@pytest.mark.parametrize("seqs, message", [
    (([None, 2],), "argument 0: element [0] must be a real number, got None"),
    (([1], [1, "a"]), "argument 1: element [1] must be a real number, got 'a'"),
    (([1, [2, 3]],), "argument 0: element [1] must be a real number, got [2, 3]"),
    (([[1, 2], [3, 4]],), "argument 0: element [0] must be a real number, got [1, 2]"),
    (([b"1"],), "argument 0: element [0] must be a real number, got b'1'"),
    (([2**63], [None]), f"input integer {2**63} does not fit int64"),
])
def test_elements_that_are_not_numbers_rejected(seqs, message):
    with pytest.raises(ValueError) as exc:
        host_arrays(*seqs)
    assert str(exc.value) == message


def test_bools_and_index_objects_read_as_integers():
    (a,) = host_arrays([True, np.bool_(False), Index(-3), np.uint64(5), -1])
    assert a.dtype == np.int64 and a.tolist() == [1, 0, -3, 5, -1]
    a, b = host_arrays([Index(2), True], [0.5])
    assert a.dtype == b.dtype == np.float64 and a.tolist() == [2.0, 1.0]


def double_in_place(ctx, buf):
    buf[ctx.global_id] = ctx.add(buf[ctx.global_id], buf[ctx.global_id])


def run_double(mem, buf):
    Simulator().launch(double_in_place, LaunchConfig(1, len(buf)), mem, (buf,))


def test_alloc_of_a_list_keeps_no_tie_to_the_list_or_its_source():
    source = np.arange(8)
    values = source.tolist()
    mem = DeviceMemory()
    buf = mem.alloc("x", values)
    run_double(mem, buf)
    assert buf.tolist() == [2 * v for v in range(8)]
    assert values == list(range(8)) and source.tolist() == values
    assert not np.shares_memory(buf.data, source)


@pytest.mark.parametrize("make", [
    lambda: np.arange(8),
    lambda: np.arange(16)[::2],  # a view
    lambda: np.arange(8, dtype=np.int32),  # widened to int64 by the conversion, then still copied
    lambda: np.linspace(0.5, 4.0, 8),
])
def test_alloc_of_an_array_copies_it(make):
    caller = make()
    before = caller.copy()
    mem = DeviceMemory()
    buf = mem.alloc("x", caller)
    assert not np.shares_memory(buf.data, caller)
    run_double(mem, buf)
    assert np.array_equal(caller, before) and np.array_equal(buf.data, 2 * before)


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_primitives_leave_numpy_inputs_unchanged(dtype):
    a, b = np.arange(300, dtype=dtype), np.arange(300, 0, -1).astype(dtype)
    a0, b0 = a.copy(), b.copy()
    assert vector_add(a, b) == (a0 + b0).tolist()
    m = Matrix(10, 30, a)
    assert matrix_add(m, Matrix(10, 30, b)).data == (a0 + b0).tolist()
    assert np.array_equal(a, a0) and np.array_equal(b, b0)
