"""The host boundary: its input contract, held to a reference written here, and its copy rule.

``DeviceMemory.alloc`` is the one door from host data to a device buffer:
it turns one sequence into an array of one dtype. The reference below
states the contract element by element in plain Python: the property test
requires the same dtype and bytes, or the same exception type and message,
for every drawn sequence. ``alloc`` keeps an array it converted from a list
and copies any array the caller could still hold. The primitives type each
output by ``np.result_type`` of their inputs.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpsim import DeviceMemory, LaunchConfig, MetricsReport, Simulator
from warpsim.kernels import (
    Matrix,
    exclusive_scan_blelloch,
    inclusive_scan_hillis_steele,
    matmul,
    matrix_add,
    reduce_sum,
    vector_add,
)


class Index:
    """Not a number, but reads as one through ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


def reference(name, seq):
    if seq and all(type(v) is list for v in seq) and len({len(v) for v in seq}) == 1:  # numpy sees a matrix
        raise ValueError(f"buffer {name!r}: size_or_data of shape {(len(seq), len(seq[0]))} must be one-dimensional")
    row = []
    for i, v in enumerate(seq):
        if isinstance(v, (bool, np.bool_, int, np.integer)):
            row.append(int(v))
        elif isinstance(v, (float, np.floating)):
            row.append(float(v))
        elif isinstance(v, Index):
            row.append(v.value)
        else:
            raise ValueError(f"buffer {name!r}: element [{i}] must be a real number, got {v!r}")
    if any(type(v) is float for v in row):
        return np.array([float(v) for v in row], dtype=np.float64)
    for v in row:
        if not -(2**63) <= v < 2**63:
            raise ValueError(f"buffer {name!r}: input integer {v} does not fit int64")
    return np.array(row, dtype=np.int64)


def alloc(name, seq):
    return DeviceMemory().alloc(name, seq).data


def outcome(f, seq):
    try:
        a = f("x", seq)
        return (a.dtype, a.shape, a.tobytes())
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
sequences = st.tuples(arguments, st.booleans()).map(lambda t: tuple(t[0]) if t[1] else t[0])  # a tuple is never a list


@settings(max_examples=600, deadline=None)
@given(sequences)
def test_host_arrays_matches_the_reference(seq):
    assert outcome(alloc, seq) == outcome(reference, seq)


@pytest.mark.parametrize("name, seq, message", [
    ("a", [None, 2], "buffer 'a': element [0] must be a real number, got None"),
    ("b", [1, "a"], "buffer 'b': element [1] must be a real number, got 'a'"),
    ("a", [1, [2, 3]], "buffer 'a': element [1] must be a real number, got [2, 3]"),
    ("a", [[1, 2], [3]], "buffer 'a': element [0] must be a real number, got [1, 2]"),
    ("a", [[1, 2], [3, 4]], "buffer 'a': size_or_data of shape (2, 2) must be one-dimensional"),
    ("a", [b"1"], "buffer 'a': element [0] must be a real number, got b'1'"),
    ("a", [2**63, None], "buffer 'a': element [1] must be a real number, got None"),
    ("a", (2**63, 1), f"buffer 'a': input integer {2**63} does not fit int64"),
])
def test_elements_that_are_not_numbers_rejected(name, seq, message):
    with pytest.raises(ValueError) as exc:
        alloc(name, seq)
    assert str(exc.value) == message


def test_bools_and_index_objects_read_as_integers():
    a = alloc("a", [True, np.bool_(False), Index(-3), np.uint64(5), -1])
    assert a.dtype == np.int64 and a.tolist() == [1, 0, -3, 5, -1]
    a = alloc("a", [Index(2), True, 0.5])
    assert a.dtype == np.float64 and a.tolist() == [2.0, 1.0, 0.5]


@pytest.mark.parametrize("data", [[1], np.arange(3)])
def test_dtype_goes_with_a_size_only(data):
    # With data, a dtype would convert it unchecked: ["3", 1.5, True] as int64 would be [3, 1, 1].
    mem = DeviceMemory()
    with pytest.raises(ValueError) as exc:
        mem.alloc("x", data, dtype=np.int64)
    assert exc.value.args == ("buffer 'x': dtype goes with an integer size, not with data",)
    assert mem.buffers == {}
    assert mem.alloc("y", 3, dtype=np.float64).data.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("primitive, values, message", [
    (reduce_sum, [None], "element [0] must be a real number, got None"),
    (reduce_sum, [2**64], f"input integer {2**64} does not fit int64"),
    (exclusive_scan_blelloch, ["a"], "element [0] must be a real number, got 'a'"),
])
def test_one_element_inputs_keep_the_contract(primitive, values, message):
    with pytest.raises(ValueError) as exc:
        primitive(values)
    assert exc.value.args == (f"buffer 'input': {message}",)


def test_one_element_inputs_return_numbers():
    assert reduce_sum([True])[0] == 1 and type(reduce_sum([True])[0]) is int
    assert reduce_sum([np.float64(2.5)])[0] == 2.5
    assert exclusive_scan_blelloch([Index(4)]) == [0]


def test_an_int_input_and_a_float_input_give_float_results():
    # The output buffer takes np.result_type of the inputs; the int lanes round to float64 inside the add or
    # multiply exactly as converting them first did.
    rng = np.random.default_rng(7)
    ints = rng.integers(-(2**62), 2**62, 48 * 48)
    floats = rng.uniform(-1e3, 1e3, 48 * 48)
    assert vector_add([2**53 + 1, 1], [0.5, 0.5]) == [9007199254740992.0, 1.5]
    for a, b in ((ints, floats), (floats, ints)):
        assert vector_add(a.tolist(), b.tolist()) == (a + b).tolist()
        ma, mb = Matrix(48, 48, a.tolist()), Matrix(48, 48, b.tolist())
        assert matrix_add(ma, mb).data == (a + b).tolist()
        fa, fb = a.astype(np.float64).reshape(48, 48), b.astype(np.float64).reshape(48, 48)
        want = fa[:, 0, None] * fb[0]
        for k in range(1, 48):  # the kernels' order over k, which @ does not keep
            want = want + fa[:, k, None] * fb[k]
        for variant in ("naive", "tiled"):
            assert matmul(ma, mb, variant).data == want.ravel().tolist()


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


def test_a_buffer_names_itself_its_length_and_dtype():
    mem = DeviceMemory()
    assert repr(mem.alloc("x", [1, 2, 3])) == "Buffer('x', len=3, dtype=int64)"
    assert repr(mem.alloc("y", [0.5])) == "Buffer('y', len=1, dtype=float64)"


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


SAME_VALUES = {
    "int64": list(range(-8, 8)),
    "float64": [i / 4 for i in range(16)],
    "bool": [i % 3 == 0 for i in range(16)],
    "uint64": [2**64 - 1, *range(15)],  # past int64: rejected either way
    "object": [1, None, *range(14)],  # rejected either way
}


def primitive_outcome(call):
    """A primitive's result with the type of each value, its step rows if any, or its exception.

    Step rows must be JSON: plain numbers, never numpy scalars."""
    try:
        result = call()
    except Exception as e:  # the same exception is expected of both input forms
        return type(e), e.args
    if isinstance(result, tuple):  # reduce_sum and inclusive_scan_hillis_steele: (result, StepTrace)
        json.dumps(result[1].to_json())
        value = result[0]
        return value, [type(v) for v in value] if isinstance(value, list) else type(value), result[1].rows
    return result, [type(v) for v in result]


@pytest.mark.parametrize("form", ["ndarray", "tuple", "generator"])
@pytest.mark.parametrize("name", SAME_VALUES)
def test_primitives_read_arrays_tuples_and_generators_as_the_same_list(name, form):
    # Results, value types, step rows and error messages match those of the same values as a list.
    make = {
        "ndarray": lambda values: np.array(values, dtype=name),
        "tuple": tuple,
        "generator": lambda values: (v for v in values),
    }[form]
    values = SAME_VALUES[name]
    wide = values * 65  # 1040 elements: the scan's one launch per step
    for call, given in (
        (lambda x: vector_add(x(), x()), values),
        (lambda x: reduce_sum(x()), values),
        (lambda x: exclusive_scan_blelloch(x()), values),
        (lambda x: inclusive_scan_hillis_steele(x()), values),
        (lambda x: inclusive_scan_hillis_steele(x()), wide),
    ):
        want = primitive_outcome(lambda: call(lambda: list(given)))
        assert primitive_outcome(lambda: call(lambda: make(given))) == want



SIZED_FORMS = {
    "int32": lambda n: np.arange(-(n // 2), n - n // 2, dtype=np.int32),
    "int64": lambda n: np.arange(-(n // 2), n - n // 2),
    "float64": lambda n: np.arange(n) / 4,
    "bool": lambda n: np.arange(n) % 3 == 0,
    "tuple": lambda n: tuple(range(n)),
    "range": range,
    "generator": lambda n: (v for v in range(n)),
}
PRIMITIVE_CALLS = [  # (call of a thunk that makes the input and of a report, input lengths)
    (lambda x, m: vector_add(x(), x(), metrics=m), (13, 16)),
    *((lambda x, m, v=v: reduce_sum(x(), v, metrics=m), (16, 2048)) for v in ("interleaved", "sequential")),
    (lambda x, m: inclusive_scan_hillis_steele(x(), metrics=m), (13, 16, 1040)),
    (lambda x, m: exclusive_scan_blelloch(x(), metrics=m), (16,)),
    (lambda x, m: matrix_add(Matrix(4, 4, x()), Matrix(4, 4, x()), metrics=m), (16,)),
    *((lambda x, m, v=v: matmul(Matrix(4, 4, x()), Matrix(4, 4, x()), v, metrics=m), (16,))
      for v in ("naive", "tiled")),
]


def primitive_json(call, make):
    """A primitive's result, its trace if any and its ``MetricsReport``, each as JSON."""
    metrics = MetricsReport()
    result = call(make, metrics)
    trace = None
    if isinstance(result, tuple):  # (result, StepTrace)
        result, trace = result[0], json.dumps(result[1].to_json())
    return json.dumps(getattr(result, "data", result)), trace, json.dumps(metrics.to_json())


@pytest.mark.parametrize("form", SIZED_FORMS)
def test_every_input_form_gives_the_json_of_its_list(form):
    for call, sizes in PRIMITIVE_CALLS:
        for n in sizes:
            given = SIZED_FORMS[form](n)
            as_list = given.tolist() if isinstance(given, np.ndarray) else list(range(n))
            assert primitive_json(call, lambda: SIZED_FORMS[form](n)) == primitive_json(call, lambda: as_list)


@pytest.mark.parametrize("given", ["ab", b"ab", {1: 2, 3: 4}], ids=["str", "bytes", "dict"])
def test_a_whole_input_that_is_no_sequence_of_numbers_is_refused(given):
    for call in (lambda: vector_add(given, given), lambda: reduce_sum(given),
                 lambda: inclusive_scan_hillis_steele(given), lambda: exclusive_scan_blelloch(given)):
        with pytest.raises(ValueError, match="must be an integer size or a sequence"):
            call()


def test_an_array_input_reaches_alloc_as_it_is(monkeypatch):
    # alloc converts an ndarray at C speed; a list of its numpy scalars takes a Python object per element.
    given = []
    alloc = DeviceMemory.alloc

    def spy(self, name, size_or_data, *args, **kwargs):
        if not isinstance(size_or_data, int):
            given.append((name, type(size_or_data)))
        return alloc(self, name, size_or_data, *args, **kwargs)

    monkeypatch.setattr(DeviceMemory, "alloc", spy)
    x = np.arange(16)
    vector_add(x, x), reduce_sum(x), inclusive_scan_hillis_steele(x), exclusive_scan_blelloch(x)
    assert given == [("a", np.ndarray), ("b", np.ndarray), ("input", np.ndarray), ("input", np.ndarray),
                     ("input", np.ndarray)]


@pytest.mark.parametrize("n", [1, 16, 2048])
@pytest.mark.parametrize("primitive", [reduce_sum, inclusive_scan_hillis_steele])
def test_step_row_0_is_read_from_the_device_like_every_later_row(primitive, n):
    # Rows are compared as JSON: True == 1, but json.dumps tells them apart.
    for scalars in ([np.int64(i % 7) for i in range(n)], [np.float32(i % 5) / 2 for i in range(n)]):
        json.dumps(primitive(scalars)[1].to_json())
    bools = [i % 3 == 0 for i in range(n)]
    rows = json.dumps(primitive(bools)[1].to_json())
    assert json.dumps(primitive(tuple(bools))[1].to_json()) == rows
    assert json.dumps(primitive(bools)[1].rows[0]) == json.dumps([int(b) for b in bools])
    mixed = [1, 2.5] + [3] * (n - 2) if n > 1 else [1]
    assert json.dumps(primitive(mixed)[1].rows[0]) == json.dumps([float(v) for v in mixed] if n > 1 else [1])
