"""One rule per field: the constructors refuse what the file readers refuse (README, "Number rules").

Every numeric field of the stream and memory-model records is given a bool, a string, ``None``,
NaN, infinity and an integer past float range, and a whole-number field also ``1.5``. Each call
either raises ``ValueError`` naming the field, or is accepted under a rule that README states:
``ACCEPTED`` lists those cases.
"""

import numpy as np
import pytest

from warpsim.memperf import CacheModel, L3Config, MemoryLevelSpec, SpecInvalid, TrainingFlowSpec, simulate_l3
from warpsim.rules import real, whole
from warpsim.streams import EngineModel, EventRecord, OpKind, StreamOp

BIG = 10**400
VALUES = [True, "3", None, float("nan"), float("inf"), BIG]

# record: (valid keyword arguments, whole-number fields, other numeric fields)
RECORDS = {
    StreamOp: ({"id": "a", "stream_id": 0, "kind": "kernel", "duration": 1}, ["stream_id"], ["duration"]),
    EventRecord: ({"event_id": "e", "stream_id": 0, "position": 0}, ["stream_id", "position"], []),
    EngineModel: ({}, ["copy_engines_h2d", "copy_engines_d2h", "compute_engines"], []),
    MemoryLevelSpec: (
        {"name": "RAM", "latency": 1, "bandwidth": 1, "capacity": 1}, [], ["latency", "bandwidth", "capacity"]),
    CacheModel: ({"capacity_lines": 4}, [], ["capacity_lines"]),
    L3Config: ({"total_lines": 4, "cores": 2, "policy": "static"}, ["total_lines", "cores"], []),
    TrainingFlowSpec: (
        {"dataset_bytes": 4096, "batch_bytes": 1024, "epochs": 2},
        ["dataset_bytes", "batch_bytes", "epochs"],
        ["vram_capacity", "ram_capacity"],
    ),
}

# (record, field, repr of the value) accepted, each under its README rule: a whole number is an exact int
# of any size unless its field has a bound; a level's bandwidth and capacity may be infinite; a cache's
# capacity is any non-negative number, compared exactly; a training flow's missing capacity is its level's.
ACCEPTED = {
    (StreamOp, "stream_id", repr(BIG)),
    (EventRecord, "stream_id", repr(BIG)),
    (EventRecord, "position", repr(BIG)),
    (L3Config, "total_lines", repr(BIG)),
    (L3Config, "cores", repr(BIG)),
    (MemoryLevelSpec, "bandwidth", "inf"),
    (MemoryLevelSpec, "capacity", "inf"),
    (CacheModel, "capacity_lines", "inf"),
    (CacheModel, "capacity_lines", repr(BIG)),
    (TrainingFlowSpec, "vram_capacity", "None"),
    (TrainingFlowSpec, "ram_capacity", "None"),
}
# A NaN level parameter fails the level's positivity test, whose message names the level, not the field.
LEVEL_WIDE = {(MemoryLevelSpec, "nan"): "level RAM: parameters must be positive"}

CASES = [
    (record, name, value)
    for record, (_, wholes, others) in RECORDS.items()
    for name in wholes + others
    for value in VALUES + [1.5] * (name in wholes)
]


@pytest.mark.parametrize(
    "record, name, value", CASES, ids=[f"{r.__name__}.{n}={str(v)[:8]}" for r, n, v in CASES]
)
def test_a_constructor_refuses_what_a_file_reader_refuses(record, name, value):
    arguments, wholes, _ = RECORDS[record]
    arguments = {**arguments, name: value}
    if (record, name, repr(value)) in ACCEPTED:
        built = record(**arguments)
        assert name not in wholes or type(getattr(built, name)) is int
        return
    with pytest.raises(ValueError) as caught:
        record(**arguments)
    assert LEVEL_WIDE.get((record, repr(value)), name) in str(caught.value)


def test_whole_floats_and_numpy_integers_are_ints():
    op = StreamOp("a", 2.0, OpKind.KERNEL, 1)
    event = EventRecord("e", np.int64(2), 0.0)
    cfg = L3Config(4.0, 2.0, "static")
    fields = (op.stream_id, event.stream_id, event.position, cfg.total_lines, cfg.cores)
    assert fields == (2, 2, 0, 4, 2) and {type(f) for f in fields} == {int}
    assert simulate_l3([[1, 2, 1], [3]], cfg) == [(1, 2), (0, 1)]


@pytest.mark.parametrize("build, message", [
    (lambda: StreamOp(1, 0, OpKind.KERNEL, 1), "op id must be a string, got 1"),
    (lambda: EventRecord(1, 0, 0), "event id must be a string, got 1"),
])
def test_ids_are_strings(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_the_rules_raise_the_callers_error_with_its_label():
    assert (whole("n", 4.0), whole("n", np.int32(4)), real("x", 3), real("x", np.float32(0.5))) == (4, 4, 3.0, 0.5)
    assert type(whole("n", 4.0)) is int and type(real("x", 3)) is float
    with pytest.raises(SpecInvalid, match=r"^epochs must be a whole number, got 2\.9$"):
        whole("epochs", 2.9, SpecInvalid)
    with pytest.raises(SpecInvalid, match=r"^hierarchy\[1\] latency must be a number, got None$"):
        real("hierarchy[1] latency", None, SpecInvalid)
    with pytest.raises(ValueError, match=rf"^x must be within float range, got {BIG}$"):
        real("x", BIG)
