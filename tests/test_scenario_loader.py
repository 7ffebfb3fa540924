"""The scenario loader against its verbatim predecessor, and the footprint of a loaded program.

``load_scenario`` checks each field once, exact types first. On any parsed JSON it must
agree with ``scenario_reference.load_scenario_reference``: equal ops, events and engines,
or the same exception type and message. The one allowed difference is an op duration
that is an integer past float range, where the reference fails with ``OverflowError``.

Ops are slotted records, and every op that waits on nothing holds one shared empty set,
so a loaded op retains about 130 bytes, not the 370 of a dict-backed op with its own
empty set.
"""

import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenario_reference import load_scenario_reference
from warpsim.streams import OpKind, StreamOp, load_scenario

MISSING = object()  # a key left out of its object
KINDS = [kind.value for kind in OpKind]

scalars = st.one_of(
    st.integers(-(2**63) - 2, -(2**63) + 2),
    st.integers(2**63 - 2, 2**63 + 2),
    st.sampled_from([10**400, -(10**400)]),
    st.integers(-3, 70000),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.sampled_from(KINDS),
)
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def mostly(plausible, other=values):
    """Nine times in ten a value the loader accepts, so that draws reach later fields; else ``other``."""
    return st.integers(0, 9).flatmap(lambda pick: plausible if pick else other)


def entry(**fields):
    """An object of ``fields``, each now and then left out or given any JSON value."""
    drawn = {key: mostly(plausible, values | st.just(MISSING)) for key, plausible in fields.items()}
    return st.fixed_dictionaries(drawn).map(lambda raw: {key: v for key, v in raw.items() if v is not MISSING})


small = st.integers(0, 3) | st.sampled_from([0.0, 1.0, 2.0])
ops = entry(
    id=st.text(max_size=2) | st.integers(0, 5),
    stream=small,
    kind=st.sampled_from(KINDS),
    duration=st.integers(0, 10) | st.floats(0, 10),
    waits_on=st.lists(st.text(max_size=1) | st.integers(0, 3), max_size=2),
)
events = entry(id=st.text(max_size=1) | st.integers(0, 3), stream=small, after_index=small)
engines = entry(copy_h2d=small, copy_d2h=small, compute=small)
scenarios = mostly(
    entry(engines=engines, ops=st.lists(mostly(ops), max_size=4), events=st.lists(mostly(events), max_size=3))
)


def outcome(load, data):
    try:
        ops, events, engines = load(data)
    except Exception as e:  # the reference's own failures are compared, not raised
        return type(e), str(e)
    op_rows = [(op.id, op.stream_id, type(op.stream_id), op.kind, op.duration, type(op.duration), op.waits_on)
               for op in ops]
    event_rows = [(ev.event_id, ev.stream_id, type(ev.stream_id), ev.position, type(ev.position)) for ev in events]
    return op_rows, event_rows, engines


@settings(max_examples=500, deadline=None)
@given(scenarios)
@example({"ops": [{"id": "a", "stream": 1, "kind": "h2d", "duration": 10**400}]})
@example({"ops": [{"id": "a", "stream": 1.5, "kind": "h2d", "duration": -(10**400)}]})
@example({"ops": [{"id": "a", "stream": 1, "kind": {"h2d": 1}, "duration": 1}]})
@example({"ops": [{"id": "a", "stream": True, "kind": "h2d", "duration": 1}]})
@example({"ops": [{"id": "a", "stream": 1, "kind": "h2d", "duration": True}]})
def test_the_loader_agrees_with_its_reference(data):
    want, got = outcome(load_scenario_reference, data), outcome(load_scenario, data)
    if want[0] is OverflowError:  # float() of an integer duration past float range
        assert got[0] is ValueError and "].duration: must be within float range, got " in got[1]
    else:
        assert got == want


def scenario(n_ops, n_streams=8):
    """Ops in ``n_streams`` streams; every tenth op records an event that the next op of another stream awaits."""
    ops, events = [], []
    for i in range(n_ops):
        op = {"id": f"op{i}", "stream": i % n_streams, "kind": KINDS[i % 3], "duration": 1 + i % 20}
        if i % 10 == 1:
            op["waits_on"] = [f"ev{i - 1}"]
        ops.append(op)
        if i % 10 == 0:
            events.append({"id": f"ev{i}", "stream": i % n_streams, "after_index": i // n_streams})
    return {"ops": ops, "events": events}


def test_ops_that_wait_on_nothing_share_one_empty_set():
    data = scenario(50)
    data["ops"][2]["waits_on"] = []
    ops, _, _ = load_scenario(data)
    idle = [op.waits_on for op in ops if not op.waits_on]
    assert len(idle) == 45 and len({id(w) for w in idle}) == 1
    direct = [StreamOp("a", 1, OpKind.KERNEL, 1), StreamOp("b", 1, OpKind.KERNEL, 1, waits_on=set())]
    assert {id(op.waits_on) for op in direct} == {id(idle[0])}


def test_a_loaded_op_retains_under_200_bytes():
    n = 10_000
    data = scenario(n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_scenario(data)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(loaded[0]) == n
    assert retained / n < 200, f"{retained / n:.0f} bytes per op"
