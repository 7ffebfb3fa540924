"""The scenario loader as it stood before its one-pass rewrite, kept verbatim as a reference.

``warpsim.streams.load_scenario`` must build the same ops, events and engines from
any parsed JSON, or raise the same exception with the same message. One difference
is allowed: an op duration that is an integer past float range makes this
reference fail with ``OverflowError``, where the loader names the field.
"""

import numbers
from typing import Any

from warpsim.streams import MAX_ENGINES, EngineModel, EventRecord, OpKind, StreamOp


# The number predicates of ``warpsim.memperf`` that this loader called, copied so that a change to
# ``warpsim.rules`` shows up as a disagreement with the reference instead of changing both sides.
def _is_number(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_whole(value: Any) -> bool:
    """A number without a fractional part; a plain int, the common case, skips the costlier ABC checks."""
    return type(value) is int or (
        _is_number(value) and (isinstance(value, numbers.Integral) or float(value).is_integer()))


def load_scenario_reference(data: Any) -> tuple[list[StreamOp], list[EventRecord], EngineModel]:
    """Build a scenario from its parsed JSON: {"engines": {...}, "ops": [...], "events": [...]}."""
    if not isinstance(data, dict):
        raise ValueError("scenario must be a JSON object")

    def fail(where: str, msg: str):
        raise ValueError(f"scenario field {where}: {msg}")

    def whole(where: str, value: Any) -> int:
        if not _is_whole(value):  # by the rule of memflow's sizes
            fail(where, f"must be a whole number, got {value!r}")
        return int(value)

    def entries(key: str) -> list[dict]:
        items = data.get(key, [])
        if not isinstance(items, list):
            fail(key, f"must be a list, got {items!r}")
        for i, raw in enumerate(items):
            if not isinstance(raw, dict):
                fail(f"{key}[{i}]", f"must be an object, got {raw!r}")
        return items

    eng = data.get("engines", {})
    if not isinstance(eng, dict):
        fail("engines", f"must be an object, got {eng!r}")
    counts = {key: whole(f"engines.{key}", eng.get(key, 1)) for key in ("copy_h2d", "copy_d2h", "compute")}
    for key, count in counts.items():
        if not 0 <= count <= MAX_ENGINES:
            bound = "must not be negative" if count < 0 else f"must be at most {MAX_ENGINES}"
            fail(f"engines.{key}", f"{bound}, got {eng[key]!r}")
    engines = EngineModel(*counts.values())
    ops: list[StreamOp] = []
    for i, raw in enumerate(entries("ops")):
        where = f"ops[{i}]"
        for key in ("id", "stream", "kind", "duration"):
            if key not in raw:
                fail(where, f"missing {key!r}")
        try:
            kind = OpKind(raw["kind"])
        except ValueError:
            fail(f"{where}.kind", f"unknown kind {raw['kind']!r}")
        if not _is_number(raw["duration"]):
            fail(f"{where}.duration", f"must be a number, got {raw['duration']!r}")
        waits_on = raw.get("waits_on", [])
        if not isinstance(waits_on, list):
            fail(f"{where}.waits_on", f"op {raw['id']!r} must wait on a list of event ids, got {waits_on!r}")
        ops.append(
            StreamOp(
                id=str(raw["id"]),
                stream_id=whole(f"{where}.stream", raw["stream"]),
                kind=kind,
                duration=float(raw["duration"]),
                waits_on=map(str, waits_on),  # ids are strings, as for ops and events
            )
        )
    events: list[EventRecord] = []
    for i, raw in enumerate(entries("events")):
        where = f"events[{i}]"
        for key in ("id", "stream", "after_index"):
            if key not in raw:
                fail(where, f"missing {key!r}")
        events.append(
            EventRecord(
                event_id=str(raw["id"]),
                stream_id=whole(f"{where}.stream", raw["stream"]),
                position=whole(f"{where}.after_index", raw["after_index"]),
            )
        )
    return ops, events, engines
