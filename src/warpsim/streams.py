"""Host-side virtual timeline: streams scheduled onto copy and compute engines.

Operations issue in order within a stream; different streams overlap whenever
engines are free and event dependencies allow. Scheduling is list scheduling:
at each instant, completions are retired, then rounds dispatch ready ops to
the lowest idle engine of their kind in ascending (stream id, issue index)
order until a round dispatches nothing, which makes the result deterministic.
An op that ends where it starts never holds its engine.
"""

from __future__ import annotations

import bisect
import heapq
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Sequence, Union


class OpKind(str, Enum):
    COPY_H2D = "h2d"
    COPY_D2H = "d2h"
    KERNEL = "kernel"


class CyclicDependency(Exception):
    pass


class UnknownEvent(Exception):
    pass


@dataclass(frozen=True)
class StreamOp:
    id: str
    stream_id: int
    kind: OpKind
    duration: float
    waits_on: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError(f"op {self.id!r} has negative duration {self.duration}")
        if not math.isfinite(self.duration):
            raise ValueError(f"op {self.id!r} has non-finite duration {self.duration}")
        if isinstance(self.waits_on, str):  # frozenset("ev") would wait on "e" and "v"
            raise ValueError(f"op {self.id!r} waits_on {self.waits_on!r} is a string, not a collection of event ids")
        if not isinstance(self.kind, OpKind):  # converting a member again costs more than the checks above
            object.__setattr__(self, "kind", OpKind(self.kind))
        object.__setattr__(self, "waits_on", frozenset(self.waits_on))


@dataclass(frozen=True)
class EventRecord:
    """Fires exactly when the op at ``position`` of its stream completes."""

    event_id: str
    stream_id: int
    position: int


@dataclass(frozen=True)
class EngineModel:
    copy_engines_h2d: int = 1
    copy_engines_d2h: int = 1
    compute_engines: int = 1

    def pool_sizes(self) -> dict[OpKind, int]:
        return {
            OpKind.COPY_H2D: self.copy_engines_h2d,
            OpKind.COPY_D2H: self.copy_engines_d2h,
            OpKind.KERNEL: self.compute_engines,
        }


_POOL_NAMES = {OpKind.COPY_H2D: "h2d", OpKind.COPY_D2H: "d2h", OpKind.KERNEL: "compute"}


@dataclass(frozen=True)
class ScheduledOp:
    op: StreamOp
    engine: str
    start: float
    end: float


@dataclass
class Schedule:
    entries: dict[str, ScheduledOp]
    makespan: float
    engine_names: list[str]

    def to_json(self) -> dict[str, Any]:
        return {
            "makespan": self.makespan,
            "ops": [
                {
                    "id": s.op.id,
                    "stream": s.op.stream_id,
                    "kind": s.op.kind.value,
                    "engine": s.engine,
                    "start": s.start,
                    "end": s.end,
                }
                for s in self.entries.values()
            ],
        }


def duration_from_metrics(
    report,
    w_transactions: float = 1.0,
    w_steps: float = 0.25,
    w_conflicts: float = 1.0,
) -> float:
    """Derive a kernel-op duration from a MetricsReport with linear weights."""
    return (
        w_transactions * report.global_transactions
        + w_steps * report.thread_steps
        + w_conflicts * report.bank_conflict_extra_cycles
    )


def _program(ops: Sequence[StreamOp], events: Sequence[EventRecord]) -> tuple[list[int], dict[str, int]]:
    """Validate a program; return each op's stream predecessor (-1 for a
    stream's first op) and each event's anchor, both as indices into ``ops``."""
    index: dict[str, int] = {}
    by_stream: dict[int, list[int]] = {}
    for i, op in enumerate(ops):
        if index.setdefault(op.id, i) != i:
            raise ValueError(f"duplicate op id {op.id!r}")
        by_stream.setdefault(op.stream_id, []).append(i)
    pred = [-1] * len(ops)
    for stream in by_stream.values():
        for p, i in zip(stream, stream[1:]):
            pred[i] = p
    anchor: dict[str, int] = {}
    for ev in events:
        if ev.event_id in anchor:
            raise ValueError(f"duplicate event id {ev.event_id!r}")
        stream = by_stream.get(ev.stream_id, [])
        if not (0 <= ev.position < len(stream)):
            raise UnknownEvent(
                f"event {ev.event_id!r} anchored after position {ev.position} "
                f"of stream {ev.stream_id}, which has {len(stream)} ops"
            )
        anchor[ev.event_id] = stream[ev.position]
    for i, op in enumerate(ops):
        for ev_id in sorted(op.waits_on):
            if ev_id not in anchor:
                raise UnknownEvent(f"op {op.id!r} waits on unknown event {ev_id!r}")
            if anchor[ev_id] >= i:
                raise CyclicDependency(
                    f"op {op.id!r} waits on event {ev_id!r} recorded later in program order"
                )
    return pred, anchor


def simulate_timeline(
    ops: Sequence[StreamOp],
    events: Sequence[EventRecord] = (),
    engines: EngineModel = EngineModel(),
) -> Schedule:
    """Deterministic list schedule of the program; makespan = last end time."""
    ops = list(ops)
    pred, anchor = _program(ops, events)
    sizes = engines.pool_sizes()
    for kind, size in sizes.items():
        if size <= 0 and any(op.kind == kind for op in ops):
            raise ValueError(f"no engine available for kind {kind.value!r}")

    # An op waits for its stream predecessor, the anchors of the events it
    # awaits and the program's start. Only awaited anchors get a list of
    # waiters: a list per op would be one more object for the collector.
    succ = [-1] * len(ops)
    waiters: dict[int, list[int]] = {}
    blocked = [1 + len(op.waits_on) + (p >= 0) for op, p in zip(ops, pred)]
    for i, op in enumerate(ops):
        if pred[i] >= 0:
            succ[pred[i]] = i
        for ev_id in op.waits_on:
            waiters.setdefault(anchor[ev_id], []).append(i)
    ready: dict[OpKind, list[tuple[int, int]]] = {kind: [] for kind in sizes}

    def unblock(i: int) -> None:
        blocked[i] -= 1
        if not blocked[i]:
            heapq.heappush(ready[ops[i].kind], (ops[i].stream_id, i))

    for i in range(len(ops)):
        unblock(i)
    idle = {kind: list(range(size)) for kind, size in sizes.items()}
    running: list[tuple[float, int, int]] = []  # (end, op index, engine held or -1)
    entries: dict[int, ScheduledOp] = {}
    t = 0.0
    while len(entries) < len(ops):
        while running and running[0][0] <= t:
            _, i, k = heapq.heappop(running)
            if k >= 0:
                heapq.heappush(idle[ops[i].kind], k)
            if succ[i] >= 0:
                unblock(succ[i])
            for j in waiters.get(i, ()):
                unblock(j)
        scheduled = len(entries)
        for kind, queue in ready.items():
            free = idle[kind]
            while queue and free:
                i = heapq.heappop(queue)[1]
                end = t + ops[i].duration
                k = heapq.heappop(free) if end > t else free[0]
                entries[i] = ScheduledOp(ops[i], f"{_POOL_NAMES[kind]}#{k}", t, end)
                heapq.heappush(running, (end, i, k if end > t else -1))
        if len(entries) == scheduled:
            t = running[0][0]

    makespan = max((s.end for s in entries.values()), default=0.0)
    engine_names = [f"{_POOL_NAMES[kind]}#{k}" for kind, size in sizes.items() for k in range(size)]
    return Schedule({op.id: entries[i] for i, op in enumerate(ops)}, makespan, engine_names)


def validate_schedule(
    schedule: Schedule,
    ops: Sequence[StreamOp],
    events: Sequence[EventRecord] = (),
) -> None:
    """Check streams (in order of first appearance), engines, then event waits; raises ValueError."""
    pred, anchor = _program(ops, events)
    entries = [schedule.entries[op.id] for op in ops]
    first = {op.stream_id: i for i, op in reversed(list(enumerate(ops)))}  # each stream's first op
    for i in sorted(range(len(ops)), key=lambda i: first[ops[i].stream_id]):
        p = pred[i]
        if p >= 0 and entries[i].start < entries[p].end:
            raise ValueError(
                f"stream {ops[i].stream_id}: {entries[i].op.id!r} starts before {entries[p].op.id!r} ends"
            )
    by_engine: dict[str, list[ScheduledOp]] = {}
    for s in entries:
        by_engine.setdefault(s.engine, []).append(s)
    for engine, on_engine in by_engine.items():
        on_engine.sort(key=lambda s: (s.start, s.end, s.op.id))
        for prev, cur in zip(on_engine, on_engine[1:]):
            # Conflict only when the intersection has positive length; a
            # zero-duration op occupies no engine time.
            if min(prev.end, cur.end) > max(prev.start, cur.start):
                raise ValueError(f"engine {engine}: {cur.op.id!r} overlaps {prev.op.id!r}")
    for i, op in enumerate(ops):
        for ev_id in op.waits_on:
            if entries[i].start < entries[anchor[ev_id]].end:
                raise ValueError(
                    f"op {op.id!r} starts before awaited event {ev_id!r} fires"
                )


@dataclass
class MakespanReport:
    makespan: float
    serialized_total: float
    overlap_savings: float
    utilization: dict[str, float]
    critical_path: list[str]

    def to_json(self) -> dict[str, Any]:
        return {
            "makespan": self.makespan,
            "serialized_total": self.serialized_total,
            "overlap_savings": self.overlap_savings,
            "utilization": dict(sorted(self.utilization.items())),
            "critical_path": list(self.critical_path),
        }


def makespan_report(
    schedule: Schedule,
    ops: Sequence[StreamOp] = (),
    events: Sequence[EventRecord] = (),
) -> MakespanReport:
    """Utilization, critical path, and overlap savings for a schedule."""
    entries = list(schedule.entries.values())
    serialized = sum(s.op.duration for s in entries)
    busy: dict[str, float] = {name: 0.0 for name in schedule.engine_names}
    for s in entries:
        busy[s.engine] = busy.get(s.engine, 0.0) + (s.end - s.start)
    makespan = schedule.makespan
    utilization = {
        name: (b / makespan if makespan > 0 else 0.0) for name, b in busy.items()
    }
    return MakespanReport(
        makespan=makespan,
        serialized_total=serialized,
        overlap_savings=serialized - makespan,
        utilization=utilization,
        critical_path=_critical_path(schedule, list(ops), list(events)),
    )


def _critical_path(
    schedule: Schedule, ops: list[StreamOp], events: list[EventRecord]
) -> list[str]:
    pred, anchor = _program(ops, events) if ops else ([], {})
    entries = schedule.entries
    missing = next((op.id for op in ops if op.id not in entries), None)
    if missing is not None:
        raise ValueError(f"schedule has no entry for op {missing!r}")
    if not schedule.entries:
        return []
    stream_pred = {ops[i].id: ops[p].id for i, p in enumerate(pred) if p >= 0}
    # The ops ending on one engine at one time sit together in this order.
    ends = sorted(schedule.entries.values(), key=lambda s: (s.engine, s.end, s.op.id))
    skip: dict[int, int] = {}  # run start -> where to resume: ops before it are on the path

    # Ops that may end where ``cur`` starts, in tie-break order: the stream
    # predecessor, awaited anchors by event id, then same-engine ops by op id.
    def touching(cur: ScheduledOp):
        if cur.op.id in stream_pred:
            yield stream_pred[cur.op.id]
        for ev_id in sorted(cur.op.waits_on):
            if ev_id in anchor:
                yield ops[anchor[ev_id]].id
        run = bisect.bisect_left(ends, (cur.engine, cur.start), key=lambda s: (s.engine, s.end))
        pos = skip.get(run, run)
        while pos < len(ends) and (ends[pos].engine, ends[pos].end) == (cur.engine, cur.start):
            skip[run] = pos
            yield ends[pos].op.id
            pos += 1

    cur = max(schedule.entries.values(), key=lambda s: (s.end, s.op.id))
    # A zero-duration op ends where it starts, so it can touch itself or an
    # op already on the path; skipping those bounds the walk by the op count.
    on_path = {cur.op.id: None}  # in walk order, latest first
    while cur.start > 0:
        op_id = next((c for c in touching(cur) if c not in on_path and schedule.entries[c].end == cur.start), None)
        if op_id is None:
            break
        cur = schedule.entries[op_id]
        on_path[op_id] = None
    return list(on_path)[::-1]


# ----------------------------------------------------------------------
# scenario files and rendering

def load_scenario(source: Union[str, Path, dict]) -> tuple[list[StreamOp], list[EventRecord], EngineModel]:
    """Parse a scenario: {"engines": {...}, "ops": [...], "events": [...]}."""
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = source
    if not isinstance(data, dict):
        raise ValueError("scenario must be a JSON object")

    def fail(where: str, msg: str):
        raise ValueError(f"scenario field {where}: {msg}")

    eng = data.get("engines", {})
    engines = EngineModel(
        copy_engines_h2d=int(eng.get("copy_h2d", 1)),
        copy_engines_d2h=int(eng.get("copy_d2h", 1)),
        compute_engines=int(eng.get("compute", 1)),
    )
    ops: list[StreamOp] = []
    for i, raw in enumerate(data.get("ops", [])):
        where = f"ops[{i}]"
        for key in ("id", "stream", "kind", "duration"):
            if key not in raw:
                fail(where, f"missing {key!r}")
        try:
            kind = OpKind(raw["kind"])
        except ValueError:
            fail(f"{where}.kind", f"unknown kind {raw['kind']!r}")
        waits_on = raw.get("waits_on", [])
        if not isinstance(waits_on, list):
            fail(f"{where}.waits_on", f"op {raw['id']!r} must wait on a list of event ids, got {waits_on!r}")
        ops.append(
            StreamOp(
                id=str(raw["id"]),
                stream_id=int(raw["stream"]),
                kind=kind,
                duration=float(raw["duration"]),
                waits_on=map(str, waits_on),  # ids are strings, as for ops and events
            )
        )
    events: list[EventRecord] = []
    for i, raw in enumerate(data.get("events", [])):
        where = f"events[{i}]"
        for key in ("id", "stream", "after_index"):
            if key not in raw:
                fail(where, f"missing {key!r}")
        events.append(
            EventRecord(
                event_id=str(raw["id"]),
                stream_id=int(raw["stream"]),
                position=int(raw["after_index"]),
            )
        )
    return ops, events, engines


def render_gantt(schedule: Schedule, width: int = 60) -> str:
    """Text Gantt, one row per engine, time scaled to ``width`` columns."""
    lines = []
    span = schedule.makespan or 1.0
    scale = width / span
    by_engine: dict[str, list[ScheduledOp]] = {name: [] for name in schedule.engine_names}
    for s in schedule.entries.values():
        by_engine.setdefault(s.engine, []).append(s)
    label_w = max((len(n) for n in by_engine), default=0)
    for name in by_engine:
        row = [" "] * (width + 1)
        for s in sorted(by_engine[name], key=lambda s: s.start):
            a = int(round(s.start * scale))
            b = max(a + 1, int(round(s.end * scale)))
            for c in range(a, min(b, width + 1)):
                row[c] = "="
            tag = s.op.id[: max(0, b - a)]
            row[a : a + len(tag)] = tag
        lines.append(f"{name.ljust(label_w)} |{''.join(row)}")
    lines.append(f"makespan: {schedule.makespan}")
    return "\n".join(lines)
