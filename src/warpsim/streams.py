"""Host-side virtual timeline: streams scheduled onto copy and compute engines.

Operations issue in order within a stream; different streams overlap whenever
engines are free and event dependencies allow. Scheduling is list scheduling:
at each instant, ready ops dispatch to free engines of their kind in
ascending (stream id, issue index) order, which makes the result
deterministic.
"""

from __future__ import annotations

import heapq
import json
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


def _index_events(
    ops: Sequence[StreamOp], events: Sequence[EventRecord]
) -> dict[str, str]:
    """Map event id -> anchor op id; validates anchors and wait edges."""
    by_stream: dict[int, list[StreamOp]] = {}
    for op in ops:
        by_stream.setdefault(op.stream_id, []).append(op)
    anchor: dict[str, str] = {}
    for ev in events:
        if ev.event_id in anchor:
            raise ValueError(f"duplicate event id {ev.event_id!r}")
        stream = by_stream.get(ev.stream_id, [])
        if not (0 <= ev.position < len(stream)):
            raise UnknownEvent(
                f"event {ev.event_id!r} anchored after position {ev.position} "
                f"of stream {ev.stream_id}, which has {len(stream)} ops"
            )
        anchor[ev.event_id] = stream[ev.position].id
    program_index = {op.id: i for i, op in enumerate(ops)}
    for i, op in enumerate(ops):
        for ev_id in sorted(op.waits_on):
            if ev_id not in anchor:
                raise UnknownEvent(f"op {op.id!r} waits on unknown event {ev_id!r}")
            if program_index[anchor[ev_id]] >= i:
                raise CyclicDependency(
                    f"op {op.id!r} waits on event {ev_id!r} recorded later in program order"
                )
    return anchor


def simulate_timeline(
    ops: Sequence[StreamOp],
    events: Sequence[EventRecord] = (),
    engines: EngineModel = EngineModel(),
) -> Schedule:
    """Deterministic list schedule of the program; makespan = last end time."""
    ops = list(ops)
    seen: set[str] = set()
    for op in ops:
        if op.id in seen:
            raise ValueError(f"duplicate op id {op.id!r}")
        seen.add(op.id)
    anchor = _index_events(ops, events)
    events_by_anchor: dict[str, list[str]] = {}
    for ev_id, op_id in anchor.items():
        events_by_anchor.setdefault(op_id, []).append(ev_id)

    pools: dict[OpKind, list[float]] = {
        kind: [0.0] * max(0, count) for kind, count in engines.pool_sizes().items()
    }
    for kind, pool in pools.items():
        if not pool and any(op.kind == kind for op in ops):
            raise ValueError(f"no engine available for kind {kind.value!r}")

    queues: dict[int, list[StreamOp]] = {}
    for op in ops:
        queues.setdefault(op.stream_id, []).append(op)
    heads = {sid: 0 for sid in queues}
    stream_free = {sid: 0.0 for sid in queues}  # end of the stream's last dispatched op

    fired: dict[str, float] = {}
    entries: dict[str, ScheduledOp] = {}
    running: list[tuple[float, int, str]] = []  # (end, seq, op_id)
    seq = 0
    remaining = len(ops)
    t = 0.0

    def fire_completions(now: float) -> None:
        while running and running[0][0] <= now:
            end, _, op_id = heapq.heappop(running)
            for ev_id in events_by_anchor.get(op_id, ()):
                fired[ev_id] = end

    while remaining:
        fire_completions(t)
        while True:
            dispatched = False
            for sid in sorted(queues):
                i = heads[sid]
                if i >= len(queues[sid]):
                    continue
                op = queues[sid][i]
                if stream_free[sid] > t:
                    continue
                if any(ev not in fired or fired[ev] > t for ev in op.waits_on):
                    continue
                pool = pools[op.kind]
                engine_idx = min(range(len(pool)), key=lambda k: (pool[k] > t, k))
                if pool[engine_idx] > t:
                    continue
                start, end = t, t + op.duration
                pool[engine_idx] = end
                heads[sid] = i + 1
                stream_free[sid] = end
                remaining -= 1
                entries[op.id] = ScheduledOp(
                    op, f"{_POOL_NAMES[op.kind]}#{engine_idx}", start, end
                )
                heapq.heappush(running, (end, seq, op.id))
                seq += 1
                dispatched = True
            if not dispatched:
                break
            fire_completions(t)
        if remaining:
            if not running:
                raise CyclicDependency("schedule stalled with pending operations")
            t = running[0][0]

    makespan = max((s.end for s in entries.values()), default=0.0)
    engine_names = [
        f"{_POOL_NAMES[kind]}#{i}" for kind, pool in pools.items() for i in range(len(pool))
    ]
    ordered = {op.id: entries[op.id] for op in ops}
    return Schedule(ordered, makespan, engine_names)


def validate_schedule(
    schedule: Schedule,
    ops: Sequence[StreamOp],
    events: Sequence[EventRecord] = (),
) -> None:
    """Check the three schedule invariant families; raises ValueError."""
    anchor = _index_events(list(ops), events)
    by_stream: dict[int, list[ScheduledOp]] = {}
    by_engine: dict[str, list[ScheduledOp]] = {}
    for op in ops:
        s = schedule.entries[op.id]
        by_stream.setdefault(op.stream_id, []).append(s)
        by_engine.setdefault(s.engine, []).append(s)
    for sid, entries in by_stream.items():
        for prev, cur in zip(entries, entries[1:]):
            if cur.start < prev.end:
                raise ValueError(
                    f"stream {sid}: {cur.op.id!r} starts before {prev.op.id!r} ends"
                )
    for engine, entries in by_engine.items():
        entries = sorted(entries, key=lambda s: (s.start, s.end, s.op.id))
        for prev, cur in zip(entries, entries[1:]):
            # Conflict only when the intersection has positive length; a
            # zero-duration op occupies no engine time.
            if min(prev.end, cur.end) > max(prev.start, cur.start):
                raise ValueError(f"engine {engine}: {cur.op.id!r} overlaps {prev.op.id!r}")
    for op in ops:
        for ev_id in op.waits_on:
            fire = schedule.entries[anchor[ev_id]].end
            if schedule.entries[op.id].start < fire:
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
    if not schedule.entries:
        return []
    anchor = _index_events(ops, events) if ops else {}
    stream_pred: dict[str, str] = {}
    last_in_stream: dict[int, str] = {}
    for op in ops:
        if op.stream_id in last_in_stream:
            stream_pred[op.id] = last_in_stream[op.stream_id]
        last_in_stream[op.stream_id] = op.id
    by_engine: dict[str, list[ScheduledOp]] = {}
    for s in schedule.entries.values():
        by_engine.setdefault(s.engine, []).append(s)

    cur = max(schedule.entries.values(), key=lambda s: (s.end, s.op.id))
    path = [cur.op.id]
    # A zero-duration op ends where it starts, so it can touch itself or an
    # op already on the path; skipping those bounds the walk by the op count.
    on_path = {cur.op.id}
    while cur.start > 0:
        candidates: list[str] = []
        pred = stream_pred.get(cur.op.id)
        if pred and schedule.entries[pred].end == cur.start:
            candidates.append(pred)
        for ev_id in sorted(cur.op.waits_on):
            anchor_id = anchor.get(ev_id)
            if anchor_id and schedule.entries[anchor_id].end == cur.start:
                candidates.append(anchor_id)
        for s in sorted(by_engine.get(cur.engine, []), key=lambda s: s.op.id):
            if s.end == cur.start:
                candidates.append(s.op.id)
        candidates = [c for c in candidates if c not in on_path]
        if not candidates:
            break
        cur = schedule.entries[candidates[0]]
        path.append(cur.op.id)
        on_path.add(cur.op.id)
    path.reverse()
    return path


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
        ops.append(
            StreamOp(
                id=str(raw["id"]),
                stream_id=int(raw["stream"]),
                kind=kind,
                duration=float(raw["duration"]),
                waits_on=frozenset(raw.get("waits_on", ())),
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
