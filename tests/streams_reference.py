"""Frozen copy of the stream scheduler before it counted dependencies.

``_index_events``, ``simulate_timeline``, ``validate_schedule`` and
``_critical_path`` as they stood when ``simulate_timeline`` rescanned every
stream in every round and the critical path sorted an engine's ops at every
step. ``tests/test_streams_reference.py`` compares the current module with
them; do not edit them to follow it.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from warpsim.streams import (
    _POOL_NAMES,
    CyclicDependency,
    EngineModel,
    EventRecord,
    OpKind,
    Schedule,
    ScheduledOp,
    StreamOp,
    UnknownEvent,
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
