"""A brute-force oracle for the stream scheduler, written from its stated rules.

Each rule of README "Semantics notes" and of the ``warpsim.streams`` docstrings
is one naive loop over the whole program, with no index, heap or cache. Only
data classes and exceptions come from ``warpsim.streams``.
"""

import math

from warpsim.streams import CyclicDependency, EngineModel, OpKind, Schedule, ScheduledOp, UnknownEvent


def stream_of(ops, stream_id):
    return [op for op in ops if op.stream_id == stream_id]


def predecessor(ops, op_id):
    """The id of the op issued just before ``op_id`` on its stream, or None."""
    for i, op in enumerate(ops):
        if op.id == op_id:
            before = stream_of(ops[:i], op.stream_id)
            return before[-1].id if before else None
    return None


def check_program(ops, events):
    """Raise what the module raises for a broken program; return each event's anchor op id."""
    for i, op in enumerate(ops):
        if any(other.id == op.id for other in ops[:i]):
            raise ValueError(f"duplicate op id {op.id!r}")
    anchor = {}
    for ev in events:
        if ev.event_id in anchor:
            raise ValueError(f"duplicate event id {ev.event_id!r}")
        stream = stream_of(ops, ev.stream_id)
        if not 0 <= ev.position < len(stream):
            raise UnknownEvent(
                f"event {ev.event_id!r} anchored after position {ev.position} "
                f"of stream {ev.stream_id}, which has {len(stream)} ops"
            )
        anchor[ev.event_id] = stream[ev.position].id
    ids = [op.id for op in ops]
    for i, op in enumerate(ops):
        for ev_id in sorted(op.waits_on):
            if ev_id not in anchor:
                raise UnknownEvent(f"op {op.id!r} waits on unknown event {ev_id!r}")
            if ids.index(anchor[ev_id]) >= i:
                raise CyclicDependency(f"op {op.id!r} waits on event {ev_id!r} recorded later in program order")
    return anchor


def schedule(ops, events=(), engines=EngineModel()):
    """List-schedule the program one instant and one round at a time."""
    ops = list(ops)
    anchor = check_program(ops, events)
    pools = {"h2d": engines.copy_engines_h2d, "d2h": engines.copy_engines_d2h, "compute": engines.compute_engines}
    pool_of = {OpKind.COPY_H2D: "h2d", OpKind.COPY_D2H: "d2h", OpKind.KERNEL: "compute"}
    for kind, pool in pool_of.items():
        if pools[pool] <= 0 and any(op.kind == kind for op in ops):
            raise ValueError(f"no engine available for kind {kind.value!r}")
    total = sum(op.duration for op in ops)
    if not math.isfinite(total):
        raise ValueError(f"the ops last {total} time units in all, which is not finite")
    entries = {}
    t = 0.0
    while len(entries) < len(ops):
        done = {op_id for op_id, s in entries.items() if s.end <= t}  # retired at this instant
        started = False
        ready = [
            (op.stream_id, i) for i, op in enumerate(ops)
            if op.id not in entries
            and predecessor(ops, op.id) in done | {None}
            and all(anchor[ev_id] in done for ev_id in op.waits_on)
        ]
        for _, i in sorted(ready):
            op = ops[i]
            busy = {s.engine for s in entries.values() if s.end > t}  # an op that ends where it starts holds none
            idle = [k for k in range(pools[pool_of[op.kind]]) if f"{pool_of[op.kind]}#{k}" not in busy]
            if idle:
                entries[op.id] = ScheduledOp(op, f"{pool_of[op.kind]}#{idle[0]}", t, t + op.duration)
                started = True
        if not started:
            t = min(s.end for s in entries.values() if s.end > t)
    makespan = max((s.end for s in entries.values()), default=0.0)
    names = [f"{pool}#{k}" for pool, size in pools.items() for k in range(size)]
    return Schedule({op.id: entries[op.id] for op in ops}, makespan, names)


def check_entries(schedule, ops):
    """Raise what the module raises for the first op of the program that the schedule lacks."""
    for op in ops:
        if op.id not in schedule.entries:
            raise ValueError(f"schedule has no entry for op {op.id!r}")


def violations(schedule, ops, events=()):
    """Every broken rule of a schedule: streams in order of first appearance, engines, then awaited events."""
    anchor = check_program(ops, events)
    check_entries(schedule, ops)
    at = {op.id: schedule.entries[op.id] for op in ops}
    found = []
    for stream_id in dict.fromkeys(op.stream_id for op in ops):
        stream = stream_of(ops, stream_id)
        for prev, cur in zip(stream, stream[1:]):
            if at[cur.id].start < at[prev.id].end:
                found.append(f"stream {stream_id}: {cur.id!r} starts before {prev.id!r} ends")
    for engine in dict.fromkeys(s.engine for s in at.values()):
        on_engine = sorted((s for s in at.values() if s.engine == engine), key=lambda s: (s.start, s.end, s.op.id))
        for j, cur in enumerate(on_engine):
            for prev in on_engine[:j]:
                if min(prev.end, cur.end) > max(prev.start, cur.start):  # an intersection of positive length
                    found.append(f"engine {engine}: {cur.op.id!r} overlaps {prev.op.id!r}")
    for op in ops:
        for ev_id in sorted(op.waits_on):
            if at[op.id].start < at[anchor[ev_id]].end:
                found.append(f"op {op.id!r} starts before awaited event {ev_id!r} fires")
    return found


def critical_path(schedule, ops=(), events=()):
    """Walk back from the latest end through ops that end where the current op starts."""
    ops = list(ops)
    anchor = check_program(ops, events) if ops else {}
    check_entries(schedule, ops)
    entries = schedule.entries
    if not entries:
        return []
    cur = max(entries.values(), key=lambda s: (s.end, s.op.id))
    path = [cur.op.id]
    while cur.start > 0:
        candidates = [predecessor(ops, cur.op.id)]
        candidates += [anchor.get(ev_id) for ev_id in sorted(cur.op.waits_on)]
        candidates += sorted(s.op.id for s in entries.values() if s.engine == cur.engine and s.end == cur.start)
        touching = [c for c in candidates if c is not None and c not in path and entries[c].end == cur.start]
        if not touching:
            break
        cur = entries[touching[0]]
        path.append(cur.op.id)
    return path[::-1]
