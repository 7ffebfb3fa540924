"""Differential test of the stream scheduler against the brute-force oracle.

Seeded random programs, corrupted programs and perturbed schedules go
through ``warpsim.streams`` and ``streams_oracle``; schedules, critical
paths, verdicts, exception types and messages must match.
"""

import json
import random
from collections import Counter

import pytest
import streams_oracle as oracle

from warpsim import streams
from warpsim.streams import EngineModel, EventRecord, OpKind, Schedule, ScheduledOp, StreamOp

KINDS = list(OpKind)


def random_duration(rng):
    r = rng.random()
    if r < 0.2:
        return rng.choice([0, 0.0])
    if r < 0.25:
        return 1e-18  # ends where it starts once the clock is past zero
    if r < 0.6:
        return rng.randint(1, 12)
    return round(rng.uniform(0, 10), rng.choice([1, 3]))


def random_program(rng, max_ops):
    streams_used = rng.sample(range(-2, 12), rng.randint(1, 8))
    ops, events, length = [], [], {}
    for i in range(rng.randint(1, max_ops)):
        sid = rng.choice(streams_used)
        n_waits = min(len(events), rng.choice([0, 0, 0, 1, 1, 2, 3]))
        waits = {e.event_id for e in rng.sample(events, n_waits)}
        ops.append(StreamOp(f"op{i}", sid, rng.choice(KINDS), random_duration(rng), waits))
        length[sid] = length.get(sid, 0) + 1
        if rng.random() < 0.35:
            events.append(EventRecord(f"ev{len(events)}", sid, rng.randrange(length[sid])))
    engines = EngineModel(rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
    return ops, events, engines


def outcome(fn, *args):
    """What a call returns, a schedule as its JSON text, or the type and message of what it raises."""
    try:
        result = fn(*args)
    except Exception as e:
        return type(e).__name__, str(e)
    return json.dumps(result.to_json()) if isinstance(result, Schedule) else result


def report_path(schedule, ops=(), events=()):
    return streams.makespan_report(schedule, ops, events).critical_path


def oracle_validate(schedule, ops, events):
    """None, or the oracle's first violation raised as ``validate_schedule`` raises it."""
    found = oracle.violations(schedule, ops, events)
    if found:
        raise ValueError(found[0])


@pytest.mark.parametrize("seed", range(4))
def test_random_programs_match_the_oracle(seed):
    rng = random.Random(900 + seed)
    for _ in range(300):
        ops, events, engines = random_program(rng, rng.choice([6, 6, 6, 12, 30]))
        schedule = streams.simulate_timeline(ops, events, engines)
        want = oracle.schedule(ops, events, engines)
        assert outcome(lambda: schedule) == outcome(lambda: want), (ops, events, engines)
        assert schedule.engine_names == want.engine_names
        assert report_path(schedule, ops, events) == oracle.critical_path(schedule, ops, events)
        assert report_path(schedule) == oracle.critical_path(schedule)
        assert streams.validate_schedule(schedule, ops, events) is None
        assert oracle.violations(schedule, ops, events) == []


def zero_chain(rng, start):
    """A lead op of length ``start``, then a chain of ops of length 0 or 1e-18, each on
    another stream than the one before and awaiting the event recorded after it. At
    ``start`` each op of the chain ends where it starts and unblocks the next, one round
    after another; ops of positive length on the same streams compete for the engines."""
    ops = [StreamOp("lead", 0, OpKind.KERNEL, start)]
    events, length, sid = [EventRecord("ev0", 0, 0)], {0: 1}, 0
    for k in range(rng.randint(2, 12)):
        if rng.random() < 0.3:
            busy = rng.randrange(-2, 6)
            ops.append(StreamOp(f"busy{k}", busy, rng.choice(KINDS), rng.randint(1, 3)))
            length[busy] = length.get(busy, 0) + 1
        sid = rng.choice([s for s in range(-2, 6) if s != sid])
        ops.append(StreamOp(f"z{k}", sid, rng.choice(KINDS), rng.choice([0, 1e-18]), {f"ev{k}"}))
        events.append(EventRecord(f"ev{k + 1}", sid, length.get(sid, 0)))
        length[sid] = length.get(sid, 0) + 1
    return ops, events, EngineModel(rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2))


@pytest.mark.parametrize("start", [1e3, 7, 0])
def test_zero_length_chains_within_one_instant_match_the_oracle(start):
    rng = random.Random(31)
    chained = 0
    for _ in range(150):
        ops, events, engines = zero_chain(rng, start)
        schedule = streams.simulate_timeline(ops, events, engines)
        assert outcome(lambda: schedule) == outcome(lambda: oracle.schedule(ops, events, engines)), (ops, events)
        assert report_path(schedule, ops, events) == oracle.critical_path(schedule, ops, events)
        assert streams.validate_schedule(schedule, ops, events) is None
        starts = [schedule.entries[op.id].start for op in ops if op.id.startswith("z")]
        chained += starts[:2] == [start, start]
    assert chained >= 50  # most chains begin with two rounds at ``start``


def corrupt(rng, ops, events, engines):
    """Break the program in one to three ways; returns the broken program."""
    ops, events = list(ops), list(events)
    for _ in range(rng.randint(1, 3)):
        how = rng.randrange(7)
        j = rng.randrange(len(ops))
        op = ops[j]
        if how == 0 and len(ops) > 1:
            k = rng.choice([k for k in range(len(ops)) if k != j])
            ops[j] = StreamOp(ops[k].id, op.stream_id, op.kind, op.duration, op.waits_on)
        elif how == 1 and events:
            ev = rng.choice(events)
            events.insert(rng.randrange(len(events) + 1), EventRecord(ev.event_id, op.stream_id, 0))
        elif how == 2:
            length = sum(o.stream_id == op.stream_id for o in ops)
            bad = rng.choice([(op.stream_id, length), (op.stream_id, -1), (99, 0)])
            events.insert(rng.randrange(len(events) + 1), EventRecord(f"bad{how}{j}", *bad))
        elif how == 3:
            ops[j] = StreamOp(op.id, op.stream_id, op.kind, op.duration, op.waits_on | {"ghost"})
        elif how == 4 and j + 1 < len(ops):
            later = rng.randrange(j, len(ops))
            position = sum(o.stream_id == ops[later].stream_id for o in ops[:later])
            events.append(EventRecord(f"later{j}", ops[later].stream_id, position))
            ops[j] = StreamOp(op.id, op.stream_id, op.kind, op.duration, op.waits_on | {f"later{j}"})
        elif how == 5:
            counts = [rng.randint(1, 2) for _ in range(3)]
            counts[KINDS.index(op.kind)] = max(0, rng.choice([0, -1]))  # EngineModel rejects -1
            engines = EngineModel(*counts)
        elif how == 6:
            ops.insert(rng.randrange(len(ops) + 1), StreamOp(f"late{j}", op.stream_id, op.kind, 1, {"ev0"}))
    return ops, events, engines


def test_corrupted_programs_raise_like_the_oracle():
    rng = random.Random(77)
    for _ in range(1500):
        ops, events, engines = random_program(rng, rng.choice([4, 6, 6, 10, 30]))
        schedule = streams.simulate_timeline(ops, events, engines)
        bad = corrupt(rng, ops, events, engines)
        assert outcome(streams.simulate_timeline, *bad) == outcome(oracle.schedule, *bad), bad
        bad_ops, bad_events, _ = bad
        assert outcome(streams.validate_schedule, schedule, bad_ops, bad_events) == outcome(
            oracle_validate, schedule, bad_ops, bad_events
        ), bad
        assert outcome(report_path, schedule, bad_ops, bad_events) == outcome(
            oracle.critical_path, schedule, bad_ops, bad_events
        ), bad


def perturb(rng, schedule, ops, events):
    """Move one to three ops so that a stream, engine or event invariant may break."""
    entries = dict(schedule.entries)
    anchor = {ev.event_id: [o for o in ops if o.stream_id == ev.stream_id][ev.position].id for ev in events}
    for _ in range(rng.randint(1, 3)):
        s = entries[rng.choice(ops).id]
        how = rng.randrange(4)
        if how == 0:  # start where some op starts
            start = rng.choice(list(entries.values())).start
        elif how == 1:  # run on another op's engine at its time
            other = rng.choice(list(entries.values()))
            entries[s.op.id] = s = ScheduledOp(s.op, other.engine, s.start, s.end)
            start = other.start + rng.choice([0, 0.5])
        elif how == 2 and s.op.waits_on:  # start before an awaited event fires
            start = entries[anchor[rng.choice(sorted(s.op.waits_on))]].end - rng.choice([0.5, 1])
        else:
            start = s.start + rng.choice([-2, -1, -0.5, 0.5, 1])
        entries[s.op.id] = ScheduledOp(s.op, s.engine, start, start + s.op.duration)
    makespan = max((s.end for s in entries.values()), default=0.0)
    return Schedule(entries, makespan, schedule.engine_names)


def test_perturbed_schedules_are_judged_like_the_oracle():
    rng = random.Random(51)
    verdicts = Counter()
    for _ in range(1500):
        ops, events, engines = random_program(rng, rng.choice([4, 6, 6, 10, 30]))
        schedule = perturb(rng, streams.simulate_timeline(ops, events, engines), ops, events)
        found = oracle.violations(schedule, ops, events)
        verdicts[found[0].split()[0] if found else "valid"] += 1
        assert outcome(streams.validate_schedule, schedule, ops, events) == outcome(
            oracle_validate, schedule, ops, events
        ), (schedule, ops, events)
        assert report_path(schedule, ops, events) == oracle.critical_path(schedule, ops, events)
    assert min(verdicts[k] for k in ("valid", "stream", "engine", "op")) >= 50, verdicts
