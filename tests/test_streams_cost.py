"""Scheduling a stream program costs about linear time in its op count.

Each check times the same kind of program at 200 and at 2000 ops on the same
machine and bounds the ratio, so it holds on fast and slow hosts alike. A
linear pass gives about 10; a scheduler that rescans every stream in every
round, or a critical path that sorts an engine's ops at every step, gives
several times that. A deadline turns such a regression into a failure
instead of a hang.
"""

import random
import signal
import time

from warpsim.streams import EngineModel, EventRecord, OpKind, StreamOp, makespan_report, simulate_timeline

SMALL, LARGE = 200, 2000
MAX_RATIO = 30.0
DEADLINE_S = 10.0


def program(n_ops, n_streams, seed=3):
    """Random kinds and durations; every tenth op records an event that a later op awaits."""
    rng = random.Random(seed)
    ops, events, length = [], [], {}
    for i in range(n_ops):
        sid = i % n_streams
        waits = {rng.choice(events).event_id} if events and rng.random() < 0.1 else set()
        ops.append(StreamOp(f"op{i}", sid, rng.choice(list(OpKind)), rng.randint(1, 20), waits))
        length[sid] = length.get(sid, 0) + 1
        if i % 10 == 0:
            events.append(EventRecord(f"ev{i}", sid, length[sid] - 1))
    return ops, events


def best_time(call, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def size_ratio(timed):
    """Time ratio between LARGE and SMALL; raises TimeoutError past the deadline."""

    def expire(signum, frame):
        raise TimeoutError(f"scheduling {LARGE} ops ran longer than {DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        return timed(LARGE) / timed(SMALL)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_simulate_timeline_with_one_op_per_stream():
    def timed(n):
        ops, events = program(n, n_streams=n)
        return best_time(lambda: simulate_timeline(ops, events, EngineModel(2, 2, 2)))

    assert size_ratio(timed) < MAX_RATIO


def test_makespan_report_on_four_streams():
    def timed(n):
        ops, events = program(n, n_streams=4)
        schedule = simulate_timeline(ops, events)
        return best_time(lambda: makespan_report(schedule, ops, events))

    assert size_ratio(timed) < MAX_RATIO
