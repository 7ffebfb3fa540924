"""Timeline scheduling: golden scenarios, invariants, brute-force comparison."""

import json
import math
import random
import re
import signal
from pathlib import Path

import numpy as np
import pytest

from warpsim import streams
from warpsim.streams import (
    MAX_ENGINES,
    CyclicDependency,
    EngineModel,
    EventRecord,
    OpKind,
    Schedule,
    ScheduledOp,
    StreamOp,
    UnknownEvent,
    duration_from_metrics,
    load_scenario,
    makespan_report,
    render_gantt,
    simulate_timeline,
    validate_schedule,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def two_batch_ops(streams=(1, 2)):
    s1, s2 = streams
    return [
        StreamOp("copy1", s1, OpKind.COPY_H2D, 10),
        StreamOp("kernel1", s1, OpKind.KERNEL, 10),
        StreamOp("copy2", s2, OpKind.COPY_H2D, 10),
        StreamOp("kernel2", s2, OpKind.KERNEL, 10),
    ]


class TestGoldenScenarios:
    def test_two_streams_overlap_makespan_30(self):
        schedule = simulate_timeline(two_batch_ops())
        assert schedule.makespan == 30
        # copy2 overlaps kernel1
        assert schedule.entries["copy2"].start == 10
        assert schedule.entries["kernel1"].start == 10

    def test_string_kinds_schedule_like_op_kinds(self):
        by_string = [StreamOp(op.id, op.stream_id, op.kind.value, op.duration) for op in two_batch_ops()]
        assert all(type(op.kind) is OpKind for op in by_string)
        assert simulate_timeline(by_string).to_json() == simulate_timeline(two_batch_ops()).to_json()

    def test_one_stream_serializes_to_40(self):
        schedule = simulate_timeline(two_batch_ops(streams=(1, 1)))
        assert schedule.makespan == 40

    def test_overlap_savings_10(self):
        schedule = simulate_timeline(two_batch_ops())
        report = makespan_report(schedule, two_batch_ops())
        assert report.serialized_total == 40
        assert report.overlap_savings == 10

    def test_empty_program(self):
        schedule = simulate_timeline([])
        assert schedule.makespan == 0
        assert makespan_report(schedule).overlap_savings == 0

    def test_event_wait_delays_kernel(self):
        ops = [
            StreamOp("copy", 1, OpKind.COPY_H2D, 10),
            StreamOp("kernel", 2, OpKind.KERNEL, 5, waits_on={"e"}),
        ]
        events = [EventRecord("e", 1, 0)]
        schedule = simulate_timeline(ops, events)
        assert schedule.entries["kernel"].start == schedule.entries["copy"].end == 10

    def test_critical_path_through_an_op_with_an_empty_id(self):
        ops = [StreamOp("", 1, OpKind.COPY_H2D, 10), StreamOp("k", 1, OpKind.KERNEL, 5)]
        schedule = simulate_timeline(ops)
        assert makespan_report(schedule, ops).critical_path == ["", "k"]

    def test_single_op_full_utilization(self):
        ops = [StreamOp("k", 1, OpKind.KERNEL, 7)]
        schedule = simulate_timeline(ops)
        report = makespan_report(schedule, ops)
        assert report.utilization["compute#0"] == 1.0

    def test_fully_dependent_chain_no_savings(self):
        ops = [StreamOp(f"k{i}", 1, OpKind.KERNEL, 3) for i in range(5)]
        schedule = simulate_timeline(ops)
        report = makespan_report(schedule, ops)
        assert report.overlap_savings == 0
        assert report.critical_path == [f"k{i}" for i in range(5)]

    def test_shipped_two_stream_scenario_file(self):
        ops, events, engines = load_scenario(json.loads((SCENARIOS / "overlap_two_stream.json").read_text()))
        assert simulate_timeline(ops, events, engines).makespan == 30

    def test_shipped_three_stage_flow_is_ordered(self):
        ops, events, engines = load_scenario(json.loads((SCENARIOS / "three_stage_flow.json").read_text()))
        schedule = simulate_timeline(ops, events, engines)
        up, k, down = (schedule.entries[i] for i in ("upload", "kernel", "download"))
        assert up.end <= k.start and k.end <= down.start
        validate_schedule(schedule, ops, events)


class TestValidationErrors:
    def test_unknown_event(self):
        ops = [StreamOp("k", 1, OpKind.KERNEL, 1, waits_on={"ghost"})]
        with pytest.raises(UnknownEvent):
            simulate_timeline(ops, [])

    def test_event_bad_anchor_position(self):
        ops = [StreamOp("k", 1, OpKind.KERNEL, 1)]
        events = [EventRecord("e", 1, 5)]
        with pytest.raises(UnknownEvent):
            simulate_timeline(ops, events)

    def test_wait_on_later_event_is_cyclic(self):
        ops = [
            StreamOp("a", 1, OpKind.KERNEL, 1, waits_on={"e"}),
            StreamOp("b", 2, OpKind.KERNEL, 1),
        ]
        events = [EventRecord("e", 2, 0)]
        with pytest.raises(CyclicDependency):
            simulate_timeline(ops, events)

    def test_duplicate_op_ids(self):
        ops = [StreamOp("x", 1, OpKind.KERNEL, 1), StreamOp("x", 2, OpKind.KERNEL, 1)]
        with pytest.raises(ValueError):
            simulate_timeline(ops)

    def test_negative_duration(self):
        with pytest.raises(ValueError):
            StreamOp("x", 1, OpKind.KERNEL, -1)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_duration(self, duration):
        with pytest.raises(ValueError, match=f"op 'x' has non-finite duration {duration}"):
            StreamOp("x", 1, OpKind.KERNEL, duration)

    def test_duration_past_float_range(self):
        with pytest.raises(ValueError, match=f"^op 'x' has duration {10**400}, past float range$"):
            StreamOp("x", 1, OpKind.KERNEL, 10**400)

    def test_duplicate_op_ids_in_a_schedule_check(self):
        ops = [StreamOp("x", 1, OpKind.KERNEL, 1)]
        schedule = simulate_timeline(ops)
        with pytest.raises(ValueError, match="duplicate op id 'x'"):
            validate_schedule(schedule, ops + ops)

    @pytest.mark.parametrize("ops", [["X", "Y", "Z"], ["X", "Z"]])
    def test_an_overlap_hidden_by_a_zero_length_op(self, ops):
        times = {"X": (0, 5), "Y": (1, 1), "Z": (2, 3)}
        ops = [StreamOp(name, i, OpKind.KERNEL, times[name][1] - times[name][0]) for i, name in enumerate(ops)]
        schedule = Schedule({op.id: ScheduledOp(op, "compute#0", *times[op.id]) for op in ops}, 5, ["compute#0"])
        with pytest.raises(ValueError, match="^engine compute#0: 'Z' overlaps 'X'$"):
            validate_schedule(schedule, ops)

    def test_a_start_before_two_events_names_the_first_by_id(self):
        ops = [StreamOp("a", 1, OpKind.KERNEL, 2), StreamOp("b", 2, OpKind.KERNEL, 2)]
        ops.append(StreamOp("k", 3, OpKind.KERNEL, 1, waits_on={"eb", "ea"}))
        events = [EventRecord("ea", 1, 0), EventRecord("eb", 2, 0)]
        schedule = simulate_timeline(ops, events, EngineModel(compute_engines=3))
        schedule.entries["k"] = ScheduledOp(ops[2], "compute#2", 0, 1)
        with pytest.raises(ValueError, match="^op 'k' starts before awaited event 'ea' fires$"):
            validate_schedule(schedule, ops, events)

    def test_string_waits_on_is_rejected(self):
        with pytest.raises(ValueError, match="op 'k' waits_on 'ev' is a string"):
            StreamOp("k", 1, OpKind.KERNEL, 1, waits_on="ev")

    @pytest.mark.parametrize("waits_on", ["ev", {"ev": 1}, "e"])
    def test_scenario_waits_on_must_be_a_list_of_event_ids(self, waits_on):
        raw_ops = [
            {"id": "c", "stream": 1, "kind": "kernel", "duration": 1},
            {"id": "k", "stream": 2, "kind": "kernel", "duration": 1, "waits_on": waits_on},
        ]
        events = [{"id": ev, "stream": 1, "after_index": 0} for ev in ("e", "v", "ev")]
        with pytest.raises(ValueError, match=r"ops\[1\]\.waits_on: op 'k' must wait on a list of event ids"):
            load_scenario({"ops": raw_ops, "events": events})

    @pytest.mark.parametrize("where", [0, 2, 5])
    def test_report_on_a_schedule_without_some_ops(self, where):
        ops = [StreamOp(f"k{i}", 1 + i % 2, OpKind.KERNEL, 3) for i in range(5)]
        schedule = simulate_timeline(ops)
        program = ops[:where] + [StreamOp("late", 1, OpKind.KERNEL, 1), StreamOp("later", 2, OpKind.KERNEL, 1)]
        program += ops[where:]
        for check in (makespan_report, validate_schedule):
            with pytest.raises(ValueError, match="schedule has no entry for op 'late'"):
                check(schedule, program)

    @pytest.mark.parametrize("field", ["copy_engines_h2d", "copy_engines_d2h", "compute_engines"])
    @pytest.mark.parametrize("count", [1.5, True, -1, MAX_ENGINES + 1, 10**6, "2", None])
    def test_engine_counts_are_whole_and_bounded(self, field, count):
        message = f"EngineModel.{field} must be a whole number from 0 to {MAX_ENGINES}, got {count!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            EngineModel(**{field: count})

    def test_engine_counts_at_the_bounds(self):
        engines = EngineModel(0, 2.0, MAX_ENGINES)
        counts = (engines.copy_engines_h2d, engines.copy_engines_d2h, engines.compute_engines)
        assert counts == (0, 2, MAX_ENGINES) and type(counts[1]) is int
        # Zero engines serve a kind that no op uses.
        schedule = simulate_timeline([StreamOp("k", 1, OpKind.KERNEL, 2)], engines=EngineModel(0, 0, 1))
        assert schedule.makespan == 2 and schedule.engine_names == ["compute#0"]

    def test_report_on_an_empty_schedule_of_a_program(self):
        ops = [StreamOp("k", 1, OpKind.KERNEL, 3)]
        with pytest.raises(ValueError, match="schedule has no entry for op 'k'"):
            makespan_report(simulate_timeline([]), ops)


def random_program(rng, max_ops=8):
    n_streams = int(rng.integers(1, 4))
    n_ops = int(rng.integers(1, max_ops + 1))
    kinds = [OpKind.COPY_H2D, OpKind.COPY_D2H, OpKind.KERNEL]
    ops, events = [], []
    stream_len = {s: 0 for s in range(1, n_streams + 1)}
    for i in range(n_ops):
        sid = int(rng.integers(1, n_streams + 1))
        waits = set()
        if events and rng.random() < 0.4:
            waits.add(str(rng.choice([e.event_id for e in events])))
        ops.append(
            StreamOp(
                f"op{i}",
                sid,
                kinds[int(rng.integers(0, 3))],
                float(rng.integers(0, 12)),
                waits_on=waits,
            )
        )
        stream_len[sid] += 1
        if rng.random() < 0.5:
            events.append(EventRecord(f"ev{len(events)}", sid, stream_len[sid] - 1))
    return ops, events


def brute_force_min_makespan(ops, events, engines):
    """Try every stream-order-preserving dispatch order; keep the best."""
    anchor = {}
    per_stream = {}
    for op in ops:
        per_stream.setdefault(op.stream_id, []).append(op)
    for ev in events:
        anchor[ev.event_id] = per_stream[ev.stream_id][ev.position].id

    by_stream = {sid: [op.id for op in lst] for sid, lst in per_stream.items()}
    op_by_id = {op.id: op for op in ops}
    best = float("inf")

    def orders(remaining):
        heads = [lst[0] for lst in remaining.values() if lst]
        if not heads:
            yield []
            return
        for head in heads:
            rest = {
                sid: (lst[1:] if lst and lst[0] == head else lst)
                for sid, lst in remaining.items()
            }
            for tail in orders(rest):
                yield [head] + tail

    pool_sizes = engines.pool_sizes()
    for order in orders(dict(by_stream)):
        pools = {kind: [0.0] * count for kind, count in pool_sizes.items()}
        stream_avail = {sid: 0.0 for sid in by_stream}
        end_of = {}
        feasible = True
        for op_id in order:
            op = op_by_id[op_id]
            ready = stream_avail[op.stream_id]
            for ev in op.waits_on:
                if anchor[ev] not in end_of:
                    feasible = False
                    break
                ready = max(ready, end_of[anchor[ev]])
            if not feasible:
                break
            pool = pools[op.kind]
            idx = min(range(len(pool)), key=lambda k: pool[k])
            start = max(ready, pool[idx])
            end_of[op_id] = start + op.duration
            pool[idx] = end_of[op_id]
            stream_avail[op.stream_id] = end_of[op_id]
        if feasible:
            best = min(best, max(end_of.values(), default=0.0))
    return best


class TestSchedulerProperties:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_programs_vs_brute_force(self, seed):
        rng = np.random.default_rng(200 + seed)
        ops, events = random_program(rng)
        engines = EngineModel()
        schedule = simulate_timeline(ops, events, engines)
        validate_schedule(schedule, ops, events)
        serialized = sum(op.duration for op in ops)
        optimal = brute_force_min_makespan(ops, events, engines)
        assert optimal <= schedule.makespan <= serialized

    @pytest.mark.parametrize("seed", range(20))
    def test_more_engines_never_hurt(self, seed):
        rng = np.random.default_rng(300 + seed)
        ops, events = random_program(rng)
        narrow = simulate_timeline(ops, events, EngineModel(1, 1, 1))
        wide = simulate_timeline(ops, events, EngineModel(2, 2, 2))
        serialized = sum(op.duration for op in ops)
        assert wide.makespan <= narrow.makespan <= serialized

    @pytest.mark.parametrize("seed", range(20))
    def test_added_event_edge_never_speeds_up(self, seed):
        rng = np.random.default_rng(400 + seed)
        ops, events = random_program(rng)
        base = simulate_timeline(ops, events).makespan
        # Attach a new dependency from some later op onto an earlier anchor.
        if len(ops) < 2:
            return
        target_idx = int(rng.integers(1, len(ops)))
        anchor_idx = int(rng.integers(0, target_idx))
        anchor_op = ops[anchor_idx]
        position = sum(
            1 for o in ops[:anchor_idx] if o.stream_id == anchor_op.stream_id
        )
        new_event = EventRecord("extra", anchor_op.stream_id, position)
        target = ops[target_idx]
        replaced = StreamOp(
            target.id,
            target.stream_id,
            target.kind,
            target.duration,
            waits_on=set(target.waits_on) | {"extra"},
        )
        new_ops = [replaced if o.id == target.id else o for o in ops]
        heavier = simulate_timeline(new_ops, list(events) + [new_event]).makespan
        assert heavier >= base


def critical_path_within(seconds, schedule, ops, events=()):
    """makespan_report's critical path, failing instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"makespan_report ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return makespan_report(schedule, ops, events).critical_path
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_touching_chain(schedule, path):
    """Distinct ops, each ending where the next starts, ending at the makespan."""
    assert len(set(path)) == len(path)
    entries = [schedule.entries[op_id] for op_id in path]
    assert entries[-1].end == schedule.makespan
    for before, after in zip(entries, entries[1:]):
        assert before.end == after.start


class TestZeroDurationOps:
    """A zero-duration op ends where it starts, so it touches itself."""

    def test_zero_ops_after_busy_engine(self):
        ops = [
            StreamOp("op0", 2, OpKind.KERNEL, 0),
            StreamOp("op1", 2, OpKind.COPY_D2H, 0),
            StreamOp("op2", 2, OpKind.COPY_H2D, 10),
            StreamOp("op3", 1, OpKind.KERNEL, 5),
        ]
        schedule = simulate_timeline(ops)
        assert schedule.makespan == 15
        assert critical_path_within(2.0, schedule, ops) == ["op3", "op0", "op1", "op2"]

    @pytest.mark.parametrize("seed", [13, 119, 170, 307])
    def test_generated_programs_that_hung(self, seed):
        ops, events = random_program(np.random.default_rng(seed), max_ops=5)
        assert any(op.duration == 0 for op in ops)
        schedule = simulate_timeline(ops, events)
        path = critical_path_within(2.0, schedule, ops, events)
        assert_touching_chain(schedule, path)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_programs_give_a_touching_chain(self, seed):
        ops, events = random_program(np.random.default_rng(600 + seed), max_ops=6)
        schedule = simulate_timeline(ops, events)
        path = critical_path_within(2.0, schedule, ops, events)
        assert_touching_chain(schedule, path)


class TestDurationWeights:
    def test_metrics_to_duration_defaults(self):
        class Rep:
            global_transactions = 10
            thread_steps = 8
            bank_conflict_extra_cycles = 3

        assert duration_from_metrics(Rep()) == 10 + 2 + 3

    def test_kernel_op_duration_from_simulated_launch(self):
        from warpsim import MetricsReport
        from warpsim.kernels import vector_add

        report = MetricsReport()
        vector_add(list(range(64)), list(range(64)), metrics=report)
        duration = duration_from_metrics(report)
        assert duration > 0
        ops = [
            StreamOp("h2d", 1, OpKind.COPY_H2D, 5),
            StreamOp("kernel", 1, OpKind.KERNEL, duration),
        ]
        schedule = simulate_timeline(ops)
        assert schedule.makespan == 5 + duration

    def test_custom_weights(self):
        class Rep:
            global_transactions = 5
            thread_steps = 100
            bank_conflict_extra_cycles = 1

        assert duration_from_metrics(Rep(), 2.0, 0.0, 0.0) == 10


class TestRendering:
    def test_gantt_one_row_per_engine(self):
        schedule = simulate_timeline(two_batch_ops())
        text = render_gantt(schedule)
        lines = text.splitlines()
        assert sum(1 for ln in lines if "|" in ln) == 3  # h2d, d2h, compute
        assert "makespan: 30" in lines[-1]

    def test_schedule_json_round_trip(self):
        schedule = simulate_timeline(two_batch_ops())
        payload = json.loads(json.dumps(schedule.to_json()))
        assert payload["makespan"] == 30
        assert {op["id"] for op in payload["ops"]} == {"copy1", "copy2", "kernel1", "kernel2"}


class TestCompensatedSum:
    """From Python 3.12 on, ``sum`` of floats is compensated, while the schedule adds end times left to right."""

    @staticmethod
    def one_stream(seed):
        rng = random.Random(seed)
        if seed == 0:
            return [StreamOp(f"op{i}", 0, OpKind.KERNEL, 0.1) for i in range(10)]
        durations = [0.1, 0.2, 0.3, 0.7, 1e-17, 0, 3]
        return [StreamOp(f"op{i}", 0, rng.choice(list(OpKind)),
                         rng.choice(durations) if rng.random() < 0.7 else round(rng.uniform(0, 5), rng.randint(1, 4)))
                for i in range(rng.randint(1, 40))]

    @pytest.mark.parametrize("seed", range(40))
    def test_one_stream_saves_nothing_with_fsum_for_sum(self, seed, monkeypatch):
        ops = self.one_stream(seed)
        plain = makespan_report(simulate_timeline(ops), ops).to_json()
        monkeypatch.setattr(streams, "sum", math.fsum, raising=False)  # 3.12's sum, for the floats at hand
        report = makespan_report(simulate_timeline(ops), ops)
        assert report.overlap_savings == 0.0
        assert report.serialized_total == report.makespan
        assert report.to_json() == plain
