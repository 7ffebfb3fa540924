"""Checked once: a launch that repeats a checked one replays the race checks' answers, exactly.

The first launch of a key marks it, the second that runs through leaves the
record of its race checks in ``access.MEMO``, and a later one takes each
check's answer from that record while the check's inputs equal its next
entry. At the first that differs it feeds the matched entries to its own
tracks and goes on exactly (README, "Checked once"). The random programs of
the race tracker's suite run three times under one kernel object, in both
modes: the third launch replays every check, and memory, the ``MetricsReport``
JSON, the ``SimError`` JSON and the warnings must be what the reference
machine gives. A copy that diverges at a random access catches up.
"""

import contextlib
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_machine
from reference_machine import SHARED_LEN
from test_batched_blocks import FORGOTTEN_READS_WITHOUT_RACE
from test_cost_memo import CountingMemo
from test_fast_paths import launched, parent_kernel, scatter_kernel
from test_race_tracker import SHIFT0, cases, instructions, patterns, run_program
from warpsim import DeviceMemory, LaunchConfig, MetricsReport, Recorder, SimError, Simulator, kernels
from warpsim.core import access, block_batchable, engine
from warpsim.core.access import _Memo
from warpsim.core.errors import _RunAlone
from warpsim.core.race import _RaceTrack

MODES = ("strict", "permissive")
MEMORY = ("gload", "gstore", "sload", "sstore")
PROGRAMS = cases(st.lists(instructions(2, True), min_size=1, max_size=10))
ACCESSES = st.one_of(
    st.tuples(st.just("gload"), st.sampled_from(["x", "y"]), patterns),
    st.tuples(st.just("gstore"), st.sampled_from(["x", "y"]), patterns, st.integers(0, 9)),
    st.tuples(st.just("sload"), patterns),
    st.tuples(st.just("sstore"), patterns, st.integers(0, 9)),
)


@contextlib.contextmanager
def fresh_memo(memo=None):
    """``memo``, or an empty ``_Memo``, in place of the process's memo until the block exits."""
    original = access.MEMO
    access.MEMO = _Memo() if memo is None else memo
    try:
        yield access.MEMO
    finally:
        access.MEMO = original


@contextlib.contextmanager
def exact_checks():
    """A list that gets one item per call of a track's exact check, catch-up's included."""
    calls = []

    def counted(check):
        def run(track, *args):
            calls.append(check.__name__)
            return check(track, *args)
        return run

    with mock.patch.object(_RaceTrack, "check_read", counted(_RaceTrack.check_read)), \
            mock.patch.object(_RaceTrack, "check_write", counted(_RaceTrack.check_write)):
        yield calls


def kernel_of(holder):
    """One kernel object for every launch of a test; it runs the program ``holder[0]`` holds at launch time."""
    def kernel(ctx, x, y):
        run_program(ctx, x, y, holder[0])
    return kernel


def config_of(case):
    return LaunchConfig(case[0], case[1], shared_mem_bytes=SHARED_LEN * 8)


def launch(case, mode, kernel, recorder=None):
    """What ``reference_machine.run`` gives, from one launch of ``kernel`` on the case's buffers."""
    mem = DeviceMemory()
    x, y = mem.alloc("x", case[2]), mem.alloc("y", case[3])
    metrics, error = MetricsReport(), None
    try:
        Simulator().launch(kernel, config_of(case), mem, (x, y), mode=mode, metrics=metrics, recorder=recorder,
                           name=reference_machine.KERNEL)
    except SimError as e:
        error = e.to_json()
    return x.tolist(), y.tolist(), error, list(mem.race_warnings), metrics.to_json()


def record_of(case, mode, kernel):
    """What the memo holds under the key of ``kernel``'s launches of ``case``: missing, a mark, or a record."""
    mem = DeviceMemory()
    key = engine._record_key(kernel, config_of(case), mode, None, (mem.alloc("x", case[2]), mem.alloc("y", case[3])))
    return access.MEMO.get(key, "missing")


def replaced(program, target, new):
    """``program`` with its memory instruction number ``target`` (text order) replaced by ``new``, and their count."""
    seen = [0]

    def walk(instrs):
        out = []
        for ins in instrs:
            if ins[0] in MEMORY:
                out.append(new if seen[0] == target else ins)
                seen[0] += 1
            elif ins[0] in ("if", "range"):
                out.append((*ins[:3], walk(ins[3]), walk(ins[4])))
            elif ins[0] == "launch":
                out.append((*ins[:4], walk(ins[4])))
            else:
                out.append(ins)
        return out

    return walk(program), seen[0]


def three_launches(case, mode):
    """Each of three launches of ``case`` under one kernel, with the count of exact checks it made."""
    kernel = kernel_of([case[4]])
    runs = []
    with fresh_memo(), exact_checks() as calls:
        for _ in range(3):
            calls.clear()
            runs.append((launch(case, mode, kernel), len(calls)))
    return runs


@settings(max_examples=30, deadline=None)
@given(PROGRAMS)
def test_a_third_launch_replays_what_the_reference_machine_gives(case):
    for mode in MODES:
        want = reference_machine.run(case, mode)
        runs = three_launches(case, mode)
        assert [got for got, _ in runs] == [want] * 3
        if want[2] is None:  # ran through: the second launch recorded, the third replayed every check
            assert runs[1][1] == runs[0][1] and runs[2][1] == 0


@settings(max_examples=30, deadline=None)
@given(PROGRAMS, st.integers(0, 1 << 16), ACCESSES)
def test_a_launch_that_diverges_from_its_record_catches_up(case, where, new):
    count = replaced(case[4], -1, None)[1]
    assume(count > 0)
    changed = (*case[:4], replaced(case[4], where % count, new)[0])
    for mode in MODES:
        holder = [case[4]]
        kernel = kernel_of(holder)
        with fresh_memo():
            launch(case, mode, kernel)
            launch(case, mode, kernel)
            holder[0] = changed[4]
            assert launch(changed, mode, kernel) == reference_machine.run(changed, mode)


BROADCAST5 = ("broadcast", 5, [0])
EVEN_LOAD = ("if", 2, 1, [("gload", "x", SHIFT0)], [])  # lanes with an even global id


def broadcast_race(readers):
    """Lanes ``readers`` of one block of 16 load x[5], then thread 0 stores it: a race with the lowest other reader."""
    return (1, 16, [0] * 16, [0] * 16, [
        ("range", *readers, [("gload", "x", BROADCAST5)], []),
        ("range", 0, 1, [("gstore", "x", BROADCAST5, 0)], []),
    ])


# Each pair: a program, and a copy whose checks first differ from its record's at a check that a replay or a
# catch-up that is not exact would answer from the wrong history.
DIVERGING = {
    # Every lane loads x[gid], then stores y[gid]; the copy stores x in reverse, over the other lanes' loads.
    "store_over_matched_loads": (
        (1, 16, list(range(16)), [0] * 16, [("gload", "x", SHIFT0), ("gstore", "y", SHIFT0, 1)]),
        (1, 16, list(range(16)), [0] * 16, [("gload", "x", SHIFT0), ("gstore", "x", ("reverse", 0, [0]), 1)]),
    ),
    # The copy's loads have the same addresses but other lanes: a store conflicts with another reader.
    "same_addresses_other_lanes": (broadcast_race((0, 8)), broadcast_race((8, 16))),
    # The even lanes of two blocks load x[gid] under a strided mask, whose thread ids the record keeps as a run; in
    # the copy block 1 then stores x[gid + 1], over its even lanes' loads, which the catch-up must give their own ids.
    "store_over_strided_loads": (
        (2, 16, list(range(32)), [0] * 32, [EVEN_LOAD, ("from_block", 1, [("gstore", "y", SHIFT0, 1)])]),
        (2, 16, list(range(32)), [0] * 32, [EVEN_LOAD, ("from_block", 1, [("gstore", "x", ("shift", 1, [0]), 1)])]),
    ),
}


def test_each_pinned_copy_catches_up_to_the_reference_machine():
    catch_up = mock.patch.object(engine._Tape, "catch_up", autospec=True, side_effect=engine._Tape.catch_up)
    for name, (case, copy) in DIVERGING.items():
        for mode in MODES:
            holder = [case[4]]
            kernel = kernel_of(holder)
            with fresh_memo(), catch_up as spied:
                assert [launch(case, mode, kernel) for _ in range(2)] == [reference_machine.run(case, mode)] * 2
                holder[0] = copy[4]
                assert launch(copy, mode, kernel) == reference_machine.run(copy, mode), (name, mode)
                holder[0] = case[4]  # the record is still the program's
                assert launch(case, mode, kernel) == reference_machine.run(case, mode), (name, mode)
            # a launch that raised left no record: then the copy ran exact, else it replayed and caught up
            assert spied.call_count == (reference_machine.run(case, mode)[2] is None), (name, mode)


def test_a_permissive_replay_reports_every_pick():
    case = broadcast_race((0, 8))
    runs = three_launches(case, "permissive")
    warnings = runs[2][0][3]
    assert runs[2][1] == 0 and len(warnings) == 1 and "threads 0 and 1" in warnings[0]
    assert [got for got, _ in runs] == [reference_machine.run(case, "permissive")] * 3


def test_a_launch_that_raised_leaves_no_record():
    load = ("gload", "x", SHIFT0)
    raising = {
        "strict race": ("strict", [load, ("gstore", "x", ("reverse", 0, [0]), 1)]),
        "out of bounds": ("strict", [load, ("gstore", "y", ("raw", 0, [0, 99]), 1)]),
        "permissive out of bounds": ("permissive", [load, ("gstore", "x", ("reverse", 0, [0]), 1),
                                                    ("gload", "y", ("raw", 0, [7, 99]))]),
    }
    for name, (mode, program) in raising.items():
        case = (2, 16, list(range(32)), [0] * 32, program)
        kernel = kernel_of([program])
        with fresh_memo():
            for _ in range(3):
                assert launch(case, mode, kernel)[2] is not None, name
            assert record_of(case, mode, kernel) == "missing", name
    ran_through = (2, 16, list(range(32)), [0] * 32, [load, ("gstore", "y", SHIFT0, 1)])
    kernel = kernel_of([ran_through[4]])
    with fresh_memo():
        launch(ran_through, "strict", kernel)
        assert record_of(ran_through, "strict", kernel) is None  # a mark: the next launch records
        launch(ran_through, "strict", kernel)
        assert len(record_of(ran_through, "strict", kernel)) == 4  # two blocks of a load and a store


def test_a_replayed_group_runs_its_blocks_alone_as_the_recorded_one_did():
    """A group that forgets its reads and then stores raises ``_RunAlone``; a replay takes that answer from the record
    and runs the blocks one by one, as the recorded launch did."""
    case = FORGOTTEN_READS_WITHOUT_RACE

    @block_batchable
    def kernel(ctx, x, y):
        run_program(ctx, x, y, case[4])

    with fresh_memo(), exact_checks() as calls:
        runs = []
        for _ in range(3):
            calls.clear()
            runs.append((launch(case, "strict", kernel), len(calls)))
        record = record_of(case, "strict", kernel)
    assert [answer for _, answer, _ in record].count(_RunAlone) == 1
    assert runs[2] == (runs[0][0], 0) and runs[0][0][2] is None
    assert [got for got, _ in runs] == [reference_machine.run(case, "strict")] * 3


def test_a_log_past_the_record_cap_leaves_an_empty_record_and_later_launches_check_exactly(monkeypatch):
    case = (2, 16, list(range(32)), [0] * 32, [("gload", "x", SHIFT0), ("gstore", "y", SHIFT0, 1)])
    kernel = kernel_of([case[4]])
    monkeypatch.setattr(access, "_RECORD_BYTES", 40)  # the third of four 16-byte entries passes it
    want = reference_machine.run(case, "strict")
    with fresh_memo() as memo, exact_checks() as calls:
        assert launch(case, "strict", kernel) == want
        exact, held = len(calls), memo.nbytes
        assert record_of(case, "strict", kernel) is None
        for nbytes in (held + 16, held + 16):  # the second launch's key keeps an empty record; the third adds nothing
            calls.clear()
            assert launch(case, "strict", kernel) == want
            assert (record_of(case, "strict", kernel), len(calls), memo.nbytes) == ([], exact, nbytes)


def test_strided_masks_key_their_thread_ids_as_runs_so_a_large_interleaved_reduction_keeps_its_record():
    """At stride s the interleaved reduction's active lanes are every 2s-th lane of a 16-block group: a run of global
    ids, whose record entry is a slice, not 8 bytes a lane."""
    values = list(range(1 << 16))
    with fresh_memo() as memo:
        assert [kernels.reduce_sum(values, "interleaved")[0] for _ in range(3)] == [sum(values)] * 3
        (record,) = [v for v in memo.values() if isinstance(v, list)]
    assert record and all(type(key[3]) is slice for key, _, _ in record)


def recorded(recorder):
    """A ``Recorder``'s contents as plain values."""
    return (
        [(a.kernel, a.block, a.step, a.space, a.kind, a.buffer, a.width, a.warp_ids.tolist(), a.lanes.tolist(),
          np.asarray(a.addresses).tolist(), None if a.values is None else a.values.tolist())
         for a in recorder.accesses],
        recorder.branches,
        recorder.barriers,
    )


@settings(max_examples=10, deadline=None)
@given(PROGRAMS)
def test_a_recorder_sees_a_replayed_launch_as_an_exact_one(case):
    for mode in MODES:
        kernel = kernel_of([case[4]])
        recorders = [Recorder() for _ in range(3)]
        with fresh_memo(), exact_checks() as calls:
            runs = [launch(case, mode, kernel, recorder) for recorder in recorders[:2]]
            calls.clear()
            runs.append(launch(case, mode, kernel, recorders[2]))
        assert runs == [reference_machine.run(case, mode)] * 3
        assert recorded(recorders[2]) == recorded(recorders[0]) == recorded(recorders[1])
        assert runs[2][2] is not None or not calls  # a launch that ran through replayed every check


# ----------------------------------------------------------------------
# a stand-in for an engine workload's op list


def stand_in_ops():
    m = kernels.Matrix(16, 16, [(5 * i) % 23 - 11 for i in range(256)])
    return [
        lambda: kernels.vector_add(list(range(700)), list(range(700))),
        lambda: kernels.matrix_add(m, m),
        lambda: kernels.matmul(m, m, "naive"),
        lambda: kernels.matmul(m, m, "tiled"),
        *(lambda n=n, v=v: kernels.reduce_sum(list(range(n)), v) for n in (256, 2048) for v in ("interleaved",
                                                                                                "sequential")),
        lambda: kernels.inclusive_scan_hillis_steele(list(range(300))),
        lambda: kernels.exclusive_scan_blelloch(list(range(128))),
        lambda: launched(parent_kernel, 256, 256, "strict"),
        lambda: launched(scatter_kernel, 256, 64, "permissive"),
    ]


def test_a_third_pass_of_an_engine_op_list_replays_every_launch_and_adds_nothing(monkeypatch):
    memo = CountingMemo()
    costs = []
    for name in ("_warp_segment_total", "_warp_bank_extra_cycles"):
        monkeypatch.setattr(access, name, lambda *a, _f=getattr(access, name): costs.append(1) or _f(*a))
    ops = stand_in_ops()
    with fresh_memo(memo), exact_checks() as calls:
        outcomes = [[op() for op in ops] for _ in range(2)]
        assert memo.adds > 0 and costs and calls
        adds, held = memo.adds, dict(memo)
        costs.clear()
        calls.clear()
        outcomes.append([op() for op in ops])
    assert outcomes[2] == outcomes[1] == outcomes[0]
    assert (memo.adds, dict(memo), costs, calls, memo.clears) == (adds, held, [], [], 0)
    records = [v for v in held.values() if isinstance(v, list)]
    assert len(records) == len(ops) and all(records)  # each op's launch left a record
