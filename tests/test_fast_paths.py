"""Every fast path against its slow twin: byte-identical output, alone and all together.

``fast_paths.PATHS`` names each exact fast path of ``src/warpsim`` and the
switch that runs its slow twin. With each switch alone, and with all of them
at once, a fixed battery (every shipped primitive at small sizes, child
launches, races and errors in both modes, the race tracker's sweeps,
batched groups that forget their reads, stream programs through the API and the CLI, memperf models and the
number rules) must print the same JSON as with every path on. Random
programs of the race tracker's and the batched blocks' suites run under a
switch drawn at random.
"""

import contextlib
import io
import json
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fast_paths
from fast_paths import PATHS, FastPath, switched_off
from test_batched_blocks import (
    CROSS_BARRIER_RACE,
    FORGOTTEN_READ_RACE,
    FORGOTTEN_READS_WITHOUT_RACE,
    SHARED_RACE_IN_BLOCK_2,
    batched_program,
    block_cases,
    blocks_per_group,
    global_cases,
    group_width,
)
from test_race_tracker import (
    SHIFT0,
    cases,
    down_sweep,
    global_hillis_steele,
    hillis_steele,
    instructions,
    observe,
    run_program,
    step,
    up_sweep,
)
from warpsim import DeviceMemory, LaunchConfig, MetricsReport, SimError, Simulator, cli, kernels, memperf, rules, streams
from warpsim.core import engine

ROOT = fast_paths.ROOT
SWITCHES = [(name,) for name in PATHS] + [tuple(PATHS)]
SWITCH_IDS = list(PATHS) + ["all"]
MODES = ("strict", "permissive")


def test_every_old_string_occurs_once_in_its_function():
    assert fast_paths.missing_strings() == []


def test_every_switch_restores_what_it_changed():
    codes = {fn: fn.__code__ for p in PATHS.values() for fn, _, _ in p.rewrites}
    attrs = {(id(o), a): vars(o).get(a) for p in PATHS.values() for o, a, _ in p.patches}
    with switched_off(PATHS):
        assert all(fn.__code__ is not code for fn, code in codes.items())
    assert all(fn.__code__ is code for fn, code in codes.items())
    assert {(id(o), a): vars(o).get(a) for p in PATHS.values() for o, a, _ in p.patches} == attrs


# ----------------------------------------------------------------------
# the fixed battery


def child_kernel(ctx, src, dst, base):
    i = base + ctx.gx
    dst[i] = ctx.mul(src[i], 3)


def parent_kernel(ctx, src, dst):
    """Thread 0 of every block launches two child blocks over the block's span."""
    base = ctx.block_idx.x * ctx.block_dim.x
    ctx.if_(ctx.thread_idx.x == 0, lambda: ctx.launch(child_kernel, 2, ctx.block_dim.x // 2, (src, dst, base)))


def scatter_kernel(ctx, src, dst):
    dst[ctx.gx // 4] = src[ctx.gx]


def out_of_bounds_kernel(ctx, src, dst):
    dst[ctx.gx + 1] = src[ctx.gx]


def same_run_kernel(ctx, src, dst):
    """Lanes 0-31 of a block store dst[0:32], then lanes 32-63 store the same run: the same run by other lanes."""
    tid = ctx.thread_idx.x

    def low():
        dst[tid] = src[tid]

    def high():
        dst[tid - 32] = src[tid]

    ctx.if_(tid < 32, low)
    ctx.if_(tid >= 32, high)


def launched(kernel, n, out_len, mode):
    mem = DeviceMemory()
    src = mem.alloc("src", [(7 * i) % 50 for i in range(n)])
    dst = mem.alloc("dst", out_len)
    metrics, error = MetricsReport(), None
    try:
        Simulator().launch(kernel, LaunchConfig(n // 64, 64), mem, (src, dst), mode=mode, metrics=metrics)
    except SimError as e:
        error = e.to_json()
    return [dst.tolist(), metrics.to_json(), error, list(mem.race_warnings)]


def primitive(call):
    metrics = MetricsReport()
    result = call(metrics)
    if isinstance(result, kernels.Matrix):
        result = result.data
    elif isinstance(result, tuple):
        result = [result[0], result[1].to_json()]
    return [result, metrics.to_json()]


def cli_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def number_rules():
    got = []
    for value in (3, 3.0, np.int64(3), np.float32(2.5), True, "3", 10**400, float("nan")):
        for rule in (rules.whole, rules.real):
            try:
                got.append(repr(rule("x", value)))
            except ValueError as e:
                got.append(str(e))
    return got


def stream_program():
    rng = np.random.default_rng(5)
    ops = [{"id": f"op{i}", "stream": int(rng.integers(0, 3)), "kind": ["h2d", "kernel", "d2h"][i % 3],
            "duration": [0, 2, 3.5, 7][i % 4], "waits_on": ["ev1"] if i in (9, 14) else []} for i in range(24)]
    scenario = {"engines": {"copy_h2d": 1, "copy_d2h": 2, "compute": 2}, "ops": ops,
                "events": [{"id": "ev1", "stream": ops[2]["stream"], "after_index": 0}]}
    ops, events, engines = streams.load_scenario(scenario)
    ops.append(streams.StreamOp("np", np.int64(1), "kernel", np.float64(1.5), ("ev1",)))
    schedule = streams.simulate_timeline(ops, events, engines)
    streams.validate_schedule(schedule, ops, events)
    report = streams.makespan_report(schedule, ops, events)
    return [schedule.to_json(), report.to_json(), streams.render_gantt(schedule)]


# The race tracker's sweep intervals, each without and with a conflict (tests/test_race_tracker.py).
SWEEPS = [(1, 16, [0] * 8, [0] * 8, program) for program in (
    up_sweep(step(3, 4)), up_sweep(step(5, 4)), down_sweep(step(3, 4)), down_sweep(step(5, 4)),
    hillis_steele(("local", 16, [0])), hillis_steele(("local", 18, [0])))] + [
    (2, 16, list(range(32)), [0] * 32, global_hillis_steele(store)) for store in (SHIFT0, ("shift", 2, [0]))]


def battery():
    """Everything the battery observes, as one JSON string."""
    m = kernels.Matrix(20, 20, [(3 * i) % 17 - 8 for i in range(400)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = [
            primitive(lambda mt: kernels.vector_add(list(range(300)), list(range(300, 0, -1)), metrics=mt)),
            primitive(lambda mt: kernels.matrix_add(m, m, metrics=mt)),
            primitive(lambda mt: kernels.matmul(m, m, "naive", metrics=mt)),
            primitive(lambda mt: kernels.matmul(m, m, "tiled", metrics=mt)),
            *(primitive(lambda mt, n=n, v=v: kernels.reduce_sum([i % 13 for i in range(n)], v, metrics=mt))
              for n in (64, 2048) for v in ("interleaved", "sequential")),
            *(primitive(lambda mt, n=n: kernels.inclusive_scan_hillis_steele(list(range(n)), metrics=mt))
              for n in (100, 1500)),
            primitive(lambda mt: kernels.exclusive_scan_blelloch(list(range(64)), metrics=mt)),
            *(launched(k, 256, size, mode) for mode in MODES
              for k, size in ((parent_kernel, 256), (scatter_kernel, 64), (out_of_bounds_kernel, 256),
                              (same_run_kernel, 32))),
            *(observe(case, "strict", batched_program) for case in (
                FORGOTTEN_READ_RACE, FORGOTTEN_READS_WITHOUT_RACE, CROSS_BARRIER_RACE, SHARED_RACE_IN_BLOCK_2)),
            *(observe(case, mode) for mode in MODES for case in SWEEPS),
            cli_output(["report", "--kernel", "exclusive_scan", "--size", "64", "--seed", "3"]),
            cli_output(["trace", "--kernel", "reduce_sum", "--size", "16", "--format", "json"]),
            cli_output(["pipeline", str(ROOT / "scenarios" / "three_stage_flow.json"), "--format", "json"]),
            stream_program(),
            memperf.estimate_training_flow(memperf.TrainingFlowSpec(4096, 512, 2, vram_capacity=1024,
                                                                    ram_capacity=2048)).to_json(),
            number_rules(),
        ]
    return json.dumps([got, [f"{w.category.__name__}: {w.message}" for w in caught]])


@pytest.fixture(scope="module")
def all_on():
    return battery()


@pytest.mark.parametrize("names", SWITCHES, ids=SWITCH_IDS)
def test_the_battery_is_byte_identical_with_the_path_off(names, all_on):
    with switched_off(names):
        assert battery() == all_on


# ----------------------------------------------------------------------
# random programs, under a switch drawn at random


def observed(case, kernel, names):
    with switched_off(names):
        return json.dumps([observe(case, mode, kernel) for mode in MODES])


@settings(max_examples=10, deadline=None)
@given(cases(st.lists(instructions(2, True), min_size=1, max_size=10)), st.sampled_from(SWITCHES))
def test_random_programs_are_byte_identical_with_a_path_off(case, names):
    assert observed(case, run_program, names) == observed(case, run_program, ())


@settings(max_examples=6, deadline=None)
@given(st.one_of(global_cases, block_cases), blocks_per_group, st.sampled_from(SWITCHES))
def test_random_groups_are_byte_identical_with_a_path_off(case, per_group, names):
    lanes = engine._GROUP_LANES if per_group is None else per_group * case[1]
    with group_width(lanes):
        assert observed(case, batched_program, names) == observed(case, batched_program, ())


# ----------------------------------------------------------------------
# the ablation's verdicts, on a tiny workload in place of bench/workloads.py


class TinyOp:
    def __init__(self, name, call):
        self.name = self.cls = name
        self.call = call

    def check(self, outcome):
        return None, json.dumps(outcome)


@pytest.fixture
def tiny(monkeypatch):
    ops = lambda rng, workdir: [  # noqa: E731
        TinyOp("vector_add", lambda: kernels.vector_add([1, 2, 3], [4, 5, 6])),
        TinyOp("whole", lambda: rules.whole("x", 3)),
    ]
    monkeypatch.setitem(sys.modules, "workloads", types.SimpleNamespace(WORKLOADS={"tiny": ops}))


def test_the_ablation_prints_the_aa_row_first_then_one_json_row_per_switch(tiny):
    out = io.StringIO()
    assert fast_paths.ablate("tiny", 1, 1, [("engine_block_groups",), ("cli_parser_cache",)], out, True) == 0
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [r["switch"] for r in rows] == ["A/A", "engine_block_groups", "cli_parser_cache"]
    assert all(set(r["classes"]) == {"vector_add", "whole"} and r["passes"] == 1 for r in rows)
    assert all(r["earns"] == [] for r in rows)  # one pass bounds no median
    assert all(len(v) == 3 and v[1] > 0 for r in rows for v in r["classes"].values())  # [low, median, high]


def test_the_ablation_times_the_op_build_under_each_switch_as_its_own_class(tiny, monkeypatch):
    built = []
    ops = sys.modules["workloads"].WORKLOADS["tiny"]
    monkeypatch.setitem(sys.modules["workloads"].WORKLOADS, "tiny",
                        lambda rng, workdir: built.append(engine._GROUP_LANES) or ops(rng, workdir))
    out = io.StringIO()
    assert fast_paths.ablate("tiny", 1, 1, [("engine_block_groups",)], out, True, build=True) == 0
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    assert all(list(r["classes"]) == [fast_paths.BUILD, "vector_add", "whole"] for r in rows)
    # the ops once, then each of the three arms in each of two passes (one warms up), one under the switch
    assert sorted(built) == [1] * 2 + [engine._GROUP_LANES] * 5


def test_a_class_earns_when_the_sign_test_interval_of_its_pass_ratios_lies_above_1():
    assert fast_paths._median_interval([float(i) for i in range(40, 0, -1)]) == (14.0, 27.0)
    assert fast_paths._median_interval([1.0] * 6) == (1.0, 1.0)
    assert all(x != x for x in fast_paths._median_interval([2.0] * 5))  # NaN: too few passes to bound


@pytest.mark.parametrize("old, new, error", [
    ("return int(value)", "return int(value) + 1", "error: wrong: whole: digest differs from all-on"),
    ("no such text", "", "error: wrong: 'no such text' occurs 0 times in whole"),
])
def test_the_ablation_exits_1_on_a_digest_that_differs_or_a_missing_old_string(tiny, monkeypatch, capsys,
                                                                               old, new, error):
    monkeypatch.setitem(PATHS, "wrong", FastPath("wrong", "", ("tiny",), rewrites=((rules.whole, old, new),)))
    assert fast_paths.ablate("tiny", 1, 1, [("wrong",)], io.StringIO()) == 1
    assert error in capsys.readouterr().err
