"""The benchmark's workloads: inputs made from a seed, a fixed op list, oracles.

An op is one public-API call: a primitive, a ``cli.main`` call, one stream
program or one memperf model run. ``Op.call`` is the timed part; ``Op.check``
runs after the clock stops, compares the outcome with an oracle and returns
``(problem, digest)``. ``problem`` is ``None`` when the result is right;
``digest`` fingerprints the outcome (result, ``MetricsReport`` JSON, race
warnings, captured CLI output) so a repeat of the op can be compared exactly.

Why each workload exists:

- ``grid_stream``: many blocks with a few instructions each over large
  global buffers. Per-block set-up and whole-buffer race state dominate, and
  ``mem.access_log`` grows with the grid; bank analysis barely runs.
- ``block_compute``: at most 16 blocks with hundreds of instructions each,
  shared memory and barriers. The cost per instruction (bank analysis,
  branches) dominates and the CLI layer is exercised.
- ``host_models``: stream programs and memperf models only; the engine is
  never touched, so engine changes should not move it.

Within a workload the ops are sized so that one op class sits in the middle
of the latency order and the costliest classes fill the tail; a median or a
tail that falls between two op classes of different cost would jump between
them from run to run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from warpsim import DeviceMemory, LaunchConfig, MetricsReport, Simulator, cli, kernels, memperf, streams

# Seconds after which an op is interrupted and counted as failed: 5x to 30x
# the op's slowest median on a 2-core x86 host with Python 3.11. Only the
# zero-length stream-scheduler hang is expected to reach them.
DEADLINE_S = {"engine": 10.0, "stream_short": 0.03, "stream_long": 3.0, "memperf": 3.0}


@dataclass
class Op:
    name: str  # unique within a pass
    cls: str  # op class: one warm-up call per class
    call: Callable[[], Any]
    check: Callable[[Any], tuple[Optional[str], str]]
    deadline_s: float
    stream: bool = False  # an overrun counts as a hung stream program


def digest(*parts: Any) -> str:
    """SHA-256 over arrays (dtype and bytes), strings and JSON-able values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, (bytes, str)):
            h.update(part.encode() if isinstance(part, str) else part)
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _ints(rng: np.random.Generator, n: int, low: int = 0, high: int = 100) -> list:
    return rng.integers(low, high, size=n).tolist()


def _mismatch(what: str, got, want) -> Optional[str]:
    if np.array_equal(np.asarray(got), np.asarray(want)):
        return None
    return f"{what} differs from the numpy oracle"


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _write_json(workdir: Path, data: Any) -> str:
    """An input file for the CLI, named after its contents."""
    text = json.dumps(data)
    path = workdir / f"{digest(text)[:16]}.json"
    path.write_text(text)
    return str(path)


def _copies(count: int, build: Callable[[], Op]) -> list[Op]:
    """``count`` ops of one class, each on inputs of its own."""
    ops = [build() for _ in range(count)]
    for i, op in enumerate(ops):
        op.name = f"{op.cls}#{i}"
    return ops


# ----------------------------------------------------------------------
# primitives called directly


def _primitive(name: str, fn: Callable[[MetricsReport], Any], oracle: Callable[[Any], Optional[str]]) -> Op:
    """``fn(metrics)`` calls one primitive; ``oracle(result)`` checks it."""

    def call():
        metrics = MetricsReport()
        return fn(metrics), metrics

    def check(outcome):
        result, metrics = outcome
        if isinstance(result, kernels.Matrix):
            flat = result.data
        elif isinstance(result, tuple):
            flat = [result[0], result[1].to_json()]
        else:
            flat = result
        return oracle(result), digest(flat, metrics.to_json())

    return Op(name, name, call, check, DEADLINE_S["engine"])


def _vector_add(rng, n: int) -> Op:
    a, b = _ints(rng, n), _ints(rng, n)
    want = np.add(a, b)
    return _primitive(
        f"vector_add.n{n}",
        lambda m: kernels.vector_add(a, b, metrics=m),
        lambda r: _mismatch("vector_add", r, want),
    )


def _matrix_add(rng, size: int) -> Op:
    a = kernels.Matrix(size, size, _ints(rng, size * size))
    b = kernels.Matrix(size, size, _ints(rng, size * size))
    want = np.add(a.data, b.data)
    return _primitive(
        f"matrix_add.{size}x{size}",
        lambda m: kernels.matrix_add(a, b, metrics=m),
        lambda r: _mismatch("matrix_add", r.data, want),
    )


def _matmul(rng, size: int, variant: str) -> Op:
    a = kernels.Matrix(size, size, _ints(rng, size * size, -9, 10))
    b = kernels.Matrix(size, size, _ints(rng, size * size, -9, 10))
    want = (np.array(a.data).reshape(size, size) @ np.array(b.data).reshape(size, size)).ravel()
    return _primitive(
        f"matmul.{variant}.{size}",
        lambda m: kernels.matmul(a, b, variant, metrics=m),
        lambda r: _mismatch("matmul", r.data, want),
    )


def _last_row_check(steps: list, want: list) -> Optional[str]:
    """A step table's last row equals the sum (reduce) or the prefix sum (scan)."""
    last = steps[-1]
    if len(want) == 1:
        cells = [c for c in last if c is not None]
        return None if cells == want else "step table's last row is not the sum"
    return None if last == want else "step table's last row is not the prefix sum"


def _reduce(rng, n: int, variant: str) -> Op:
    values = _ints(rng, n)
    total = int(np.sum(values))
    single_block = n <= 1024

    def oracle(result):
        got, trace = result
        if got != total:
            return "reduce_sum differs from the numpy sum"
        if trace.rows[0] != values:
            return "step table's first row is not the input"
        if single_block:
            return _last_row_check(trace.rows, [total])
        return None if trace.n_steps == 0 else "multi-block reduce_sum returned step rows"

    return _primitive(
        f"reduce_sum.{variant}.n{n}",
        lambda m: kernels.reduce_sum(values, variant, metrics=m),
        oracle,
    )


def _inclusive_scan(rng, n: int) -> Op:
    values = _ints(rng, n)
    want = np.cumsum(values).tolist()

    def oracle(result):
        out, trace = result
        return _mismatch("inclusive_scan", out, want) or _last_row_check(trace.rows, want)

    return _primitive(
        f"inclusive_scan.n{n}",
        lambda m: kernels.inclusive_scan_hillis_steele(values, metrics=m),
        oracle,
    )


def _exclusive_scan(rng, n: int) -> Op:
    values = _ints(rng, n)
    want = np.concatenate([[0], np.cumsum(values)[:-1]])
    return _primitive(
        f"exclusive_scan.n{n}",
        lambda m: kernels.exclusive_scan_blelloch(values, metrics=m),
        lambda r: _mismatch("exclusive_scan", r, want),
    )


# ----------------------------------------------------------------------
# user kernels launched directly

CHILD_BLOCKS = 2
SCATTER_FAN_IN = 4


def child_scale_kernel(ctx, src, dst, base):
    i = base + ctx.gx
    dst[i] = ctx.mul(src[i], 3)


def parent_launch_kernel(ctx, src, dst):
    """Thread 0 of every block launches one child grid over the block's span."""
    base = ctx.block_idx.x * ctx.block_dim.x

    def launch():
        ctx.launch(child_scale_kernel, CHILD_BLOCKS, ctx.block_dim.x // CHILD_BLOCKS, (src, dst, base))

    ctx.if_(ctx.thread_idx.x == 0, launch)


def scatter_kernel(ctx, src, dst):
    """Four consecutive threads store to each address of ``dst``."""
    i = ctx.gx
    dst[i // SCATTER_FAN_IN] = src[i]


def _launch_op(name: str, kernel, n: int, out_len: int, values: list, mode: str, oracle) -> Op:
    def call():
        mem = DeviceMemory()
        src = mem.alloc("src", values)
        dst = mem.alloc("dst", out_len)
        report = Simulator().launch(kernel, LaunchConfig(n // 256, 256), mem, (src, dst), mode=mode)
        return dst.data.copy(), report, list(mem.race_warnings)

    def check(outcome):
        out, report, warnings = outcome
        return oracle(out, report, warnings), digest(out, report.to_json(), warnings)

    return Op(name, name, call, check, DEADLINE_S["engine"])


def _child_launch(rng, n: int) -> Op:
    values = _ints(rng, n)
    want = np.multiply(values, 3)

    def oracle(out, report, warnings):
        if report.child_launches != n // 256:
            return f"expected {n // 256} child launches, got {report.child_launches}"
        return _mismatch("child-launch output", out, want)

    return _launch_op(f"child_launch.n{n}", parent_launch_kernel, n, n, values, "strict", oracle)


def _permissive_scatter(rng, n: int) -> Op:
    values = _ints(rng, n)
    want = np.asarray(values)[SCATTER_FAN_IN - 1 :: SCATTER_FAN_IN]  # highest thread id wins

    def oracle(out, report, warnings):
        if not warnings:
            return "permissive scatter raised no race warning"
        return _mismatch("permissive scatter", out, want)

    return _launch_op(
        f"permissive_scatter.n{n}", scatter_kernel, n, n // SCATTER_FAN_IN, values, "permissive", oracle
    )


# ----------------------------------------------------------------------
# CLI step tables and reports


def _cli_op(
    name: str, argv: list[str], oracle, cls: str = "", deadline_s: float = DEADLINE_S["engine"], stream: bool = False
) -> Op:
    """``oracle(stdout)`` checks the output of a ``warpsim`` command that exited 0."""

    def check(outcome):
        code, out, err = outcome
        if code != 0:
            return f"exit code {code}: {err.strip()}", digest(code, out, err)
        return oracle(out), digest(code, out, err)

    return Op(name, cls or name, lambda: _run_cli(argv), check, deadline_s, stream)


def _cli_trace_json(rng, workdir: Path, n: int, variant: str) -> Op:
    values = _ints(rng, n)
    path = _write_json(workdir, values)
    total = int(np.sum(values))

    def oracle(out):
        payload = json.loads(out)
        if payload["result"] != total:
            return "reduce_sum result differs from the numpy sum"
        return _last_row_check(payload["steps"], [total])

    argv = ["trace", "--kernel", "reduce_sum", "--variant", variant, "--input", path, "--format", "json"]
    return _cli_op(f"cli.trace.reduce_sum.{variant}.n{n}", argv, oracle)


def _cli_trace_text(rng, workdir: Path, n: int) -> Op:
    values = _ints(rng, n)
    path = _write_json(workdir, values)
    want = np.cumsum(values).tolist()

    def oracle(out):
        last = [int(cell) for cell in out.splitlines()[-1].split()[1:]]
        return None if last == want else "step table's last row is not the prefix sum"

    argv = ["trace", "--kernel", "inclusive_scan", "--input", path, "--one-based"]
    return _cli_op(f"cli.trace.inclusive_scan.n{n}", argv, oracle)


def _cli_report(rng, workdir: Path, kernel: str, n: int, variant: Optional[str] = None) -> Op:
    """``warpsim report`` must print the metrics of the same call made directly."""
    values = _ints(rng, n)
    path = _write_json(workdir, values)
    direct = MetricsReport()
    if kernel == "reduce_sum":
        kernels.reduce_sum(values, variant, metrics=direct)
    else:
        kernels.exclusive_scan_blelloch(values, metrics=direct)
    want = direct.to_json()

    def oracle(out):
        return None if json.loads(out)["metrics"] == want else "CLI report differs from the direct call's metrics"

    argv = ["report", "--kernel", kernel, "--input", path] + (["--variant", variant] if variant else [])
    return _cli_op(f"cli.report.{kernel}{'.' + variant if variant else ''}.n{n}", argv, oracle)


# ----------------------------------------------------------------------
# stream programs

KINDS = ("h2d", "kernel", "d2h")
STREAMS_PER_PROGRAM = 4
EVENT_SHARE = 0.1
# (copy_h2d, copy_d2h, compute) engine counts, cycled over the programs of a
# pass so that every seed schedules onto the same mix of machines
ENGINE_MIXES = ((1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 2, 2), (2, 2, 1))


def stream_program(rng, n_ops: int, zero_ops: int, engines: tuple) -> dict:
    """A random scenario in the CLI's schema; ops wait only on earlier events.

    ``zero_ops`` ops at random positions have zero duration, like the empty
    tail of a batch; every other op lasts 1 to 20 time units.
    """
    zero = set(rng.choice(n_ops, size=zero_ops, replace=False).tolist())
    ops, events, per_stream = [], [], [0] * STREAMS_PER_PROGRAM
    for i in range(n_ops):
        sid = int(rng.integers(0, STREAMS_PER_PROGRAM))
        op = {
            "id": f"op{i}",
            "stream": sid,
            "kind": KINDS[int(rng.integers(0, len(KINDS)))],
            "duration": 0 if i in zero else int(rng.integers(1, 21)),
            "waits_on": [],
        }
        if events and rng.random() < EVENT_SHARE:
            op["waits_on"] = [events[int(rng.integers(0, len(events)))]["id"]]
        ops.append(op)
        if rng.random() < EVENT_SHARE:
            events.append({"id": f"ev{i}", "stream": sid, "after_index": per_stream[sid]})
        per_stream[sid] += 1
    h2d, d2h, compute = engines
    return {"engines": {"copy_h2d": h2d, "copy_d2h": d2h, "compute": compute}, "ops": ops, "events": events}


def _check_schedule(schedule, report, ops, events) -> Optional[str]:
    """The schedule validates; the critical path is a chain of touching ops ending at the makespan."""
    try:
        streams.validate_schedule(schedule, ops, events)
    except ValueError as e:
        return f"invalid schedule: {e}"
    path = report.critical_path
    if not path:
        return "empty critical path"
    entries = schedule.entries
    if entries[path[-1]].end != schedule.makespan:
        return "critical path does not end at the makespan"
    for prev, cur in zip(path, path[1:]):
        if entries[prev].end != entries[cur].start:
            return f"critical path ops {prev!r} and {cur!r} do not touch"
    return None


def _stream_api(name: str, cls: str, scenario: dict) -> Op:
    ops, events, engines = streams.load_scenario(scenario)

    def call():
        schedule = streams.simulate_timeline(ops, events, engines)
        streams.validate_schedule(schedule, ops, events)
        report = streams.makespan_report(schedule, ops, events)
        return schedule, report, streams.render_gantt(schedule)

    def check(outcome):
        schedule, report, gantt = outcome
        return _check_schedule(schedule, report, ops, events), digest(schedule.to_json(), report.to_json(), gantt)

    return Op(name, cls, call, check, DEADLINE_S[cls], stream=True)


def _stream_cli(name: str, cls: str, scenario: dict, workdir: Path) -> Op:
    path = _write_json(workdir, scenario)
    ops, events, _ = streams.load_scenario(scenario)
    by_id = {op.id: op for op in ops}

    def oracle(out):
        payload = json.loads(out)
        sched = payload["schedule"]
        entries = {
            e["id"]: streams.ScheduledOp(by_id[e["id"]], e["engine"], e["start"], e["end"]) for e in sched["ops"]
        }
        schedule = streams.Schedule(entries, sched["makespan"], [])
        return _check_schedule(schedule, streams.MakespanReport(**payload["report"]), ops, events)

    argv = ["pipeline", path, "--format", "json"]
    return _cli_op(name, argv, oracle, cls="cli_" + cls, deadline_s=DEADLINE_S[cls], stream=True)


# ----------------------------------------------------------------------
# memperf models


def zipf_lines(rng, length: int, universe: int, alpha: float = 1.1) -> list:
    """A line-address trace whose popularity follows a Zipf law."""
    ranks = np.empty(0, dtype=np.int64)
    while ranks.size < length:
        draw = rng.zipf(alpha, size=2 * length)
        ranks = np.concatenate([ranks, draw[draw <= universe]])
    return rng.permutation(universe)[ranks[:length] - 1].tolist()


def naive_lru(trace: list, capacity: int) -> tuple[int, int]:
    """Reference LRU over a plain list, most recent last."""
    resident: list = []
    hits = 0
    for line in trace:
        if line in resident:
            resident.remove(line)
            hits += 1
        elif capacity and len(resident) >= capacity:
            resident.pop(0)
        if capacity:
            resident.append(line)
    return hits, len(trace) - hits


def _cache(name: str, trace: list, capacity: int, exact: bool) -> Op:
    """``exact`` compares with the naive LRU; otherwise the totals are checked."""
    want = naive_lru(trace, capacity) if exact else None
    distinct = len(set(trace))

    def check(result):
        hits, misses = result
        if hits + misses != len(trace):
            return "hits + misses is not the trace length", digest(result)
        if want is not None and result != want:
            return "LRU differs from the naive list model", digest(result)
        if distinct <= capacity and misses != distinct:
            return "a working set below capacity missed more than once per line", digest(result)
        return None, digest(result)

    return Op(name, "memperf", lambda: memperf.simulate_cache(trace, memperf.CacheModel(capacity)), check, DEADLINE_S["memperf"])


def _l3(name: str, traces: list, total_lines: int, policy: str) -> Op:
    cfg = memperf.L3Config(total_lines, len(traces), policy)

    def check(result):
        ok = all(h + m == len(t) for (h, m), t in zip(result, traces))
        return (None if ok else "per-core hits + misses is not the trace length"), digest(result)

    return Op(name, "memperf", lambda: memperf.simulate_l3(traces, cfg), check, DEADLINE_S["memperf"])


def _flow(name: str, dataset: int, batch: int, vram: int, ram: int) -> Op:
    spec = memperf.TrainingFlowSpec(dataset, batch, 3, vram_capacity=vram, ram_capacity=ram)

    def check(report):
        moved = [(e.disk_to_ram_bytes, e.ram_to_vram_bytes) for e in report.epochs]
        if dataset <= vram:  # resident after the first epoch
            ok = moved == [(dataset, dataset)] + [(0, 0)] * (len(moved) - 1)
        else:  # a cyclic sweep larger than RAM misses every batch under LRU
            ok = dataset > ram and moved == [(dataset, dataset)] * len(moved)
        return (None if ok else f"unexpected staged bytes {moved}"), digest(report.to_json())

    return Op(name, "memperf", lambda: memperf.estimate_training_flow(spec), check, DEADLINE_S["memperf"])


# ----------------------------------------------------------------------
# workloads


def grid_stream(rng, workdir: Path) -> list[Op]:
    """The median falls among the 110-140 ms ops; the three ops near 350 ms fill the tail."""
    return [
        _vector_add(rng, 1 << 16),
        _matrix_add(rng, 256),
        _reduce(rng, 1 << 16, "interleaved"),
        _inclusive_scan(rng, 4096),
        _child_launch(rng, 1 << 15),
        _vector_add(rng, 1 << 17),
        _permissive_scatter(rng, 1 << 16),
        _reduce(rng, 1 << 16, "sequential"),
        _matrix_add(rng, 192),
    ]


def block_compute(rng, workdir: Path) -> list[Op]:
    """Sixteen cheaper ops, twelve exclusive scans holding the median, twelve
    dearer ops, and one of each matrix product. With about 20 passes a run,
    the tail (the 11th slowest op) falls mid-way through the naive product's
    samples."""
    return [
        *_copies(4, lambda: _reduce(rng, 1024, "interleaved")),
        *_copies(4, lambda: _reduce(rng, 1024, "sequential")),
        *_copies(4, lambda: _cli_trace_json(rng, workdir, 1024, "sequential")),
        *_copies(4, lambda: _cli_report(rng, workdir, "reduce_sum", 1024, "interleaved")),
        *_copies(12, lambda: _exclusive_scan(rng, 2048)),
        *_copies(4, lambda: _cli_report(rng, workdir, "exclusive_scan", 2048)),
        *_copies(4, lambda: _inclusive_scan(rng, 1024)),
        *_copies(4, lambda: _cli_trace_text(rng, workdir, 1024)),
        _matmul(rng, 48, "tiled"),
        _matmul(rng, 64, "naive"),
    ]


LONG_PROGRAMS, LONG_OPS, LONG_CLI_EVERY = 6, 2000, 3
SHORT_PROGRAMS, SHORT_OPS, SHORT_ZERO_OPS, SHORT_CLI_EVERY = 400, 100, 1, 5


def host_models(rng, workdir: Path) -> list[Op]:
    """Short programs hold the median. With about four passes a run, the tail
    (the 11th slowest op) falls mid-way through the long programs' samples."""
    ops: list[Op] = []
    for cls, count, n_ops, zero_ops, cli_every in (
        ("stream_long", LONG_PROGRAMS, LONG_OPS, 0, LONG_CLI_EVERY),
        ("stream_short", SHORT_PROGRAMS, SHORT_OPS, SHORT_ZERO_OPS, SHORT_CLI_EVERY),
    ):
        for i in range(count):
            scenario = stream_program(rng, n_ops, zero_ops, ENGINE_MIXES[i % len(ENGINE_MIXES)])
            name = f"{cls}.{i}"
            if i % cli_every == cli_every - 1:
                ops.append(_stream_cli("cli_" + name, cls, scenario, workdir))
            else:
                ops.append(_stream_api(name, cls, scenario))
    universe = 4096
    ops += [
        _cache("simulate_cache.below_capacity", zipf_lines(rng, 100_000, universe), 2 * universe, exact=False),
        _cache("simulate_cache.above_capacity", zipf_lines(rng, 100_000, universe), universe // 8, exact=False),
        _cache("simulate_cache.naive_checked", zipf_lines(rng, 2000, 256), 64, exact=True),
    ]
    core_traces = [zipf_lines(rng, 25_000, 2048) for _ in range(4)]
    ops += [
        _l3("simulate_l3.static", core_traces, 2048, "static"),
        _l3("simulate_l3.dynamic", core_traces, 2048, "dynamic"),
        _flow("training_flow.fits_vram", 4 << 20, 1 << 10, 8 << 20, 16 << 20),
        _flow("training_flow.overflows_ram", 4 << 20, 1 << 10, 1 << 20, 2 << 20),
    ]
    return ops


WORKLOADS = {"grid_stream": grid_stream, "block_compute": block_compute, "host_models": host_models}
