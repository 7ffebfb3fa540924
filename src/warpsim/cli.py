"""Command-line front end.

Commands: run (execute a primitive and report metrics), trace (step tables),
report (metrics only), pipeline (stream scenario -> schedule), memflow
(training data-flow estimate). Exit codes: 0 success, 2 usage or input
problem, 3 simulation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

from . import memperf, streams
from .core import MetricsReport, SimError
from .kernels import (
    Matrix,
    StepTrace,
    exclusive_scan_blelloch,
    inclusive_scan_hillis_steele,
    matmul,
    matrix_add,
    reduce_sum,
    vector_add,
)

USAGE_EXIT = 2
SIM_EXIT = 3

ARRAY_KERNELS = ("vector_add", "reduce_sum", "inclusive_scan", "exclusive_scan")
MATRIX_KERNELS = ("matrix_add", "matmul")
ALL_KERNELS = ARRAY_KERNELS + MATRIX_KERNELS
TRACE_KERNELS = ("reduce_sum", "inclusive_scan")
MAX_GENERATED = 1 << 22  # elements of one generated input: --size for an array, --size squared for a matrix
MAX_MATMUL_WORK = 1 << 24  # multiply-adds m * n * p of one matmul, generated or --input: --size 256


class UsageError(Exception):
    pass


class TraceUnsupported(UsageError):
    pass


def _load_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise UsageError(f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}") from e


def _check_numbers(path: str, values: list, cols: int = 0) -> None:
    """Reject a list, bool, null, string, NaN or infinity (1e400 reads as one) in ``values``.

    All-int input must fit int64. The error names the file and the element's index, its row and column if
    ``cols``. All-int input in range takes three passes, none of them in Python.
    """
    def at(i: int) -> str:
        return f"[{i // cols}][{i % cols}]" if cols else f"[{i}]"

    if not set(map(type, values)) <= {int}:
        for i, v in enumerate(values):
            if type(v) is list:
                raise UsageError(f"{path}: expected a flat JSON array of numbers")
            if type(v) is not int and not (type(v) is float and math.isfinite(v)):
                raise UsageError(f"{path}: element {at(i)} must be a finite number, got {json.dumps(v)}")
    elif values and not -(2**63) <= min(values) <= max(values) < 2**63:
        i = next(i for i, v in enumerate(values) if not -(2**63) <= v < 2**63)
        raise UsageError(f"{path}: element {at(i)} does not fit int64, got {values[i]}")


def _load_array(path: str) -> list:
    data = _load_json(path)
    if not isinstance(data, list):
        raise UsageError(f"{path}: expected a flat JSON array of numbers")
    _check_numbers(path, data)
    return data


def _load_matrix(path: str) -> Matrix:
    data = _load_json(path)
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise UsageError(f"{path}: expected a JSON array of rows")
    try:
        m = Matrix.from_rows(data)
    except ValueError as e:
        raise UsageError(f"{path}: {e}") from e
    _check_numbers(path, m.data, m.cols)
    return m


def _inputs(arg: Optional[str], expected: int, loader) -> Optional[list]:
    if arg is None:
        return None
    paths = [p for p in arg.split(",") if p]
    if len(paths) != expected:
        raise UsageError(f"--input expects {expected} comma-separated path(s), got {len(paths)}")
    return [loader(p) for p in paths]


def _check_size(args, name: str, square: bool = False) -> None:
    """Reject a missing ``--size``, one below 1, or one that generates more than ``MAX_GENERATED`` elements."""
    if args.size is None or args.size < 1:
        raise UsageError(f"--size must be >= 1 to generate inputs for {name}")
    elements = args.size**2 if square else args.size
    if elements > MAX_GENERATED:
        raise UsageError(f"--size {args.size} generates {elements} elements per input for {name}, "
                         f"more than the cap of {MAX_GENERATED}")


def _random_array(rng: np.random.Generator, size: int) -> list:
    return rng.integers(0, 100, size=size).tolist()


def _random_matrix(rng: np.random.Generator, size: int) -> Matrix:
    return Matrix(size, size, rng.integers(-9, 10, size=size * size).tolist())


def _run_primitive(args) -> tuple[Any, Optional[StepTrace], MetricsReport]:
    """Execute the named kernel; returns (result, trace_or_none, metrics)."""
    name = args.kernel
    metrics = MetricsReport()
    rng = np.random.default_rng(args.seed)
    if args.block_dim is not None and name != "vector_add":
        raise UsageError(f"--block-dim does not apply to {name}: its block shape is algorithmic")
    if args.variant is not None and name not in ("reduce_sum", "matmul"):
        raise UsageError(f"--variant does not apply to {name}: it has one variant")
    if name in ARRAY_KERNELS:
        n_inputs = 2 if name == "vector_add" else 1
        arrays = _inputs(args.input, n_inputs, _load_array)
        if arrays is None:
            _check_size(args, name)
            arrays = [_random_array(rng, args.size) for _ in range(n_inputs)]
        if name == "vector_add":
            block = 256 if args.block_dim is None else args.block_dim
            result = vector_add(arrays[0], arrays[1], threads_per_block=block, metrics=metrics)
            return result, None, metrics
        if name == "reduce_sum":
            total, trace = reduce_sum(arrays[0], args.variant or "interleaved", metrics=metrics)
            return total, trace, metrics
        if name == "inclusive_scan":
            out, trace = inclusive_scan_hillis_steele(arrays[0], metrics=metrics)
            return out, trace, metrics
        return exclusive_scan_blelloch(arrays[0], metrics=metrics), None, metrics

    matrices = _inputs(args.input, 2, _load_matrix)
    if matrices is None:
        _check_size(args, name, square=True)
        matrices = [_random_matrix(rng, args.size) for _ in range(2)]
    if name == "matrix_add":
        return matrix_add(matrices[0], matrices[1], metrics=metrics), None, metrics
    a, b = matrices
    work = a.rows * a.cols * b.cols
    if a.cols == b.rows and work > MAX_MATMUL_WORK:  # the product's time grows with m * n * p, not with its inputs
        raise UsageError(f"matmul of {a.rows}x{a.cols} by {b.rows}x{b.cols} takes {work} multiply-adds, "
                         f"more than the cap of {MAX_MATMUL_WORK}")
    return matmul(a, b, args.variant or "naive", metrics=metrics), None, metrics


def _result_json(result: Any) -> Any:
    if isinstance(result, Matrix):
        return result.to_rows()
    return result


def _result_text(result: Any) -> str:
    if isinstance(result, Matrix):
        return "\n".join(" ".join(str(v) for v in row) for row in result.to_rows())
    if isinstance(result, list):
        return " ".join(str(v) for v in result)
    return str(result)


def _dump(obj: Any) -> str:
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as e:
        raise UsageError("the result holds NaN or an infinity, which JSON cannot hold") from e


def _emit(text: str, output: Optional[str]) -> None:
    sys.stdout.write(text)
    if output:
        Path(output).write_text(text)


def cmd_run(args) -> int:
    result, _, metrics = _run_primitive(args)
    payload = {
        "kernel": args.kernel,
        "result": _result_json(result),
        "metrics": metrics.to_json(),
    }
    if args.format == "json":
        _emit(_dump(payload), args.output)
    else:
        lines = [_result_text(result)]
        lines += [f"{k}: {v}" for k, v in metrics.to_json().items() if k != "per_kernel"]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_report(args) -> int:
    _, _, metrics = _run_primitive(args)
    _emit(_dump({"kernel": args.kernel, "metrics": metrics.to_json()}), args.output)
    return 0


def cmd_trace(args) -> int:
    if args.kernel not in TRACE_KERNELS:
        raise TraceUnsupported(
            f"kernel {args.kernel!r} does not emit a step table; choose from {TRACE_KERNELS}"
        )
    result, trace, _ = _run_primitive(args)
    assert trace is not None
    if args.format == "json":
        _emit(_dump({"kernel": args.kernel, "result": _result_json(result), "steps": trace.to_json()}), args.output)
    else:
        _emit(trace.to_text(one_based=args.one_based) + "\n", args.output)
    return 0


def cmd_pipeline(args) -> int:
    ops, events, engines = streams.load_scenario(_load_json(args.scenario))
    schedule = streams.simulate_timeline(ops, events, engines)
    report = streams.makespan_report(schedule, ops, events)
    if args.format == "json":
        _emit(_dump({"schedule": schedule.to_json(), "report": report.to_json()}), args.output)
    else:
        text = streams.render_gantt(schedule)
        text += f"\noverlap savings: {report.overlap_savings}\n"
        _emit(text, args.output)
    return 0


def cmd_memflow(args) -> int:
    spec = memperf.TrainingFlowSpec.from_json(_load_json(args.spec))
    report = memperf.estimate_training_flow(spec)
    if args.format == "json":
        _emit(_dump(report.to_json()), args.output)
    else:
        lines = []
        for e in report.epochs:
            lines.append(
                f"epoch {e.epoch}: time={e.time:.3f} "
                f"disk_to_ram={e.disk_to_ram_bytes} ram_to_vram={e.ram_to_vram_bytes}"
            )
        lines.append(f"total time: {report.total_time:.3f}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _add_kernel_options(p: argparse.ArgumentParser, kernels: Sequence[str]) -> None:
    p.add_argument("--kernel", required=True, choices=kernels)
    p.add_argument(
        "--size", type=int, default=None,
        help="generated input size: elements of an array, rows of a square matrix; at most 4194304 (2^22) "
        "elements, and for matmul at most 16777216 (2^24) multiply-adds (--size 256)",
    )
    p.add_argument("--block-dim", type=int, default=None, help="threads per block (vector_add only)")
    p.add_argument("--seed", type=int, default=0, help="64-bit seed for generated inputs")
    p.add_argument("--variant", default=None, help="kernel variant (e.g. interleaved, tiled)")
    p.add_argument("--input", default=None, help="comma-separated JSON input paths")
    p.add_argument("--output", default=None, help="also write the rendered output to this file")
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="warpsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a primitive on the virtual GPU")
    _add_kernel_options(p_run, ALL_KERNELS)
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="run a primitive and emit only its metrics")
    _add_kernel_options(p_report, ALL_KERNELS)
    p_report.set_defaults(func=cmd_report)

    p_trace = sub.add_parser("trace", help="emit the step table of a traced primitive")
    _add_kernel_options(p_trace, ALL_KERNELS)
    p_trace.add_argument(
        "--one-based", action="store_true", help="label thread columns T_1..T_n"
    )
    p_trace.set_defaults(func=cmd_trace)

    p_pipe = sub.add_parser("pipeline", help="schedule a stream scenario file")
    p_pipe.add_argument("scenario")
    p_pipe.add_argument("--output", default=None)
    p_pipe.add_argument("--format", choices=("text", "json"), default="text")
    p_pipe.set_defaults(func=cmd_pipeline)

    p_flow = sub.add_parser("memflow", help="estimate a training data-flow spec file")
    p_flow.add_argument("spec")
    p_flow.add_argument("--output", default=None)
    p_flow.add_argument("--format", choices=("text", "json"), default="json")
    p_flow.set_defaults(func=cmd_memflow)
    return parser


# Building the parser costs about 20 parses; parse_args leaves it as it was and
# help width is read when help is formatted, so one parser serves every call.
_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is reported as one error line
            return args.func(args)
    except (UsageError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_EXIT
    except (streams.CyclicDependency, streams.UnknownEvent) as e:
        print(f"scheduling error: {e}", file=sys.stderr)
        return SIM_EXIT
    except SimError as e:
        print(f"simulation error: {json.dumps(e.to_json())}", file=sys.stderr)
        return SIM_EXIT


if __name__ == "__main__":
    sys.exit(main())
