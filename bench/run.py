"""warpsim benchmark: one workload run, one JSON result line.

    python3 bench/run.py --workload grid_stream --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/``; a
checkout without it exits with code 2 and prints no result.

A run is one process with one client in a closed loop: each op starts when
the previous one returns. Set-up (import, input generation from ``--seed``,
one warm-up call per op class) is repeated ``SETUP_REPEATS`` times and its
median reported. Then the workload's fixed op list runs for a fixed number
of passes, ``round(seconds / PASS_S[workload])``, so a pass count, not a
clock, bounds the run and the sample set is the same on every commit. Every
op runs under a ``signal.setitimer`` deadline and is checked against an
oracle and against its own earlier repeats.

Host times are reported at a reference machine speed. On a shared 2-vCPU
VM the interpreter's speed drifts by 20% and more over seconds to minutes,
much of it alike for all code. So a fixed pure-Python loop is timed between
ops, at most every ``REF_EVERY_S``, and every time-valued metric is scaled
by ``REF_NOMINAL_S / median(loop time)``, the median taken over the phase
the metric was measured in: set-up for ``setup_s``, the passes for the rest.
The loop runs no warpsim code, so a change to warpsim moves the scaled
figures exactly as it moves the raw ones. The raw figures and the scales are
kept in the result file.

``--trace 0`` reports the end-to-end metrics, then runs one pass under the
tracer to record every exact count. ``--trace 1`` splits the passes evenly
between untraced and traced ones, adds a ``vector_add`` size sweep, and
reports the per-layer metrics. Each run writes its full result (metrics,
counts, digests, failures, versions) to ``bench/results/``; a traced run
also writes its spans there. ``bench/report.py`` prints result files.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

SETUP_REPEATS = 3
# Nominal seconds of one untraced pass on a 2-core x86 host with Python 3.11
# and numpy 2.4; only used to turn --seconds into a pass count.
PASS_S = {"grid_stream": 1.8, "block_compute": 1.0, "host_models": 4.8}
MIN_PASSES = 3
SWEEP_SIZES = [1 << k for k in range(14, 19)]
SWEEP_OP = -1  # op id of the sweep's spans, outside every pass
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
REF_ITERATIONS = 60_000
REF_EVERY_S = 0.1
REF_NOMINAL_S = 0.005  # about the loop's median time on the host PASS_S describes
TIME_UNITS = ("s", "ms", "us", "ns")


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline()


class SpeedProbe:
    """Times the reference loop between ops to follow the machine's speed."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last < REF_EVERY_S:
            return
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_ITERATIONS):
            acc += (i * 7) % 13
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def scale(self, first: int = 0, last: Optional[int] = None) -> float:
        """Factor that turns host seconds measured while ``samples[first:last]``
        were taken into seconds at the nominal speed."""
        return REF_NOMINAL_S / statistics.median(self.samples[first:last])


def run_op(op, probe: SpeedProbe, tracer=None, seq=-1):
    """One timed call; returns (seconds, outcome, error). Never raises."""
    probe.maybe_sample()
    if tracer is not None:
        tracer.begin_op(seq)
    outcome = error = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
        try:
            outcome = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)  # an alarm due here still lands below
    except Deadline:
        error = "deadline"
    except Exception as e:  # a failed op is recorded, the run goes on
        error = f"{type(e).__name__}: {e}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    return elapsed, outcome, error


class Ledger:
    """Outcomes of every op: oracle failures, overruns and determinism."""

    def __init__(self):
        self.first_digest: dict[str, str] = {}
        self.first_counts: dict[str, tuple] = {}
        self.failures: list[dict] = []
        self.wrong = 0  # wrong results, unexpected errors, non-determinism

    def record(self, op, where: str, elapsed: float, outcome, error, counts=None) -> bool:
        """True when the op completed with a right, repeatable result.

        ``counts`` are the op's traced span counts and tallies, when traced.
        """
        if error is None:
            error, dig = op.check(outcome)
            if error is None and self.first_digest.setdefault(op.name, dig) != dig:
                error = "result or metrics differ from an earlier repeat of the same op"
            if error is None and counts is not None and self.first_counts.setdefault(op.name, counts) != counts:
                error = "traced counts differ from an earlier repeat of the same op"
        if error is None:
            return True
        if error != "deadline":
            self.wrong += 1
        self.failures.append({"op": op.name, "where": where, "error": error, "seconds": round(elapsed, 6)})
        return False


@dataclass
class Passes:
    busy_s: list[float] = field(default_factory=list)  # per pass, seconds in ok ops
    ok: list[int] = field(default_factory=list)  # per pass, ok ops
    latencies: list[float] = field(default_factory=list)  # every ok op
    by_op: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    hung: int = 0


def run_pass(ops, out: Passes, ledger: Ledger, probe: SpeedProbe, label: str, tracer=None) -> None:
    """One pass over the op list; ops are numbered by ``out.attempted``."""
    gc.collect()
    busy, ok = 0.0, 0
    where = f"{label}{len(out.busy_s)}"
    for op in ops:
        seq = out.attempted
        first_span = len(tracer.spans) if tracer else 0
        elapsed, outcome, error = run_op(op, probe, tracer, seq)
        counts = tracer.op_counts(first_span) if tracer else None
        out.attempted += 1
        if ledger.record(op, where, elapsed, outcome, error, counts):
            busy += elapsed
            ok += 1
            out.latencies.append(elapsed)
            out.by_op.setdefault(op.name, []).append(elapsed)
        else:
            out.failed += 1
            out.hung += op.stream and error == "deadline"
    out.busy_s.append(busy)
    out.ok.append(ok)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def environment() -> dict:
    import numpy

    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "warpsim" / "__init__.py").is_file():
        print(f"error: no warpsim sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import warpsim  # timed: part of set-up

    import_s = time.perf_counter() - t0
    import numpy as np
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    units = metric_units()
    signal.signal(signal.SIGALRM, _on_alarm)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    ledger, probe = Ledger(), SpeedProbe()

    with tempfile.TemporaryDirectory(prefix="inputs-", dir=RESULTS) as tmp:
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), Path(tmp))
            warmed = set()
            for op in ops:
                if op.cls not in warmed:
                    warmed.add(op.cls)
                    ledger.record(op, "warmup", *run_op(op, probe))
            setup_samples.append(time.perf_counter() - t0)
        setup_end = len(probe.samples)

        passes = max(MIN_PASSES, round(args.seconds / PASS_S[args.workload] / (1 + args.trace)))
        plain, traced, tr = Passes(), Passes(), tracing.Tracer()
        if args.trace:
            # alternate so that a drift in machine speed hits both sides alike
            for _ in range(passes):
                run_pass(ops, plain, ledger, probe, "pass")
                with tr.installed():
                    run_pass(ops, traced, ledger, probe, "traced", tr)
            rng = np.random.default_rng(args.seed)
            with tr.installed():
                tr.begin_op(SWEEP_OP)
                for n in SWEEP_SIZES:
                    warpsim.kernels.vector_add(rng.integers(0, 100, n).tolist(), rng.integers(0, 100, n).tolist())
                tr.end_op()
        else:
            for _ in range(passes):
                run_pass(ops, plain, ledger, probe, "pass")
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            with tr.installed():
                run_pass(ops, traced, ledger, probe, "traced", tr)
    traced_passes = len(traced.busy_s)

    op_of_seq = {seq: ops[seq % len(ops)] for seq in range(len(ops) * traced_passes)}
    counts = pass_counts(tr, op_of_seq, traced_passes)
    counts["streams.programs_hung"] = traced.hung / traced_passes

    if args.trace:
        values = layer_metrics(tr, op_of_seq, traced_passes, counts)
        sweep_s = [
            (s[2] - s[1]) / 1e9 for s in tr.spans if s is not None and s[4] == SWEEP_OP and s[0] == "kernels.vector_add"
        ]
        values["engine.scaling_k"] = tracing.scaling_exponent(SWEEP_SIZES, sweep_s)
        values["trace.overhead_ratio"] = statistics.median(traced.busy_s) / statistics.median(plain.busy_s)
        attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
        values["error_rate"] = failed / attempted
        (RESULTS / f"{stem}.spans.json").write_text(
            json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": tr.spans})
        )
    else:
        latencies = plain.latencies or [0.0]  # every op failed: correct is false anyway
        tail_s, tail_pct, samples = tail(latencies)
        attempted, failed = plain.attempted, plain.failed
        values = {
            "ops_per_s": statistics.median(_ratio(ok, busy) for ok, busy in zip(plain.ok, plain.busy_s)),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail_s,
            "success_rate": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": import_s + statistics.median(setup_samples),
        }
    scale, setup_scale = probe.scale(setup_end), probe.scale(0, setup_end)
    raw = {name: values[name] for name in sorted(values) if name in units}
    metrics = {
        name: {"value": _at_nominal_speed(v, units[name], setup_scale if name == "setup_s" else scale), "unit": units[name]}
        for name, v in raw.items()
    }
    correct = ledger.wrong == 0
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": passes,
        "ops_per_pass": len(ops),
        "environment": environment(),
        "speed": {
            "scale": scale,
            "setup_scale": setup_scale,
            "reference_median_s": statistics.median(probe.samples[setup_end:]),
            "samples": len(probe.samples),
            "setup_samples": setup_end,
        },
        "raw_metrics": raw,
        "setup_samples_s": setup_samples,
        "pass_busy_s": {"untraced": plain.busy_s, "traced": traced.busy_s},
        "import_s": import_s,
        "op_ms": {name: 1e3 * statistics.median(v) for name, v in sorted(plain.by_op.items())},
        "counts": counts,
        "digests": dict(sorted(ledger.first_digest.items())),
        "run_digest": workloads.digest(sorted(ledger.first_digest.items())),
        "failures": ledger.failures,
        "error_rate": failed / attempted,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if not args.trace:
        result["tail"] = {"percentile": tail_pct, "samples": samples}
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _at_nominal_speed(value: float, unit: str, scale: float) -> float:
    if unit in TIME_UNITS:
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


ENGINE_COUNTS = (
    "engine.global_transactions",
    "engine.bank_conflict_extra_cycles",
    "engine.divergence_events",
    "engine.barriers_executed",
    "engine.thread_steps",
    "engine.child_launches",
    "engine.race_warnings",
)
SPAN_COUNTS = {
    "engine.launches": ("engine.launch",),
    "engine.blocks": ("engine.kernel",),
    "engine.memory_instructions": ("engine.global_load", "engine.global_store", "engine.shared_load", "engine.shared_store"),
    "engine.branches": ("engine.branch",),
}


def pass_counts(tr, op_of_seq: dict, passes: int) -> dict:
    """Exact counts per pass, from the traced passes' spans and tallies."""
    by_name = Counter(s[0] for s in tr.spans if s is not None and s[4] in op_of_seq)
    tally = Counter()
    peak_log = 0
    for seq in op_of_seq:
        t = tr.tallies.get(seq, Counter())
        peak_log = max(peak_log, t["memory.access_log_peak_bytes"])
        tally.update({k: v for k, v in t.items() if k != "memory.access_log_peak_bytes"})
    counts = {name: sum(by_name[s] for s in spans) / passes for name, spans in SPAN_COUNTS.items()}
    counts.update({name: tally[name] / passes for name in ENGINE_COUNTS})
    counts["memory.access_log_records"] = tally["memory.access_log_records"] / passes
    counts["memory.access_log_mb"] = peak_log / 1e6
    counts["streams.ops_scheduled"] = tally["streams.ops_scheduled"] / passes
    counts["streams.overlap_ratio"] = _ratio(tally["streams.overlap_savings"], tally["streams.serialized_total"])
    counts["memperf.cache_hit_ratio"] = _ratio(tally["memperf.cache_hits"], tally["memperf.cache_accesses"])
    for policy in ("static", "dynamic"):
        counts[f"memperf.l3_{policy}_hit_ratio"] = _ratio(
            tally[f"memperf.l3_{policy}_hits"], tally[f"memperf.l3_{policy}_accesses"]
        )
    counts["memperf.accesses"] = (
        tally["memperf.cache_accesses"] + tally["memperf.l3_static_accesses"] + tally["memperf.l3_dynamic_accesses"]
    ) / passes
    counts["cli.output_bytes"] = tally["cli.output_bytes"] / passes
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr, op_of_seq: dict, passes: int, counts: dict) -> dict:
    """Per-layer host seconds per pass, host time per unit of work, and counts."""
    import tracer as tracing

    self_s, dur_s, long_report_s = Counter(), Counter(), 0.0
    for name, op, dur, own in tracing.self_times(tr.spans):
        if op in op_of_seq:
            self_s[name] += own / 1e9 / passes
            dur_s[name] += dur / 1e9 / passes
            if name == "streams.makespan_report" and op_of_seq[op].cls.endswith("stream_long"):
                long_report_s += dur / 1e9 / passes
    long_ops = sum(
        tr.tallies[seq]["streams.ops_scheduled"] for seq, op in op_of_seq.items() if op.cls.endswith("stream_long")
    ) / passes
    memory_s = sum(self_s[k] for k in SPAN_COUNTS["engine.memory_instructions"])
    values = dict(counts)
    values.update(
        {
            "kernels.host_s": sum(v for k, v in self_s.items() if k.startswith("kernels.")),
            "kernels.kernel_self_s": self_s["engine.kernel"],
            "engine.launch_self_s": self_s["engine.launch"],
            "engine.us_per_block": 1e6 * _ratio(dur_s["engine.launch"], counts["engine.blocks"]),
            "engine.global_access_s": self_s["engine.global_load"] + self_s["engine.global_store"],
            "engine.shared_access_s": self_s["engine.shared_load"] + self_s["engine.shared_store"],
            "engine.us_per_memory_instruction": 1e6 * _ratio(memory_s, counts["engine.memory_instructions"]),
            "engine.branch_s": self_s["engine.branch"],
            "engine.barrier_s": self_s["engine.barrier"],
            "engine.arith_s": self_s["engine.arith"],
            "engine.child_launch_s": self_s["engine.ctx_launch"],
            "streams.simulate_timeline_s": self_s["streams.simulate_timeline"],
            "streams.validate_schedule_s": self_s["streams.validate_schedule"],
            "streams.makespan_report_s": self_s["streams.makespan_report"],
            "streams.render_gantt_s": self_s["streams.render_gantt"],
            "streams.makespan_report_us_per_op": 1e6 * _ratio(long_report_s, long_ops),
            "memperf.simulate_cache_s": self_s["memperf.simulate_cache"],
            "memperf.simulate_l3_s": self_s["memperf.simulate_l3"],
            "memperf.training_flow_s": self_s["memperf.estimate_training_flow"],
            "memperf.ns_per_access": 1e9
            * _ratio(dur_s["memperf.simulate_cache"] + dur_s["memperf.simulate_l3"], counts["memperf.accesses"]),
            "cli.self_s": self_s["cli.main"],
        }
    )
    return values


if __name__ == "__main__":
    sys.exit(main())
