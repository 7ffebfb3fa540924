"""Out-of-band spans around warpsim's public boundaries.

The tracer wraps, from outside the package, the primitives, ``cli.main``,
``Simulator.launch`` and the kernel functions it runs, the kernel-facing
context API (global/shared loads and stores, ``if_``, ``barrier``, the
arithmetic helpers, ``launch``) and the public functions of ``streams`` and
``memperf``. Every wrapped call records one span ``(name, start_ns, end_ns,
parent, op)`` in memory; ``op`` is the sequence number of the benchmark op
that caused it, so the spans of one op share an identifier. Nothing inside
the package changes, so access analysis and race tracking are not split out
of the memory-instruction spans.

``install`` patches the package and ``uninstall`` restores it exactly, so
untraced passes in the same process run the original code; ``installed``
does both around a block.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PRIMITIVES = (
    "vector_add",
    "matrix_add",
    "matmul",
    "reduce_sum",
    "inclusive_scan_hillis_steele",
    "exclusive_scan_blelloch",
)
ARITH = ("add", "sub", "mul", "floordiv")
STREAMS_API = ("simulate_timeline", "validate_schedule", "makespan_report", "render_gantt", "load_scenario")
MEMPERF_API = ("simulate_cache", "simulate_l3", "estimate_training_flow")
REPORT_COUNTERS = (
    "global_transactions",
    "divergence_events",
    "bank_conflict_extra_cycles",
    "barriers_executed",
    "thread_steps",
    "child_launches",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        # per-op tallies of simulated statistics read at the boundaries
        self.tallies: dict[int, Counter] = defaultdict(Counter)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # span recording

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if on_result is not None:
                on_result(self.tallies[self.op], args, kwargs, result)
            return result

        return traced

    def begin_op(self, seq: int) -> None:
        self.op = seq

    def end_op(self) -> None:
        """Closes the op; a deadline interrupt may leave the stack open."""
        self.stack.clear()

    def op_counts(self, first_span: int) -> tuple:
        """Spans by name since ``first_span`` and the current op's tallies."""
        names = Counter(s[0] for s in self.spans[first_span:] if s is not None)
        return tuple(sorted(names.items())), tuple(sorted(self.tallies[self.op].items()))

    # ------------------------------------------------------------------
    # patching

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        from warpsim import cli, kernels, memperf, streams
        from warpsim.core import GlobalView, KernelContext, SharedView, Simulator

        for name in PRIMITIVES:
            traced = self.wrap(f"kernels.{name}", getattr(kernels, name))
            self._patch(kernels, name, traced)
            if hasattr(cli, name):
                self._patch(cli, name, traced)
        main_span = self.wrap("cli.main", cli.main)

        def main(argv=None):
            start = sys.stdout.tell()  # the benchmark captures CLI output in a StringIO
            try:
                return main_span(argv)
            finally:
                self.tallies[self.op]["cli.output_bytes"] += sys.stdout.tell() - start

        self._patch(cli, "main", functools.wraps(cli.main)(main))

        orig_launch = Simulator.launch
        launch_span = self.wrap(
            "engine.launch",
            lambda sim, kernel, *a, **kw: orig_launch(sim, self.wrap("engine.kernel", kernel), *a, **kw),
        )

        def launch(sim, kernel, config, mem, args=(), **kw):
            metrics = kw.get("metrics")
            before = _report_counts(metrics) if metrics is not None else dict.fromkeys(REPORT_COUNTERS, 0)
            report = launch_span(sim, kernel, config, mem, args, **kw)
            tally = self.tallies[self.op]
            for key, value in _report_counts(report).items():
                tally[f"engine.{key}"] += value - before[key]
            tally["engine.race_warnings"] += len(mem.race_warnings)
            tally["memory.access_log_records"] += len(mem.access_log)
            tally["memory.access_log_peak_bytes"] = max(
                tally["memory.access_log_peak_bytes"], _access_log_bytes(mem.access_log)
            )
            return report

        self._patch(Simulator, "launch", functools.wraps(orig_launch)(launch))

        orig_ctx_launch = KernelContext.launch
        self._patch(
            KernelContext,
            "launch",
            self.wrap(
                "engine.ctx_launch",
                lambda ctx, kernel, *a, **kw: orig_ctx_launch(ctx, self.wrap("engine.kernel", kernel), *a, **kw),
            ),
        )
        for view, space in ((GlobalView, "global"), (SharedView, "shared")):
            self._patch(view, "__getitem__", self.wrap(f"engine.{space}_load", view.__getitem__))
            self._patch(view, "__setitem__", self.wrap(f"engine.{space}_store", view.__setitem__))
        self._patch(KernelContext, "if_", self.wrap("engine.branch", KernelContext.if_))
        self._patch(KernelContext, "barrier", self.wrap("engine.barrier", KernelContext.barrier))
        for name in ARITH:
            self._patch(KernelContext, name, self.wrap("engine.arith", getattr(KernelContext, name)))

        hooks = {
            "simulate_timeline": _on_timeline,
            "makespan_report": _on_makespan,
            "simulate_cache": _on_cache,
            "simulate_l3": _on_l3,
        }
        for module, names in ((streams, STREAMS_API), (memperf, MEMPERF_API)):
            short = module.__name__.rsplit(".", 1)[-1]
            for name in names:
                self._patch(module, name, self.wrap(f"{short}.{name}", getattr(module, name), hooks.get(name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _report_counts(report) -> dict[str, int]:
    return {key: getattr(report, key) for key in REPORT_COUNTERS}


def _access_log_bytes(log) -> int:
    """Bytes the access log retains: records, their field dicts, unique arrays."""
    seen: set[int] = set()
    total = 0
    for rec in log:
        total += sys.getsizeof(rec) + sys.getsizeof(rec.__dict__)
        for arr in (rec.warp_ids, rec.lanes, rec.addresses):
            if id(arr) not in seen:
                seen.add(id(arr))
                total += arr.nbytes
    return total


def _on_timeline(tally, args, kwargs, schedule) -> None:
    tally["streams.ops_scheduled"] += len(schedule.entries)


def _on_makespan(tally, args, kwargs, report) -> None:
    tally["streams.serialized_total"] += report.serialized_total
    tally["streams.overlap_savings"] += report.overlap_savings


def _on_cache(tally, args, kwargs, result) -> None:
    hits, misses = result
    tally["memperf.cache_hits"] += hits
    tally["memperf.cache_accesses"] += hits + misses


def _on_l3(tally, args, kwargs, result) -> None:
    policy = (args[1] if len(args) > 1 else kwargs["cfg"]).policy
    tally[f"memperf.l3_{policy}_hits"] += sum(h for h, _ in result)
    tally[f"memperf.l3_{policy}_accesses"] += sum(h + m for h, m in result)


# ----------------------------------------------------------------------
# analysis


def self_times(spans: list) -> list:
    """Rows (name, op, duration_ns, self_ns): duration minus child spans."""
    child = [0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [
        (s[0], s[4], s[2] - s[1], s[2] - s[1] - child[i])
        for i, s in enumerate(spans)
        if s is not None
    ]


def scaling_exponent(sizes: list[int], seconds: list[float]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])
