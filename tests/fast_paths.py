"""Every exact fast path of ``src/warpsim``, with the switch that turns it off.

A fast path computes what a plainer twin computes, only sooner. Each entry of
``PATHS`` names one, and the switch under which the slow twin runs instead.
A switch is made of

- attribute patches: a module or class attribute set to another value, such
  as ``engine._GROUP_LANES = 1``; and
- text rewrites: an exact string of one function's source, which must occur
  there once, and its replacement. The rewritten source is compiled with the
  function's file name and line numbers and installed by swapping the
  function's ``__code__``, so that every alias of it (``from .rules import
  whole`` in ``streams.py``) runs the slow twin; a plain ``setattr`` on
  ``rules.whole`` would reach no caller there. A rewrite may not change the
  function's free variables.

``switched_off(names)`` installs the switches of ``names`` together and
restores everything when it exits. ``tests/test_fast_paths.py`` holds every
slow twin, alone and all together, to byte-identical output.

``--ablate`` times the switches in one process against one workload's op
list, which ``bench/workloads.py`` builds from one seed::

    python tests/fast_paths.py --ablate --workload block_compute --passes 40
    python tests/fast_paths.py --ablate --workload grid_stream race_apart race_fold_slice+race_distinct_all_new
    python tests/fast_paths.py --ablate --workload host_models --build rules_whole_int

Each pass runs the op list once with every path on (the reference), once
more with every path on (the A/A control) and once per switch, in shuffled
order, after one untimed pass that warms every arm up. A switch's pass ratio
is its pass time over the reference's; per op class alike. It prints the A/A
row first, then per switch the paired median pass ratio, the passes it lost
(the slow twin ran faster) and, per op class, the median ratio with a
distribution-free 95% interval (sign-test order statistics of the paired
pass ratios). ``NAME`` may join entries with ``+`` to time them as one
switch. With ``--json`` it prints one JSON row per switch instead.

In one run a switch earns on an op class whose interval lies above 1; the
A/A control, which times the same code twice, should earn on none. The
deletion rule: a path stays when, on some workload that runs it, it earns on
the same op class in each of three runs of at least 40 passes. Fewer
switches per run make each pass shorter and the intervals narrower, so a
path that earns nowhere in runs of every switch is timed again in three runs
of only such paths; it is deleted when it earns nowhere there either.

Without ``--build`` only each op's call is timed, not the building of the
op list, which is the bench's set-up; the host paths earn there
(``load_scenario`` and ``StreamOp`` run once per scenario as the ops are
built). With ``--build`` every arm also builds the op list once a pass,
under its switch, from the same seed into a directory of its own; that time
is the class ``(op build)``, which the pass ratio leaves out, so a path that
pays off at set-up is judged on its own.

The ablation checks every switched op's digest (``Op.check``) against the
all-on op's and exits 1 when one differs, an oracle fails, or an old string
no longer occurs once. It writes nothing under ``bench/`` or the repo: its
CLI input files go to a temporary directory and no bytecode is written.
"""

from __future__ import annotations

import sys

if __name__ == "__main__":
    sys.dont_write_bytecode = True  # before any import: nothing under bench/ or src/

import __future__
import argparse
import contextlib
import gc
import inspect
import json
import math
import statistics
import tempfile
import textwrap
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, TextIO

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from warpsim import cli, rules, streams  # noqa: E402
from warpsim.core import access, engine, race  # noqa: E402

ENGINE = ("grid_stream", "block_compute")  # the workloads that run the engine
HOST = ("host_models",)


@dataclass(frozen=True)
class FastPath:
    """One fast path: where it is, the workloads that run it and its switch."""

    name: str
    about: str
    workloads: tuple[str, ...]
    patches: tuple[tuple[Any, str, Any], ...] = ()  # (owner, attribute, value under the switch)
    rewrites: tuple[tuple[Callable, str, str], ...] = ()  # (function, old text, new text)


_access = engine.KernelContext._access
_check_read = race._RaceTrack.check_read
_check_write = race._RaceTrack.check_write

PATHS = {p.name: p for p in [
    # engine
    FastPath("engine_run_slices", "a run of indices is tracked and costed as a slice (engine._run)", ENGINE,
             patches=((engine, "_run", lambda ei, known=False: None),)),
    FastPath("engine_global_id_hint", "the global id under a full or contiguous mask needs no compare to be a run",
             ENGINE, rewrites=((_access, "_run(ei, idx is self.global_id and (full or type(m.sel) is slice))",
                                "_run(ei)"),)),
    FastPath("engine_bounds_by_run_ends", "a run is in bounds when its ends are", ENGINE,
             rewrites=((_access, "(run.start < 0 or run.stop > length) if run else ei.view(np.uint64).max() >= length",
                        "ei.view(np.uint64).max() >= length"),)),
    FastPath("engine_run_memo_key", "a run's memo key is its first byte, pitch and count, not its addresses", ENGINE,
             rewrites=((_access, "byte_addrs = None if run else ei * width", "byte_addrs = ei * width"),)),
    FastPath("engine_contiguous_mask_slice", "a contiguous lane mask selects by a slice (_Mask.select)", ENGINE,
             rewrites=((engine._Mask.select, "slice(lo, hi) if hi - lo == self.count else sel", "sel"),)),
    FastPath("engine_one_d_grid", "a 1-D grid takes its ids from the lane arrays (if one_d)", ENGINE,
             rewrites=((engine.KernelContext.__init__, "if one_d:", "if False:"),)),
    FastPath("engine_raw_child_key", "a child launch of plain ints finds its config by the raw geometry", ENGINE,
             rewrites=((engine.KernelContext.launch, "raw = all(", "raw = False and all("),)),
    FastPath("engine_cached_warp_counts", "a mask counts its lanes per warp once for all its branches", ENGINE,
             rewrites=((engine.KernelContext.if_, "if m.warp_counts is None:", "if True:"),)),
    FastPath("engine_uniform_branch", "a branch that splits no warp tallies nothing and keeps its parent's mask (if_)",
             ENGINE, rewrites=((engine.KernelContext.if_, "split = 0 < n_true < m.count", "split = True"),)),
    FastPath("engine_run_memo", "a run is checked by its bytes against the memo of runs that passed (_run)", ENGINE,
             rewrites=((engine._run, "if n > 2 and access.MEMO.get((lo, n, d)) != (got := ei.tobytes()):\n"
                                     "        if np.count_nonzero(ei != np.arange(lo, hi + 1, d)):\n"
                                     "            return None\n"
                                     "        access.MEMO.add((lo, n, d), got, len(got))\n",
                        "if n > 2 and np.count_nonzero(ei != np.arange(lo, hi + 1, d)):\n"
                        "        return None\n"),)),
    FastPath("engine_full_mask_arith", "arithmetic under a full mask skips the scatter (_arith)", ENGINE,
             rewrites=((engine.KernelContext._arith, "if m.count == self.nthreads:", "if False:"),)),
    FastPath("engine_block_groups", "a batchable kernel runs consecutive blocks as one group", ENGINE,
             patches=((engine, "_GROUP_LANES", 1),)),
    # access
    FastPath("access_cost_memo", "an access pattern is costed once per process (_Memo.cost)", ENGINE,
             rewrites=((access._Memo.cost, "cost = self.get(key)", "cost = None"),
                       (access._Memo.cost, "self.add(key, cost, held + len(warp_key))", "pass"))),
    # race
    FastPath("race_apart", "a run that meets no other thread's word skips the fold and gathers (_apart)", ENGINE,
             patches=((race, "_apart", lambda addrs, tids, accesses: False),)),
    FastPath("race_forget_reads", "a group that can replay forgets its waiting reads instead of folding them",
             ENGINE, rewrites=((_check_read, "if replay:", "if False:"),)),
    FastPath("race_cross_read_deferral", "cross-block reads wait for the next store instead of folding at once",
             ENGINE, rewrites=((_check_read, "if self.cross_read_count > self.length:", "if True:"),)),
    FastPath("race_note_unseen", "a clear store writes its words without reading the pair (_note seen=False)",
             ENGINE, rewrites=((_check_write, "_STALE, _STALE, False", "_STALE, _STALE, True"),)),
    FastPath("race_fold_slice", "a fold on a run works in place on its view (_fold)", ENGINE,
             rewrites=((race._fold, "if isinstance(addrs, slice):", "if False:"),)),
    FastPath("race_distinct_all_new", "distinct addresses return one stale second stamp (_distinct)", ENGINE,
             rewrites=((race._distinct, "if new.all():", "if False:"),)),
    FastPath("race_distinct_ascending", "addresses that never descend skip the sort (_distinct)", ENGINE,
             rewrites=((race._distinct, "if bool((addrs[1:] >= addrs[:-1]).all()):", "if False:"),)),
    FastPath("race_distinct_readback", "a first store of the interval tests its addresses by readback, not a sort",
             ENGINE, rewrites=((race._distinct, "if words is not None:", "if False:"),)),
    FastPath("race_seen_stores", "a store gathers writer words only if the interval has stores", ENGINE,
             rewrites=((_check_write, "seen = bool(self.stores)", "seen = True"),)),
    FastPath("race_conflict_skip", "a clear store in one block skips the conflict test", ENGINE,
             rewrites=((_check_write, "if block is not None or not clear:", "if True:"),)),
    FastPath("race_strict_block_store", "a strict store sets its block stamps without np.minimum.at (check_write)",
             ENGINE, rewrites=((_check_write, "if block is not None and self.resolve:", "if block is not None:"),)),
    # host
    FastPath("stream_op_stream_id_type", "StreamOp takes a plain int stream id as is", HOST,
             rewrites=((streams.StreamOp.__post_init__, "if type(self.stream_id) is not int:", "if True:"),)),
    FastPath("stream_op_duration_type", "StreamOp takes a plain float or int duration without the ABC test", HOST,
             rewrites=((streams.StreamOp.__post_init__,
                        "if type(self.duration) is not float and type(self.duration) is not int and not is_number(",
                        "if not is_number("),)),
    FastPath("stream_op_kind_type", "StreamOp takes an OpKind member as is", HOST,
             rewrites=((streams.StreamOp.__post_init__, "if not isinstance(self.kind, OpKind):", "if True:"),)),
    FastPath("load_scenario_types", "load_scenario takes plain ints and floats without the number rules", HOST,
             rewrites=(
                 (streams.load_scenario, "if type(duration) is not float and type(duration) is not int and not",
                  "if not"),
                 (streams.load_scenario, "if type(stream) is not int:\n            stream = whole(f\"scenario field ops",
                  "if True:\n            stream = whole(f\"scenario field ops"),
                 (streams.load_scenario, "if type(duration) is not float:", "if True:"),
                 (streams.load_scenario, "if type(stream) is not int:\n            stream = whole(f\"scenario field ev",
                  "if True:\n            stream = whole(f\"scenario field ev"),
                 (streams.load_scenario, "if type(position) is not int:", "if True:"),
             )),
    FastPath("stream_sorted_waits", "an op that waits on nothing skips the sort (_program, validate_schedule)",
             HOST, rewrites=(
                 (streams._program, "sorted(op.waits_on) if op.waits_on else ()", "sorted(op.waits_on)"),
                 (streams.validate_schedule, "sorted(op.waits_on) if op.waits_on else ()", "sorted(op.waits_on)"),
             )),
    FastPath("rules_whole_int", "rules.whole takes a plain int without the ABC tests", HOST,
             rewrites=((rules.whole, "if type(value) is not int and not (", "if not ("),)),
    FastPath("rules_real_types", "rules.real takes a plain int or float without the ABC test", HOST,
             rewrites=((rules.real, "if type(value) is not int and type(value) is not float and not is_number(",
                        "if not is_number("),)),
    FastPath("cli_parser_cache", "the CLI builds its argument parser once per process", ("block_compute", *HOST),
             patches=((cli, "_parser", cli.build_parser),)),
]}


def _source(fn: Callable) -> str:
    return textwrap.dedent(inspect.getsource(fn))


def _rewritten(fn: Callable, edits: Iterable[tuple[str, str]]) -> types.CodeType:
    """``fn``'s code with each (old, new) of ``edits`` applied in turn to its source."""
    code = fn.__code__
    src = _source(fn)
    for old, new in edits:
        if src.count(old) != 1:
            raise LookupError(f"{fn.__qualname__}: {old!r} occurs {src.count(old)} times, not once")
        src = src.replace(old, new)
    flags = code.co_flags & __future__.annotations.compiler_flag
    module = compile("\n" * (code.co_firstlineno - 1) + src, code.co_filename, "exec", flags=flags, dont_inherit=True)
    new = next(c for c in module.co_consts if isinstance(c, types.CodeType) and c.co_name == code.co_name)
    if new.co_freevars != code.co_freevars:
        raise ValueError(f"{fn.__qualname__}: a rewrite changed the free variables {code.co_freevars}")
    if hasattr(code, "co_qualname"):  # Python 3.11 and later
        new = new.replace(co_qualname=code.co_qualname)
    return new


def missing_strings() -> list[str]:
    """One line per old string that does not occur exactly once in its function's source."""
    problems = []
    for path in PATHS.values():
        for fn, old, _ in path.rewrites:
            count = _source(fn).count(old)
            if count != 1:
                problems.append(f"{path.name}: {old!r} occurs {count} times in {fn.__qualname__}")
    return problems


@contextlib.contextmanager
def switched_off(names: Iterable[str]):
    """Run the slow twins of the named paths, together, until the block exits."""
    paths = [PATHS[name] for name in names]
    edits: dict[Callable, list] = {}
    for path in paths:
        for fn, old, new in path.rewrites:
            edits.setdefault(fn, []).append((old, new))
    codes = {fn: _rewritten(fn, e) for fn, e in edits.items()}  # all compiled before anything changes
    missing = object()  # an attribute the owner inherits: deleted again on exit
    undo: list[tuple[Any, str, Any]] = []
    try:
        for path in paths:
            for owner, attr, value in path.patches:
                undo.append((owner, attr, vars(owner).get(attr, missing)))
                setattr(owner, attr, value)
        for fn, code in codes.items():
            undo.append((fn, "__code__", fn.__code__))
            fn.__code__ = code
        yield
    finally:
        for owner, attr, old in reversed(undo):
            if old is missing:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


# ----------------------------------------------------------------------
# ablation


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _median_interval(values: list[float]) -> tuple[float, float]:
    """A distribution-free 95% interval for the median of ``values``.

    Its ends are the k-th smallest and k-th largest value, k the largest count
    with P(Binomial(n, 1/2) < k) <= 2.5% (the sign test); NaN for n < 6.
    """
    v, n = sorted(values), len(values)
    k, tail = 0, math.comb(n, 0) / 2**n
    while k < n and tail <= 0.025:
        k += 1
        tail += math.comb(n, k) / 2**n
    return (v[k - 1], v[n - k]) if k else (float("nan"), float("nan"))


BUILD = "(op build)"  # the class of ``--build``: building the workload's op list


def ablate(workload: str, passes: int, seed: int, switches: list[tuple[str, ...]], out: Optional[TextIO] = None,
           as_json: bool = False, build: bool = False) -> int:
    """Time ``switches`` against all-on on ``workload``; 0, or 1 if a digest differs or an oracle fails.

    ``build`` also times the building of the op list, as the class ``BUILD``.
    """
    import workloads  # bench/workloads.py, read only

    out = out or sys.stdout
    problems = missing_strings()
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        return 1
    arms: list[tuple[str, tuple[str, ...]]] = [("all-on", ()), ("A/A", ())]
    arms += [("+".join(names), names) for names in switches]
    failed = False
    with tempfile.TemporaryDirectory(prefix="fast-paths-") as tmp:
        ops = workloads.WORKLOADS[workload](np.random.default_rng(seed), Path(tmp))
        build_dir = Path(tmp, "build")  # the timed builds' files, apart from those the ops read
        build_dir.mkdir()
        want: dict[str, str] = {}
        for op in ops:  # warm-up, and the digest of every op with all paths on
            problem, want[op.name] = op.check(op.call())
            if problem:
                print(f"error: {op.name} with every path on: {problem}", file=sys.stderr)
                return 1
        op_classes = list(dict.fromkeys(op.cls for op in ops))
        classes = ([BUILD] if build else []) + op_classes
        # per arm, per timed pass: seconds per class; pass 0 warms every arm up and is not kept
        times: dict[str, list[dict[str, float]]] = {label: [] for label, _ in arms}
        rng = np.random.default_rng(seed)
        for p in range(passes + 1):
            for i in rng.permutation(len(arms)):
                label, names = arms[i]
                spent = dict.fromkeys(classes, 0.0)
                gc.collect()
                with switched_off(names):
                    if build:
                        t0 = time.perf_counter()
                        workloads.WORKLOADS[workload](np.random.default_rng(seed), build_dir)
                        spent[BUILD] += time.perf_counter() - t0
                    for op in ops:
                        t0 = time.perf_counter()
                        outcome = op.call()
                        spent[op.cls] += time.perf_counter() - t0
                        problem, dig = op.check(outcome)
                        if problem or dig != want[op.name]:
                            failed = True
                            print(f"error: {label}: {op.name}: {problem or 'digest differs from all-on'}",
                                  file=sys.stderr)
                if p:
                    times[label].append(spent)
    base = times["all-on"]
    rows = []
    for label, _ in arms[1:]:
        ratios = [sum(map(t.get, op_classes)) / sum(map(b.get, op_classes)) for t, b in zip(times[label], base)]
        by_class = {}
        for c in classes:
            per_pass = [t[c] / b[c] for t, b in zip(times[label], base)]
            lo, hi = _median_interval(per_pass)
            by_class[c] = [lo, _median(per_pass), hi]
        earns = [c for c in classes if by_class[c][0] > 1]  # the interval lies above 1
        best = max(earns or classes, key=lambda c: by_class[c][1])
        rows.append({"switch": label, "median": _median(ratios), "lost": sum(r < 1 for r in ratios),
                     "classes": by_class, "earns": earns, "best_class": best})
    head = {"workload": workload, "seed": seed, "passes": passes, "ops": len(ops)}
    if as_json:
        for row in rows:
            print(json.dumps({**head, **row}), file=out)
    else:
        print(f"{workload}: seed {seed}, {passes} passes of {len(ops)} ops; ratio = switched off / all on, "
              f"per op class its median [95% interval]", file=out)
        print(f"{'switch':34} {'median':>7} {'lost':>5}  earns on", file=out)
        for row in rows:
            earns = ", ".join(row["earns"]) or "-"
            print(f"{row['switch']:34} {row['median']:7.3f} {row['lost']:5d}  {earns}", file=out)
            print("    " + ", ".join(f"{c} {m:.3f} [{lo:.3f}, {hi:.3f}]" for c, (lo, m, hi) in row["classes"].items()),
                  file=out)
    return 1 if failed else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--ablate", action="store_true", required=True, help="time every switch against all-on")
    parser.add_argument("--workload", default="block_compute")
    parser.add_argument("--passes", type=int, default=40)
    parser.add_argument("--seed", type=int, default=9001)
    parser.add_argument("--json", action="store_true", help="one JSON row per switch")
    parser.add_argument("--build", action="store_true", help=f"also time building the op list, as {BUILD!r}")
    parser.add_argument("names", nargs="*", help="paths to switch, NAME or NAME+NAME; default: all that run")
    args = parser.parse_args(argv)
    names = args.names or [p.name for p in PATHS.values() if args.workload in p.workloads]
    switches = [tuple(n.split("+")) for n in names]
    unknown = sorted({n for s in switches for n in s} - PATHS.keys())
    if unknown:
        parser.error(f"unknown paths {unknown}; choose from {sorted(PATHS)}")
    return ablate(args.workload, args.passes, args.seed, switches, as_json=args.json, build=args.build)


if __name__ == "__main__":
    sys.exit(main())
