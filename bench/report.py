"""Print benchmark results: every metric by name and unit, one row per workload.

    python3 bench/report.py bench/results                 # one set of results
    python3 bench/report.py before/ after/                # a before/after pair

Each argument is a result file written by ``bench/run.py`` or a directory of
them. Where a set holds several runs of a workload (seeds, traced and
untraced), a metric's row value is its median over those runs.

With a pair, each metric reads ``before -> after (change)``. An end-to-end
metric that got worse by more than its bound in ``BENCHMARK.json`` is marked
``REGRESSED``. Runs of the same workload and seed are then compared exactly:
every count except the access log's size, and the digest of every result,
``MetricsReport`` and captured CLI output, must be identical, or the command
exits with code 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
ORDER = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]


def load(arg: str) -> list[dict]:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files if not f.name.endswith(".spans.json")]


def medians(results: list[dict]) -> dict[str, dict[str, tuple[float, str]]]:
    """workload -> metric -> (median value, unit)."""
    values: dict[str, dict[str, list]] = {}
    for r in results:
        for name, m in r["metrics"].items():
            values.setdefault(r["workload"], {}).setdefault(name, []).append((m["value"], m["unit"]))
    return {
        w: {name: (statistics.median(v for v, _ in vs), vs[0][1]) for name, vs in metrics.items()}
        for w, metrics in values.items()
    }


def _ordered(names) -> list[str]:
    return sorted(names, key=lambda n: (ORDER.index(n) if n in ORDER else len(ORDER), n))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def worse_by(name: str, before: float, after: float) -> float:
    """Share of ``before`` by which ``after`` is worse (negative when better)."""
    if before == 0:
        return 0.0 if after == before else float("inf")
    change = (after - before) / abs(before)
    return change if END_TO_END[name]["better"] == "lower" else -change


def _exact(count: str) -> bool:
    """Counts a speed-only change must keep; the access log's size may shrink."""
    return not count.startswith("memory.")


def exact_mismatches(before: list[dict], after: list[dict]) -> tuple[list[str], int]:
    """Counts and digests of runs with the same workload and seed must agree.

    Returns the mismatches and the number of runs compared with a first one.
    """
    seen: dict[tuple, dict] = {}
    problems, compared = [], 0
    for r in before + after:
        key = (r["workload"], r["seed"])
        ref = seen.setdefault(key, r)
        if r is ref:
            continue
        compared += 1
        moved = [k for k in sorted(set(r["counts"]) | set(ref["counts"])) if _exact(k) and r["counts"].get(k) != ref["counts"].get(k)]
        if r["run_digest"] != ref["run_digest"]:
            moved.append("run_digest")
        if moved:
            problems.append(f"{key[0]} seed {key[1]}: {', '.join(moved)} differ")
    return problems, compared


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(a) for a in argv]
    tables = [medians(s) for s in sets]
    for workload in sorted(set().union(*tables)):
        cells = []
        if len(tables) == 1:
            row = tables[0][workload]
            cells = [f"{n}={_fmt(row[n][0])} {row[n][1]}" for n in _ordered(row)]
        else:
            before, after = tables[0].get(workload, {}), tables[1].get(workload, {})
            for n in _ordered(set(before) | set(after)):
                unit = (before.get(n) or after.get(n))[1]
                if n not in before or n not in after:
                    cells.append(f"{n}={_fmt((before.get(n) or after.get(n))[0])} {unit} (one side only)")
                    continue
                b, a = before[n][0], after[n][0]
                change = f"{(a - b) / abs(b):+.1%}" if b else "n/a"
                flag = " REGRESSED" if n in END_TO_END and worse_by(n, b, a) > END_TO_END[n]["bound"] else ""
                cells.append(f"{n}={_fmt(b)} -> {_fmt(a)} {unit} ({change}){flag}")
        print(f"{workload}: " + "; ".join(cells))
    problems, compared = exact_mismatches(sets[0], sets[1] if len(sets) > 1 else [])
    for p in problems:
        print(f"MISMATCH {p}")
    verdict = "identical" if not problems else f"{len(problems)} mismatches"
    print(f"counts and digests: {verdict} ({compared} runs compared with an earlier run of the same workload and seed)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
