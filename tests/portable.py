"""One answer on every interpreter: the host models' bytes here and in each given Python.

    python tests/portable.py /path/to/python3.10 /path/to/python3.12 ...

Each given interpreter, and the running one, prints the same report
(``report()``), one JSON line per case:

- every file under ``scenarios/`` through the CLI commands ``pipeline`` and
  ``memflow``, in both formats: exit code, stdout and stderr;
- seeded stream programs, built with ``random.Random``, through
  ``load_scenario``, ``simulate_timeline`` and ``makespan_report``, and
  seeded training-flow specs through ``estimate_training_flow``, each as
  its ``to_json()``;
- a fixed list of refused programs and specs, each as its error line.

A given interpreter's bytes must equal the running one's. Per interpreter it
prints "identical" or the first line that differs, and it exits 1 on any
difference or on an interpreter that fails. Standard library only: the host
models load no numpy, which other interpreters may lack, so the engine's
half is not compared (README, "Install").
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = 60  # seeded stream programs
SPECS = 40  # seeded training-flow specs
# in a child interpreter: the report of this file, from the checkout given as its argument
CHILD = ("import sys; sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1] + '/tests']; import portable; "
         "sys.stdout.buffer.write(portable.report())")


def stream_program(rng: random.Random) -> dict:
    """A scenario of up to 4 streams and 14 ops, some waiting on earlier ops' events; tenths make float sums inexact."""
    streams = rng.randint(1, 4)
    ops, events, per_stream = [], [], [0] * (streams + 1)
    for i in range(rng.randint(1, 14)):
        stream = rng.randint(1, streams)
        duration = rng.choice([0.1, 0.1, 0.3, rng.randint(0, 20), round(rng.uniform(0, 20), 3)])
        waits = rng.sample([e["id"] for e in events], min(len(events), rng.randint(0, 2)))
        ops.append({"id": f"op{i}", "stream": stream, "kind": rng.choice(["h2d", "d2h", "kernel"]),
                    "duration": duration, "waits_on": waits})
        per_stream[stream] += 1
        if rng.random() < 0.4:
            events.append({"id": f"ev{len(events)}", "stream": stream, "after_index": per_stream[stream] - 1})
    engines = {k: rng.randint(0 if k == "copy_d2h" and rng.random() < 0.1 else 1, 2)
               for k in ("copy_h2d", "copy_d2h", "compute")}
    return {"engines": engines, "ops": ops, "events": events}


LEVELS = [("RAM", 100, 1 << 32), ("VRAM", 120, 1 << 32), ("SSD", 100_000, 1 << 28), ("HDD", 1_000_000, 1 << 26)]


def flow_spec(rng: random.Random) -> dict:
    """A spec of up to 48 batches and 4 epochs over a RAM, a VRAM and a disk, capacities of a few batches."""
    batch = rng.randint(1, 1 << 20)
    dataset = batch * rng.randint(1, 48) - rng.randint(0, batch - 1)
    levels = [{"name": n, "latency": lat * rng.choice([1, 1.5]), "bandwidth": bw / rng.choice([1, 3]),
               "capacity": 1 << (40 + i)} for i, (n, lat, bw) in enumerate(LEVELS[:rng.randint(3, 4)])]
    return {"dataset_bytes": dataset, "batch_bytes": batch, "epochs": rng.randint(1, 4), "hierarchy": levels,
            "vram_capacity": batch * rng.randint(1, 8), "ram_capacity": batch * rng.choice([0.5, 2, 5, 20, 60])}


def _op(**fields) -> dict:
    return {"id": "a", "stream": 1, "kind": "kernel", "duration": 1, **fields}


REFUSED_PROGRAMS = [
    [], {"ops": {}}, {"ops": [1]}, {"ops": [{"id": "a"}]}, {"ops": [_op(kind="copy")]},
    {"ops": [_op(duration="1")]}, {"ops": [_op(duration=-0.5)]}, {"ops": [_op(duration=math.inf)]},
    {"ops": [_op(duration=10**400)]}, {"ops": [_op(stream=1.5)]}, {"ops": [_op(waits_on="ev")]},
    {"ops": [_op(), _op()]}, {"engines": {"compute": -1}}, {"engines": {"copy_h2d": 1 << 17}},
    {"ops": [_op(waits_on=["nowhere"])]}, {"ops": [_op(waits_on=["e"])], "events": [{"id": "e", "stream": 1,
                                                                                        "after_index": 0}]},
    {"ops": [_op()], "events": [{"id": "e", "stream": 1, "after_index": 3}]},
    {"ops": [_op()], "events": [{"id": "e", "stream": 1}]},
]

REFUSED_SPECS = [
    [], {"dataset_bytes": 1}, {"dataset_bytes": 0, "batch_bytes": 1, "epochs": 1},
    {"dataset_bytes": 8, "batch_bytes": 1, "epochs": 0}, {"dataset_bytes": 8, "batch_bytes": 2.5, "epochs": 1},
    {"dataset_bytes": 8, "batch_bytes": 4, "epochs": 1, "vram_capacity": 2},
    {"dataset_bytes": 8, "batch_bytes": 4, "epochs": 1, "ram_capacity": math.inf},
    {"dataset_bytes": 8, "batch_bytes": 4, "epochs": 1, "ram_capacity": -1},
    {"dataset_bytes": 1 << 20, "batch_bytes": 1, "epochs": 1},
    {"dataset_bytes": 8, "batch_bytes": 4, "epochs": 1, "hierarchy": {}},
    {"dataset_bytes": 8, "batch_bytes": 4, "epochs": 1, "hierarchy": [{"name": "RAM"}]},
    {"dataset_bytes": 8, "batch_bytes": 4, "epochs": 1,
     "hierarchy": [{"name": "Tape", "latency": 1, "bandwidth": 1, "capacity": 1}]},
    {"dataset_bytes": 8, "batch_bytes": 4, "epochs": 1,
     "hierarchy": [{"name": "RAM", "latency": 10, "bandwidth": 1, "capacity": 100},
                   {"name": "VRAM", "latency": 5, "bandwidth": 1, "capacity": 100}]},
    {"dataset_bytes": 8, "batch_bytes": 4, "epochs": 1,
     "hierarchy": [{"name": "RAM", "latency": math.nan, "bandwidth": 1, "capacity": 100}]},
    {"dataset_bytes": 8, "batch_bytes": 4, "epochs": 1,
     "hierarchy": [{"name": "RAM", "latency": 1, "bandwidth": 1, "capacity": 100},
                   {"name": "VRAM", "latency": 1, "bandwidth": 1, "capacity": 100}]},
]


def _outcome(run) -> object:
    """``run()``, or the error line of what it raised."""
    try:
        return run()
    except Exception as e:  # every refusal is compared, whatever its type
        return f"{type(e).__name__}: {e}"


def _schedule(data) -> dict:
    from warpsim import streams

    ops, events, engines = streams.load_scenario(data)
    schedule = streams.simulate_timeline(ops, events, engines)
    return {"schedule": schedule.to_json(), "report": streams.makespan_report(schedule, ops, events).to_json()}


def _flow(data) -> dict:
    from warpsim import memperf

    return memperf.estimate_training_flow(memperf.TrainingFlowSpec.from_json(data)).to_json()


def _cli(argv: list[str]) -> list:
    from warpsim import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def report() -> bytes:
    """Every case of this interpreter, one JSON line each, as UTF-8 bytes; paths are relative to ``ROOT``."""
    cases = []
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        name = str(path.relative_to(ROOT))
        for command in ("pipeline", "memflow"):
            for fmt in ("text", "json"):
                cases.append([command, name, fmt, _cli([command, str(path), "--format", fmt])])
    for seed in range(PROGRAMS):
        cases.append(["program", seed, _outcome(lambda: _schedule(stream_program(random.Random(seed))))])
    for seed in range(SPECS):
        cases.append(["spec", seed, _outcome(lambda: _flow(flow_spec(random.Random(seed))))])
    cases += [["refused program", i, _outcome(lambda: _schedule(d))] for i, d in enumerate(REFUSED_PROGRAMS)]
    cases += [["refused spec", i, _outcome(lambda: _flow(d))] for i, d in enumerate(REFUSED_SPECS)]
    return "".join(json.dumps(c) + "\n" for c in cases).replace(str(ROOT), "ROOT").encode()


def main(pythons: list[str]) -> int:
    if not pythons:
        print("usage: python tests/portable.py PYTHON...", file=sys.stderr)
        return 2
    want = report()
    failed = False
    for python in pythons:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([python, "-B", "-c", CHILD, str(ROOT)], capture_output=True, env=env, timeout=300)
        if proc.returncode:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            print(f"{python}: exited with code {proc.returncode}: {' '.join(tail)}")
            failed = True
        elif proc.stdout != want:
            got, lines = proc.stdout.decode().splitlines(), want.decode().splitlines()
            i = next((i for i, (a, b) in enumerate(zip(got, lines)) if a != b), min(len(got), len(lines)))
            print(f"{python}: line {i + 1} differs\n  here:  {lines[i] if i < len(lines) else '(none)'}\n"
                  f"  there: {got[i] if i < len(got) else '(none)'}")
            failed = True
        else:
            print(f"{python}: identical, {len(want.splitlines())} lines")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
