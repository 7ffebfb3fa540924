"""Cold start: the imports and each CLI command of README's list, in fresh processes, on two source trees.

    python tests/cold.py [--against REV] [--runs N] [NAME ...]

Times ``python -c pass``, ``import warpsim`` and each ``warpsim ...`` line of
README's "Command line" block as ``python -m warpsim ...``, each in a new
interpreter with one tree's ``src`` on ``PYTHONPATH``: the working tree's
``src``, copied, and ``git archive REV src`` (default ``HEAD``), unpacked.
Both live in one temporary directory, which is also the commands' working
directory: it holds README's ``a.json`` and ``b.json`` and a link to
``scenarios/``. Each command runs once per tree untimed, which compiles both
trees' bytecode there, then ``N`` timed times per tree (default 9); the
trees alternate, and which one goes first alternates too. A ``NAME`` keeps
only the commands whose line contains it; the two imports always run.

It prints, per command and tree, the min and the median wall time of a run in
ms, and the working tree's min over REV's. It exits 1 if a command fails.
Nothing is written under the repo. A run includes starting the interpreter
and its ``site`` hooks, so ``python -c pass`` is the floor of every row.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
INPUTS = {"a.json": "[1, 2, 3, 4, 5]", "b.json": "[10, 20, 30, 40, 50]"}  # README's vector_add example


def readme_commands() -> list[str]:
    """The ``warpsim ...`` lines of README's "Command line" block, without their comments."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines() if line.startswith("warpsim ")]


def commands(names: list[str]) -> list[tuple[str, list[str]]]:
    """(label, interpreter arguments) of each row: the two imports, then the CLI commands that ``names`` keep."""
    rows = [("python -c pass", ["-c", "pass"]), ("import warpsim", ["-c", "import warpsim"])]
    for line in readme_commands():
        if not names or any(name in line for name in names):
            rows.append((line, ["-m", *line.split()]))
    return rows


def unpack(rev: str, dest: Path) -> None:
    """``git archive REV src`` into ``dest``."""
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def run_once(args: list[str], tree: Path, workdir: Path) -> float:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # each tree's bytecode is cached, as an installed package's is
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    if done.returncode:
        raise RuntimeError(f"{' '.join(args)} in {tree.name} exited {done.returncode}: {done.stderr.strip()}")
    return elapsed


def measure(rev: str, runs: int, names: list[str]) -> list[tuple[str, list[float], list[float]]]:
    """Per row: its label, REV's run times and the working tree's, in seconds."""
    rows = commands(names)
    with tempfile.TemporaryDirectory(prefix="warpsim-cold-") as tmp:
        workdir = Path(tmp)
        base, work = workdir / "base", workdir / "work"  # names of one length: one path length for both trees
        unpack(rev, base)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        for name, text in INPUTS.items():
            (workdir / name).write_text(text)
        (workdir / "scenarios").symlink_to(ROOT / "scenarios")
        times: dict[tuple[str, Path], list[float]] = {(label, tree): [] for label, _ in rows for tree in (base, work)}
        for r in range(runs + 1):  # run 0 compiles and warms up
            for label, args in rows:
                for tree in ((base, work) if r % 2 else (work, base)):
                    elapsed = run_once(args, tree, workdir)
                    if r:
                        times[label, tree].append(elapsed)
    return [(label, times[label, base], times[label, work]) for label, _ in rows]


def table(rev: str, runs: int, rows: list[tuple[str, list[float], list[float]]]) -> str:
    width = max(len(label) for label, _, _ in rows)
    lines = [f"cold start: {runs} run(s) per command and tree, ms; tree = the working tree, {rev} = git archive",
             f"{'command':{width}}  {rev + ' min':>10}  {rev + ' median':>12}  {'tree min':>10}  "
             f"{'tree median':>12}  {'min ratio':>9}"]
    for label, base, work in rows:
        lines.append(f"{label:{width}}  {min(base) * 1e3:10.1f}  {statistics.median(base) * 1e3:12.1f}  "
                     f"{min(work) * 1e3:10.1f}  {statistics.median(work) * 1e3:12.1f}  {min(work) / min(base):9.3f}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", default="HEAD", metavar="REV", help="the revision to compare (default HEAD)")
    parser.add_argument("--runs", type=int, default=9, help="timed runs per command and tree (default 9)")
    parser.add_argument("names", nargs="*", help="keep only the CLI commands whose line contains NAME")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    try:
        rows = measure(args.against, args.runs, args.names)
    except (RuntimeError, subprocess.CalledProcessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(table(args.against, args.runs, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
