"""``tests/cold.py``: one cold run per tree of two commands, against ``HEAD``, prints its table."""

import re
import shutil
import subprocess

import pytest

import cold

ROW = re.compile(r"(?P<label>.+?) +(?:\d+\.\d  +){2}\d+\.\d +\d+\.\d +\d+\.\d{3}$")


def in_a_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    done = subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=cold.ROOT, capture_output=True)
    return done.returncode == 0


needs_git = pytest.mark.skipif(not in_a_git_checkout(), reason="needs git and a checkout with a HEAD")


@needs_git
def test_one_run_against_head_prints_a_row_per_command(capsys):
    assert cold.main(["--runs", "1", "--against", "HEAD", "pipeline", "memflow"]) == 0
    head, columns, *rows = capsys.readouterr().out.splitlines()
    assert head.startswith("cold start: 1 run(s) per command and tree, ms;")
    assert columns.split() == ["command", "HEAD", "min", "HEAD", "median", "tree", "min", "tree", "median", "min",
                               "ratio"]
    labels = [ROW.match(row).group("label") for row in rows]
    assert labels == ["python -c pass", "import warpsim", "warpsim pipeline scenarios/overlap_two_stream.json",
                      "warpsim memflow scenarios/fits_in_vram.json"]


def test_the_commands_are_readmes():
    lines = cold.readme_commands()
    assert len(lines) == 7 and all(line.startswith("warpsim ") and "#" not in line for line in lines)
    assert [label for label, _ in cold.commands(["trace"])][2:] == [line for line in lines if "trace" in line]


@needs_git
def test_a_failing_command_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cold, "INPUTS", {})  # README's run of vector_add reads a.json and b.json
    assert cold.main(["--runs", "1", "vector_add"]) == 1
    assert "exited 2" in capsys.readouterr().err
