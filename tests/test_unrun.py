"""``tests/unrun.py`` on a stand-in test file: it lists exactly the statements the test did not run.

A run over tier-1 takes minutes, so tier-1 holds the probe to a file that
calls one function of ``warpsim.rules``.
"""

import subprocess
import sys

import unrun

STAND_IN = """
from warpsim import rules


def test_one_rule():
    assert rules.whole("n", 3) == 3
"""


def test_a_stand_in_run_lists_what_it_did_not_run(tmp_path):
    test = tmp_path / "test_stand_in.py"
    test.write_text(STAND_IN)
    args = [str(test), "-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest"]  # hypothesis loads in 1 s traced
    proc = subprocess.run([sys.executable, str(unrun.ROOT / "tests" / "unrun.py"), *args], capture_output=True,
                          text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    listed = {line.split(": ", 1)[0] for line in proc.stdout.splitlines() if line.startswith("src/warpsim/")}
    rules = unrun.SRC / "rules.py"
    text = rules.read_text().splitlines()
    whole = text.index("def whole(label: str, value: Any, error: type[ValueError] = ValueError) -> int:") + 1
    # the stand-in ran ``whole`` on a plain int: its test and return, not its raise; ``real`` never ran
    assert f"src/warpsim/rules.py:{whole}" not in listed
    assert f"src/warpsim/rules.py:{whole + 2}" not in listed and f"src/warpsim/rules.py:{whole + 5}" not in listed
    assert f"src/warpsim/rules.py:{whole + 4}" in listed
    real = next(i for i, line in enumerate(text, 1) if line.startswith("def real("))
    assert f"src/warpsim/rules.py:{real + 2}" in listed
    # docstrings, ``__main__.py``, ``if __name__ == "__main__":`` and ``if TYPE_CHECKING:`` blocks are never listed
    assert f"src/warpsim/rules.py:{whole + 1}" not in listed
    assert not any(name.startswith("src/warpsim/__main__.py") for name in listed)
    cli = (unrun.SRC / "cli.py").read_text().splitlines()
    guard = cli.index('if __name__ == "__main__":') + 1
    assert f"src/warpsim/cli.py:{guard}" not in listed and f"src/warpsim/cli.py:{guard + 1}" not in listed
    typing_only = cli.index("if TYPE_CHECKING:") + 1
    assert f"src/warpsim/cli.py:{typing_only + 1}" not in listed and f"src/warpsim/cli.py:{typing_only + 4}" in listed
