"""List the statements of ``src/warpsim`` that no test runs.

    python tests/unrun.py                  # tier-1, in this process
    python tests/unrun.py tests/test_streams.py -k overlap

The arguments go to ``pytest.main`` as given; without any, it runs tier-1.
A line probe, installed with ``sys.settrace`` and ``threading.settrace``
before pytest imports anything, notes each line that runs in a file under
``src/warpsim``; frames of other files are not traced line by line. A
statement ran when a line of it ran: of a compound statement (``if``,
``for``, ``def``, ...), a line of its header, decorators included.

It prints one line per statement that never ran, ``path:line: text``, and
exits 1 if there is any, else 0. Left out are docstrings, whose code is a
constant; the bodies of ``if __name__ == "__main__":`` and
``__main__.py``, entry points, which tests run in a subprocess, out of the
probe's sight; and ``if TYPE_CHECKING:`` blocks, which never run. A pytest
failure does not change the exit code, since the unrun list is read either
way; run tier-1 for its verdict.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "warpsim"
TIER1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
NEVER_RUN = ("__name__ == '__main__'", "TYPE_CHECKING")  # tests of the ``if`` blocks left out


def statements(path: Path) -> list[tuple[int, range]]:
    """Per statement of ``path`` a probe must see, its first line and the lines that count as running it."""
    tree = ast.parse(path.read_text(), str(path))
    out: list[tuple[int, range]] = []

    def visit(body: list) -> None:
        for node in body:
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and type(node.value.value) is str:
                continue  # a docstring, or a string standing alone
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                continue  # no code
            if isinstance(node, ast.If) and ast.unparse(node.test) in NEVER_RUN:
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            inner = [b for field in ("body", "orelse", "finalbody", "handlers") for b in getattr(node, field, [])]
            inner += [c for case in getattr(node, "cases", []) for c in case.body]
            last = min(b.lineno for b in inner) - 1 if inner else node.end_lineno
            out.append((node.lineno, range(first, max(first, last) + 1)))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                visit(handler.body)
            for case in getattr(node, "cases", []):
                visit(case.body)

    visit(tree.body)
    return out


def unrun(ran: dict[str, set[int]]) -> list[str]:
    """``path:line: text`` for each statement under ``SRC`` with none of its lines in ``ran`` (per file name)."""
    lines = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__main__.py":
            continue
        hit = ran.get(str(path), set())
        text = path.read_text().splitlines()
        for line, span in statements(path):
            if hit.isdisjoint(span):
                lines.append(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return lines


def main(argv: list[str]) -> int:
    import pytest

    ran: dict[str, set[int]] = {}
    prefix = str(SRC) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def probe(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(probe)
    sys.settrace(probe)
    try:
        pytest.main(argv or TIER1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missing = unrun(ran)
    print("\n".join(missing) if missing else "every statement of src/warpsim ran")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
