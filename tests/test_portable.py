"""``tests/portable.py`` on every ``python3.N`` on ``PATH`` that starts: the host models' bytes equal this one's."""

import shutil
import subprocess
import sys

import pytest

import portable


def interpreters() -> list[str]:
    """Each supported ``python3.N`` (3.10 on) that ``PATH`` resolves and that starts; a pyenv shim may not."""
    found = []
    for minor in range(10, 20):
        path = shutil.which(f"python3.{minor}")
        if path and subprocess.run([path, "-c", ""], capture_output=True, timeout=60).returncode == 0:
            found.append(path)
    return found


def test_every_interpreter_on_path_gives_the_host_models_bytes():
    pythons = interpreters()
    if not pythons:
        pytest.skip("no python3.N on PATH starts")
    proc = subprocess.run([sys.executable, str(portable.ROOT / "tests" / "portable.py"), *pythons],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("identical") == len(pythons)
