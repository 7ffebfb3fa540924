"""Out-of-bounds indices give the same ``SimError`` JSON whatever their size.

The engine checks bounds with one unsigned reduction, so a negative index
and one past ``2**63 - 1`` must both still be caught and must name the first
offending active lane. ``tests/golden/engine_out_of_bounds_indices.json``
holds the ``SimError.to_json()`` of every case below, for loads and stores of
global and shared memory under full and partial masks.

To record the file again, run ``python tests/test_out_of_bounds.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from warpsim import DeviceMemory, LaunchConfig, OutOfBounds, Simulator

GOLDEN = Path(__file__).resolve().parent / "golden" / "engine_out_of_bounds_indices.json"

SIZE = 24  # elements in the global buffer and in the shared array
CONFIG = LaunchConfig(2, 40, shared_mem_bytes=8 * 4 + SIZE * 4)
BAD = {"minus_one": -1, "size": SIZE, "two_pow_62": 2**62, "int64_max": 2**63 - 1}


def make_kernel(bad: int, space: str, kind: str, partial: bool):
    """Block 1 sends ``bad`` from lanes 3 and 11 and -1 from lane 37.

    Lanes share indices, so the launch is permissive to reach the store.

    Under the partial mask lanes with ``tid % 3 == 0`` are off, so lane 3 is
    inactive and lane 11 is the first offender.
    """

    def kernel(ctx, buf):
        tid = ctx.thread_idx.x
        ctx.shared_array(8)  # the tested array starts at byte offset 32
        arr = ctx.shared_array(SIZE) if space == "shared" else buf
        idx = tid % SIZE
        if ctx.block_idx.x == 1:
            idx = np.where((tid == 3) | (tid == 11), bad, np.where(tid == 37, -1, idx))

        def body():
            if kind == "load":
                arr[idx]
            else:
                arr[idx] = tid

        if partial:
            ctx.if_(tid % 3 != 0, body)
        else:
            body()

    return kernel


CASES = [
    (name, space, kind, mask)
    for name in BAD
    for space in ("global", "shared")
    for kind in ("load", "store")
    for mask in ("full", "partial")
]


def run(name, space, kind, mask) -> dict:
    mem = DeviceMemory()
    buf = mem.alloc("buf", SIZE)
    kernel = make_kernel(BAD[name], space, kind, mask == "partial")
    with pytest.raises(OutOfBounds) as exc:
        Simulator().launch(kernel, CONFIG, mem, (buf,), name="oob", mode="permissive")
    return exc.value.to_json()


def render() -> dict:
    return {"/".join(case): run(*case) for case in CASES}


@pytest.mark.parametrize("case", CASES, ids="/".join)
def test_error_json_matches_golden(case):
    golden = json.loads(GOLDEN.read_text())
    assert run(*case) == golden["/".join(case)]


def test_golden_names_the_first_active_offender():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == len(CASES)
    for key, err in golden.items():
        (thread,) = err["threads"]
        assert err["kind"] == "OutOfBounds"
        assert thread["block_idx"] == [1, 0, 0]
        assert thread["thread_idx"][0] == (11 if key.endswith("/partial") else 3)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(render(), indent=1) + "\n")
