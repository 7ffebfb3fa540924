"""Memory instructions of both spaces leave exactly the recorded bytes.

Each file under ``tests/golden/`` named ``engine_*.json`` is the JSON of one
case below: every ``AccessRecord`` field, the ``MetricsReport`` JSON and the
results of a small kernel that loads and stores global and shared memory
under full and partial masks, the ``SimError.to_json()`` of out-of-bounds
accesses and strict races in both spaces, and the permissive race warnings.
Race addresses are element indices for global buffers and byte offsets for
shared memory; these files pin that, and the error wording, byte for byte.

To record the files again, run ``python tests/test_engine_golden.py``.
"""

import json
from pathlib import Path

import pytest

from warpsim import DeviceMemory, LaunchConfig, SimError, Simulator

GOLDEN = Path(__file__).resolve().parent / "golden"

# Two blocks of 40 threads: a full warp and a partial one, so both the
# full-mask and the partial-mask paths run in every block.
CONFIG = LaunchConfig(2, 40, shared_mem_bytes=40 * 4 + 40 * 8)


def mixed_kernel(ctx, src, dst):
    tid, gid = ctx.thread_idx.x, ctx.global_id
    words = ctx.shared_array(40)  # 4-byte elements at byte offset 0
    wide = ctx.shared_array(40, element_width=8)  # 8-byte elements at byte offset 160
    v = src[gid]  # global load, full mask, contiguous
    words[tid] = v  # shared store, full mask
    wide[(tid * 3) % 40] = ctx.add(v, 1)  # shared store, permuted
    ctx.barrier()

    def odd_lanes():
        w = words[(tid + 1) % 40]  # shared load, partial mask
        dst[gid] = ctx.add(w, wide[tid // 2])  # broadcast pairs in shared memory
        words[tid] = w  # shared store, partial mask

    def even_lanes():
        dst[gid] = src[(gid * 2) % len(src.buffer)]  # strided global load, partial mask

    ctx.if_(tid % 2 == 1, odd_lanes, even_lanes)
    ctx.barrier()
    dst[gid] = ctx.add(dst[gid], words[tid])


def global_out_of_bounds_load(ctx, src, dst):
    def late_lanes():
        dst[ctx.global_id] = src[ctx.global_id + 60]

    ctx.if_(ctx.thread_idx.x >= 8, late_lanes)


def shared_out_of_bounds_store(ctx, src, dst):
    ctx.shared_array(8)
    wide = ctx.shared_array(40, element_width=8)
    wide[ctx.thread_idx.x + 3] = src[ctx.global_id]


def shared_write_write(ctx, src, dst):
    ctx.shared_array(10)
    wide = ctx.shared_array(40, element_width=8)
    tid = ctx.thread_idx.x
    wide[tid] = 1
    wide[(tid + 5) % 40] = 2
    dst[ctx.global_id] = wide[tid]


def shared_same_instruction(ctx, src, dst):
    ctx.shared_array(10)
    wide = ctx.shared_array(40, element_width=8)
    wide[ctx.thread_idx.x // 4] = ctx.thread_idx.x
    dst[ctx.global_id] = wide[ctx.thread_idx.x // 4]


def global_read_write(ctx, src, dst):
    v = dst[ctx.global_id]
    dst[(ctx.global_id + 7) % len(dst.buffer)] = ctx.add(v, 1)


def global_cross_block(ctx, src, dst):
    dst[(ctx.global_id + 40) % len(dst.buffer)] = dst[ctx.global_id]


def array_json(arr):
    return {"dtype": str(arr.dtype), "values": arr.tolist()}


def launch(kernel, mode):
    """Run ``kernel`` on fresh 80-element buffers; everything it left, as JSON."""
    mem = DeviceMemory()
    src = mem.alloc("src", [3 * i + 1 for i in range(80)], element_width=8)
    dst = mem.alloc("dst", 80)
    out = {}
    try:
        out["metrics"] = Simulator().launch(kernel, CONFIG, mem, (src, dst), mode=mode).to_json()
    except SimError as e:
        out["error"] = e.to_json()
    out["dst"] = array_json(dst.data)
    out["race_warnings"] = list(mem.race_warnings)
    out["access_log"] = [
        {
            "kernel": rec.kernel,
            "block": rec.block,
            "step": rec.step,
            "space": rec.space,
            "kind": rec.kind,
            "buffer": rec.buffer,
            "width": rec.width,
            "warp_ids": array_json(rec.warp_ids),
            "lanes": array_json(rec.lanes),
            "addresses": array_json(rec.addresses),
        }
        for rec in mem.access_log
    ]
    return out


CASES = {
    "engine_mixed_kernel.json": (mixed_kernel, "strict"),
    "engine_global_out_of_bounds_load.json": (global_out_of_bounds_load, "strict"),
    "engine_shared_out_of_bounds_store.json": (shared_out_of_bounds_store, "strict"),
    "engine_shared_write_write_strict.json": (shared_write_write, "strict"),
    "engine_global_read_write_strict.json": (global_read_write, "strict"),
    "engine_shared_write_write_permissive.json": (shared_write_write, "permissive"),
    "engine_shared_same_instruction_permissive.json": (shared_same_instruction, "permissive"),
    "engine_global_read_write_permissive.json": (global_read_write, "permissive"),
    "engine_global_cross_block_permissive.json": (global_cross_block, "permissive"),
}


def render(name: str) -> bytes:
    kernel, mode = CASES[name]
    return (json.dumps(launch(kernel, mode), indent=1) + "\n").encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_output_matches_golden(name):
    assert render(name) == (GOLDEN / name).read_bytes()


def test_cases_cover_both_spaces_and_outcomes():
    recorded = {name: json.loads((GOLDEN / name).read_bytes()) for name in CASES}
    mixed = recorded["engine_mixed_kernel.json"]
    assert {(r["space"], r["kind"]) for r in mixed["access_log"]} == {
        (space, kind) for space in ("global", "shared") for kind in ("read", "write")
    }
    assert {len(r["lanes"]["values"]) for r in mixed["access_log"]} > {40}  # full and partial masks
    errors = [r["error"]["kind"] for r in recorded.values() if "error" in r]
    assert errors == ["OutOfBounds", "OutOfBounds", "DataRace", "DataRace"]
    assert all(r["race_warnings"] for name, r in recorded.items() if name.endswith("_permissive.json"))


if __name__ == "__main__":
    for case in CASES:
        (GOLDEN / case).write_bytes(render(case))
