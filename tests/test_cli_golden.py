"""The README's CLI commands at fixed inputs print exactly the recorded bytes.

Each file under ``tests/golden/`` is the stdout of one command. A change to
the engine or a primitive that moves a result, a counter or a table cell
shows here as a byte difference. To record a file for a new case, run the
command with ``warpsim.cli.main`` and write its stdout under the case's name.
"""

import json
from pathlib import Path

import pytest

from warpsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = ROOT / "scenarios"

# golden file name -> argv; "{a}" and "{b}" name the README's input files.
CASES = {
    "run_vector_add.txt": ["run", "--kernel", "vector_add", "--input", "{a},{b}"],
    "run_matmul_tiled_64.json": [
        "run", "--kernel", "matmul", "--variant", "tiled", "--size", "64", "--seed", "7", "--format", "json",
    ],
    "run_matmul_naive_64.json": ["run", "--kernel", "matmul", "--size", "64", "--seed", "7", "--format", "json"],
    "run_matrix_add_48.txt": ["run", "--kernel", "matrix_add", "--size", "48", "--seed", "5"],
    "report_reduce_sum_1024.json": ["report", "--kernel", "reduce_sum", "--size", "1024"],
    "report_reduce_sum_sequential_1024.json": [
        "report", "--kernel", "reduce_sum", "--variant", "sequential", "--size", "1024",
    ],
    "report_inclusive_scan_4096.json": ["report", "--kernel", "inclusive_scan", "--size", "4096", "--seed", "3"],
    "report_exclusive_scan_2048.json": ["report", "--kernel", "exclusive_scan", "--size", "2048", "--seed", "3"],
    "report_vector_add_70000.json": ["report", "--kernel", "vector_add", "--size", "70000", "--seed", "2"],
    "trace_reduce_sum_16.txt": ["trace", "--kernel", "reduce_sum", "--size", "16", "--one-based"],
    "trace_inclusive_scan_16.json": ["trace", "--kernel", "inclusive_scan", "--size", "16", "--format", "json"],
    "pipeline_overlap_two_stream.txt": ["pipeline", str(SCENARIOS / "overlap_two_stream.json")],
    "pipeline_three_stage_flow.json": ["pipeline", str(SCENARIOS / "three_stage_flow.json"), "--format", "json"],
    "memflow_fits_in_vram.json": ["memflow", str(SCENARIOS / "fits_in_vram.json")],
    "memflow_fits_in_vram.txt": ["memflow", str(SCENARIOS / "fits_in_vram.json"), "--format", "text"],
}


def readme_inputs(directory: Path) -> dict[str, str]:
    paths = {}
    for name, values in (("a", [1, 2, 3, 4, 5]), ("b", [10, 20, 30, 40, 50])):
        path = directory / f"{name}.json"
        path.write_text(json.dumps(values))
        paths[name] = str(path)
    return paths


def run_case(argv: list[str], inputs: dict[str, str], capsys) -> bytes:
    code = main([arg.format(**inputs) for arg in argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out.encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, capsys):
    out = run_case(CASES[name], readme_inputs(tmp_path), capsys)
    assert out == (GOLDEN / name).read_bytes()
