"""Command-line behavior: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import warpsim
from warpsim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PAPER_A = [1, 2, 3, 4, 5]
PAPER_B = [10, 20, 30, 40, 50]
PAPER_ARRAY = [8, 3, 5, 7, 2, 9, 1, 6, 4, 10, 12, 15, 11, 14, 13, 16]


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestRun:
    def test_paper_vector_add_prints_result(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", PAPER_A)
        b = write_json(tmp_path, "b.json", PAPER_B)
        code = main(["run", "--kernel", "vector_add", "--size", "5", "--input", f"{a},{b}"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "11 22 33 44 55"

    def test_zero_size_is_usage_error(self, capsys):
        code = main(["run", "--kernel", "reduce_sum", "--size", "0"])
        assert code == 2

    def test_unknown_kernel_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--kernel", "fft"])
        assert exc.value.code == 2

    def test_non_power_of_two_reduce_is_usage_error(self, tmp_path, capsys):
        arr = write_json(tmp_path, "x.json", [1, 2, 3])
        code = main(["run", "--kernel", "reduce_sum", "--input", arr])
        assert code == 2

    def test_matmul_tiled_seeded_is_byte_identical(self):
        cmd = [
            sys.executable,
            "-m",
            "warpsim.cli",
            "run",
            "--kernel",
            "matmul",
            "--variant",
            "tiled",
            "--size",
            "16",
            "--seed",
            "7",
            "--format",
            "json",
        ]
        # The child imports the package this process imported, installed or not.
        env = {**os.environ, "PYTHONPATH": str(Path(warpsim.__file__).resolve().parents[1])}
        first = subprocess.run(cmd, capture_output=True, check=True, env=env)
        second = subprocess.run(cmd, capture_output=True, check=True, env=env)
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert payload["kernel"] == "matmul"
        assert payload["metrics"]["global_transactions"] > 0

    def test_matrix_inputs_from_files(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", [[1, 2], [3, 4]])
        b = write_json(tmp_path, "b.json", [[5, 6], [7, 8]])
        code = main(
            ["run", "--kernel", "matmul", "--input", f"{a},{b}", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == [[19, 22], [43, 50]]

    def test_output_file_written(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", PAPER_A)
        b = write_json(tmp_path, "b.json", PAPER_B)
        target = tmp_path / "result.json"
        code = main(
            [
                "run", "--kernel", "vector_add", "--input", f"{a},{b}",
                "--format", "json", "--output", str(target),
            ]
        )
        assert code == 0
        assert json.loads(target.read_text())["result"] == [11, 22, 33, 44, 55]
        capsys.readouterr()

    def test_block_dim_flag_for_vector_add(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", PAPER_A)
        b = write_json(tmp_path, "b.json", PAPER_B)
        code = main(
            ["run", "--kernel", "vector_add", "--input", f"{a},{b}", "--block-dim", "128"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "11 22 33 44 55"

    def test_block_dim_rejected_for_algorithmic_kernels(self, capsys):
        code = main(["run", "--kernel", "reduce_sum", "--size", "16", "--block-dim", "64"])
        assert code == 2

    def test_bad_json_input_diagnoses_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2,")
        code = main(["run", "--kernel", "reduce_sum", "--input", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad.json" in err and ":" in err


class TestReport:
    def test_metrics_only_payload(self, capsys):
        code = main(["report", "--kernel", "vector_add", "--size", "32", "--seed", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"kernel", "metrics"}
        assert payload["metrics"]["thread_steps"] == 32


class TestTrace:
    def test_paper_reduction_table(self, tmp_path, capsys):
        arr = write_json(tmp_path, "arr.json", PAPER_ARRAY)
        code = main(["trace", "--kernel", "reduce_sum", "--input", arr, "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == 136
        assert len(payload["steps"]) == 5
        assert payload["steps"][-1][0] == 136
        assert payload["steps"][1][1] is None  # idle cell

    def test_one_based_headers(self, tmp_path, capsys):
        arr = write_json(tmp_path, "arr.json", PAPER_ARRAY)
        code = main(["trace", "--kernel", "reduce_sum", "--input", arr, "--one-based"])
        out = capsys.readouterr().out
        assert code == 0
        header = out.splitlines()[0]
        assert "T_1" in header and "T_16" in header and "T_0" not in header
        assert out.splitlines()[-1].split()[-1] == "136"

    def test_scan_single_element_single_row(self, tmp_path, capsys):
        arr = write_json(tmp_path, "c.json", [9])
        code = main(["trace", "--kernel", "inclusive_scan", "--input", arr, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["steps"] == [[9]]

    def test_scan_random_last_row_is_prefix_sum(self, capsys):
        code = main(
            ["trace", "--kernel", "inclusive_scan", "--size", "32", "--seed", "3", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        rows = payload["steps"]
        running, expect = 0, []
        for v in rows[0]:
            running += v
            expect.append(running)
        assert rows[-1] == expect == payload["result"]

    def test_unsupported_kernel(self, capsys):
        code = main(["trace", "--kernel", "exclusive_scan", "--size", "8"])
        assert code == 2
        assert "step table" in capsys.readouterr().err


class TestPipeline:
    def test_shipped_scenario_makespan_30(self, capsys):
        code = main(["pipeline", str(SCENARIOS / "overlap_two_stream.json"), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["schedule"]["makespan"] == 30
        assert payload["report"]["overlap_savings"] == 10

    def test_empty_scenario(self, tmp_path, capsys):
        path = write_json(tmp_path, "empty.json", {"ops": [], "events": []})
        code = main(["pipeline", path, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["schedule"]["makespan"] == 0

    def test_gantt_text(self, capsys):
        code = main(["pipeline", str(SCENARIOS / "overlap_two_stream.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "h2d#0" in out and "compute#0" in out
        assert "overlap savings: 10" in out

    def test_missing_scenario_file_is_usage_error(self, capsys):
        code = main(["pipeline", "/nonexistent/scenario.json"])
        assert code == 2
        assert "No such file" in capsys.readouterr().err

    def test_schema_violation_diagnosed(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", {"ops": [{"id": "x", "stream": 1}]})
        code = main(["pipeline", path])
        err = capsys.readouterr().err
        assert code == 2
        assert "ops[0]" in err

    def test_unknown_event_is_sim_error(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "dangling.json",
            {
                "ops": [
                    {"id": "k", "stream": 1, "kind": "kernel", "duration": 1, "waits_on": ["ghost"]}
                ]
            },
        )
        code = main(["pipeline", path])
        assert code == 3

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_duration_is_usage_error(self, tmp_path, capsys, duration, fmt):
        ops = [
            {"id": "a", "stream": 1, "kind": "kernel", "duration": duration},
            {"id": "c", "stream": 2, "kind": "kernel", "duration": 4},
        ]
        path = write_json(tmp_path, "non_finite.json", {"ops": ops})
        code = main(["pipeline", path, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"op 'a' has non-finite duration {duration}" in captured.err

    def test_string_waits_on_is_usage_error(self, tmp_path, capsys):
        ops = [
            {"id": "c", "stream": 1, "kind": "kernel", "duration": 1},
            {"id": "k", "stream": 2, "kind": "kernel", "duration": 1, "waits_on": "ev"},
        ]
        events = [{"id": "e", "stream": 1, "after_index": 0}, {"id": "v", "stream": 1, "after_index": 0}]
        path = write_json(tmp_path, "string_wait.json", {"ops": ops, "events": events})
        code = main(["pipeline", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "op 'k' must wait on a list of event ids, got 'ev'" in captured.err

    def test_integer_ids_match_string_ids(self, tmp_path, capsys):
        # Ids are read as strings; an integer waits_on entry used to name an unknown event.
        def scenario(ident):
            return {
                "engines": {"compute": 2},
                "ops": [
                    {"id": ident(0), "stream": 1, "kind": "kernel", "duration": 2},
                    {"id": ident(2), "stream": 2, "kind": "kernel", "duration": 1, "waits_on": [ident(1)]},
                ],
                "events": [{"id": ident(1), "stream": 1, "after_index": 0}],
            }

        outputs = []
        for ident in (int, str):
            path = write_json(tmp_path, f"{ident.__name__}_ids.json", scenario(ident))
            code = main(["pipeline", path, "--format", "json"])
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, "")
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["schedule"]["ops"][1]["start"] == 2.0  # after the event, on a free engine


class TestMemflow:
    def test_shipped_fits_in_vram_spec(self, capsys):
        code = main(["memflow", str(SCENARIOS / "fits_in_vram.json")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        epochs = payload["epochs"]
        assert epochs[0]["disk_to_ram_bytes"] > 0
        assert epochs[1]["disk_to_ram_bytes"] == 0
        assert epochs[1]["ram_to_vram_bytes"] == 0

    def test_text_format(self, capsys):
        code = main(["memflow", str(SCENARIOS / "fits_in_vram.json"), "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "epoch 1" in out and "total time" in out

    def test_invalid_spec_rejected(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "bad.json", {"dataset_bytes": 10, "batch_bytes": 100, "epochs": 1,
                                   "vram_capacity": 50, "ram_capacity": 50}
        )
        code = main(["memflow", path])
        assert code == 2

    def test_stream_scenario_names_the_missing_keys(self, capsys):
        code = main(["memflow", str(SCENARIOS / "overlap_two_stream.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: training-flow spec is missing dataset_bytes, batch_bytes, epochs\n"

    def test_non_object_spec_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path, "list.json", [1, 2, 3])
        code = main(["memflow", path])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_hierarchy_level_names_the_missing_keys(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "level.json",
            {"dataset_bytes": 10, "batch_bytes": 5, "epochs": 1, "hierarchy": [{"name": "RAM"}]},
        )
        code = main(["memflow", path])
        assert code == 2
        assert capsys.readouterr().err == "error: hierarchy[0] is missing latency, bandwidth, capacity\n"
