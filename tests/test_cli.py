"""Command-line behavior: outputs, exit codes, determinism."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import warpsim
from warpsim import cli
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

    @pytest.mark.parametrize(
        "kernel, size, elements",
        [("vector_add", 2**22 + 1, 2**22 + 1), ("vector_add", 10**11, 10**11), ("matmul", 2049, 2049**2)],
    )
    def test_size_past_the_cap_is_usage_error(self, capsys, kernel, size, elements):
        # Rejected before numpy is asked for the array, which at 10**11
        # elements raised a MemoryError traceback.
        code = main(["run", "--kernel", kernel, "--size", str(size)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            f"error: --size {size} generates {elements} elements per input for {kernel}, more than the cap of 4194304\n"
        )

    @pytest.mark.parametrize("variant", ["naive", "tiled"])
    def test_matmul_past_the_work_cap_is_usage_error(self, tmp_path, capsys, variant):
        # Its time grows with m * n * p: size 256 took about a second, 2048 would take minutes.
        cap = "more than the cap of 16777216\n"
        code = main(["run", "--kernel", "matmul", "--variant", variant, "--size", "257"])
        assert code == 2
        assert capsys.readouterr().err == f"error: matmul of 257x257 by 257x257 takes {257**3} multiply-adds, {cap}"
        # The same for input files, however few their elements: a column of 4096 times a row of 4097.
        a = write_json(tmp_path, "a.json", [[1]] * 4096)
        b = write_json(tmp_path, "b.json", [[0] * 4097])
        code = main(["run", "--kernel", "matmul", "--variant", variant, "--input", f"{a},{b}"])
        assert code == 2
        assert capsys.readouterr().err == f"error: matmul of 4096x1 by 1x4097 takes {4096 * 4097} multiply-adds, {cap}"

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

    @pytest.mark.parametrize("argv", [["run", "--kernel", "vector_add"], ["run", "--kernel", "vector_add", "--size", "8"]])
    def test_python_dash_m_warpsim_is_the_cli(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        env = {**os.environ, "PYTHONPATH": str(Path(warpsim.__file__).resolve().parents[1])}
        child = subprocess.run([sys.executable, "-m", "warpsim", *argv], capture_output=True, text=True, env=env)
        assert (child.returncode, child.stdout, child.stderr) == (code, captured.out, captured.err)

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

    @pytest.mark.parametrize("block_dim", ["0", "-32"])
    def test_block_dim_below_one_is_usage_error(self, capsys, block_dim):
        code = main(["run", "--kernel", "vector_add", "--size", "8", f"--block-dim={block_dim}"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: threads_per_block={block_dim} must be at least 1\n"

    def test_block_dim_rejected_for_algorithmic_kernels(self, capsys):
        code = main(["run", "--kernel", "reduce_sum", "--size", "16", "--block-dim", "64"])
        assert code == 2

    @pytest.mark.parametrize("kernel", ["vector_add", "inclusive_scan", "exclusive_scan", "matrix_add"])
    def test_variant_rejected_for_kernels_of_one_variant(self, capsys, kernel):
        code = main(["report", "--kernel", kernel, "--size", "8", "--variant", "bogus"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: --variant does not apply to {kernel}: it has one variant\n"

    def test_integer_past_int64_is_usage_error(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", [2**63, -1])
        b = write_json(tmp_path, "b.json", [0, 0])
        code = main(["run", "--kernel", "vector_add", "--input", f"{a},{b}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {a}: element [0] does not fit int64, got {2**63}\n"

    @pytest.mark.parametrize("kernel, text, message", [
        ("reduce_sum", f"[1, {-(2**63) - 1}]", f"element [1] does not fit int64, got {-(2**63) - 1}"),
        ("matrix_add", f"[[1, 2], [3, {2**64}]]", f"element [1][1] does not fit int64, got {2**64}"),
    ])
    def test_input_integer_past_int64_names_its_element(self, tmp_path, capsys, kernel, text, message):
        path = tmp_path / "in.json"
        path.write_text(text)
        paths = ",".join([str(path)] * (2 if kernel == "matrix_add" else 1))
        code = main(["run", "--kernel", kernel, "--input", paths])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {path}: {message}\n")

    def test_int64_extremes_in_an_input_are_accepted(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", [2**63 - 1, -(2**63)])
        b = write_json(tmp_path, "b.json", [0, 0])
        code = main(["run", "--kernel", "vector_add", "--input", f"{a},{b}", "--format", "json"])
        assert (code, json.loads(capsys.readouterr().out)["result"]) == (0, [2**63 - 1, -(2**63)])

    def test_int64_sums_wrap_as_on_a_device(self, tmp_path, capsys):
        a = write_json(tmp_path, "a.json", [2**63 - 1, -(2**63)])
        b = write_json(tmp_path, "b.json", [1, -1])
        code = main(["run", "--kernel", "vector_add", "--input", f"{a},{b}", "--format", "json"])
        captured = capsys.readouterr()
        assert (code, json.loads(captured.out)["result"], captured.err) == (0, [-(2**63), 2**63 - 1], "")

    @pytest.mark.parametrize("kernel, text, message", [
        ("reduce_sum", "[null, 2]", "element [0] must be a finite number, got null"),
        ("reduce_sum", "[1, true]", "element [1] must be a finite number, got true"),
        ("reduce_sum", "[NaN, 1]", "element [0] must be a finite number, got NaN"),
        ("reduce_sum", "[1, -Infinity]", "element [1] must be a finite number, got -Infinity"),
        ("reduce_sum", "[1e400, 1]", "element [0] must be a finite number, got Infinity"),
        ("reduce_sum", '["a", 1]', 'element [0] must be a finite number, got "a"'),
        ("matrix_add", "[[1, 2], [3, false]]", "element [1][1] must be a finite number, got false"),
    ])
    def test_input_element_that_is_not_a_finite_number_is_usage_error(self, tmp_path, capsys, kernel, text, message):
        # Accepted, null and NaN summed to nan, true counted as 1 and 1e400 as inf.
        path = tmp_path / "in.json"
        path.write_text(text)
        paths = ",".join([str(path)] * (2 if kernel == "matrix_add" else 1))
        code = main(["run", "--kernel", kernel, "--input", paths])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {path}: {message}\n")

    def test_floats_and_ints_mix_in_an_input(self, tmp_path, capsys):
        code = main(["run", "--kernel", "reduce_sum", "--input", write_json(tmp_path, "a.json", [1, 2.5])])
        assert (code, capsys.readouterr().out.splitlines()[0]) == (0, "3.5")

    def test_non_finite_json_result_is_usage_error(self, tmp_path, capsys):
        # 1e308 + 1e308 overflows; json.dumps used to print the non-JSON token Infinity.
        a = write_json(tmp_path, "a.json", [1e308, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would reach stderr ahead of the error line
            code = main(["run", "--kernel", "vector_add", "--input", f"{a},{a}", "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: the result holds NaN or an infinity, which JSON cannot hold\n"

    def test_overflowing_result_writes_one_stderr_line(self, tmp_path):
        # A child process, so that nothing between numpy and stderr filters its warnings.
        a = write_json(tmp_path, "a.json", [1e308, 1])
        env = {**os.environ, "PYTHONPATH": str(Path(warpsim.__file__).resolve().parents[1])}
        argv = ["run", "--kernel", "vector_add", "--input", f"{a},{a}", "--format", "json"]
        child = subprocess.run([sys.executable, "-m", "warpsim", *argv], capture_output=True, text=True, env=env)
        assert (child.returncode, child.stdout) == (2, "")
        assert child.stderr == "error: the result holds NaN or an infinity, which JSON cannot hold\n"

    def test_bad_json_input_diagnoses_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2,")
        code = main(["run", "--kernel", "reduce_sum", "--input", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad.json" in err and ":" in err

    @pytest.mark.parametrize("kernel, inputs, message", [
        ("reduce_sum", [[[1, 2], [3, 4]]], "{0}: expected a flat JSON array of numbers"),
        ("matrix_add", [[1, 2], [[1]]], "{0}: expected a JSON array of rows"),
        ("matrix_add", [[[1, 2], [3]], [[1]]], "{0}: ragged rows"),
        ("vector_add", [[1, 2]], "--input expects 2 comma-separated path(s), got 1"),
    ])
    def test_bad_input_file_is_usage_error(self, tmp_path, capsys, kernel, inputs, message):
        paths = [write_json(tmp_path, f"in{i}.json", payload) for i, payload in enumerate(inputs)]
        code = main(["run", "--kernel", kernel, "--input", ",".join(paths)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message.format(*paths)}\n")

    def test_input_object_is_usage_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "object.json", {"a": 1})
        code = main(["run", "--kernel", "reduce_sum", "--input", path])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {path}: expected a flat JSON array of numbers\n")

    @pytest.mark.parametrize("kernel, message", [
        ("reduce_sum", "unknown variant 'bogus', expected one of ('interleaved', 'sequential')"),
        ("matmul", "unknown variant 'bogus'"),
    ])
    def test_unknown_variant_is_usage_error(self, capsys, kernel, message):
        code = main(["run", "--kernel", kernel, "--size", "8", "--variant", "bogus"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

    def test_block_past_the_thread_limit_is_simulation_error(self, capsys):
        code = main(["run", "--kernel", "vector_add", "--size", "8", "--block-dim", "2048"])
        captured = capsys.readouterr()
        payload = {"kind": "LaunchConfigInvalid", "message": "block_dim=(2048, 1, 1) exceeds 1024 threads per block",
                   "threads": [], "buffer": None, "step": None, "kernel": None}
        assert (code, captured.out, captured.err) == (3, "", f"simulation error: {json.dumps(payload)}\n")


@pytest.mark.parametrize("argv", [
    ["run", "--kernel", "reduce_sum", "--input"],
    ["pipeline"],
    ["memflow"],
])
def test_every_command_names_the_file_it_cannot_read(tmp_path, capsys, argv):
    truncated = tmp_path / "truncated.json"
    truncated.write_text("[1, 2,")
    missing = tmp_path / "missing.json"
    for path, message in ((truncated, "1:7: invalid JSON: Expecting value"), (missing, "cannot read")):
        code = main([*argv, str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert str(path) in captured.err and message in captured.err


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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_non_finite_total_duration_is_usage_error(self, tmp_path, capsys, fmt):
        ops = [{"id": name, "stream": 1, "kind": "kernel", "duration": 1e308} for name in ("a", "b")]
        code = main(["pipeline", write_json(tmp_path, "huge.json", {"ops": ops}), "--format", fmt])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: the ops last inf time units in all, which is not finite\n"

    @pytest.mark.parametrize("change, message", [
        ({"engines": 3}, "engines: must be an object, got 3"),
        ({"engines": {"compute": 1e30}}, "engines.compute: must be at most 65536, got 1e+30"),
        ({"engines": {"copy_h2d": 100000000}}, "engines.copy_h2d: must be at most 65536, got 100000000"),
        ({"engines": {"compute": 1.5}}, "engines.compute: must be a whole number, got 1.5"),
        ({"engines": {"copy_d2h": "2"}}, "engines.copy_d2h: must be a whole number, got '2'"),
        ({"stream": 1.5}, "ops[0].stream: must be a whole number, got 1.5"),
        ({"stream": True}, "ops[0].stream: must be a whole number, got True"),
        ({"stream": "1"}, "ops[0].stream: must be a whole number, got '1'"),
        ({"after_index": 0.7}, "events[0].after_index: must be a whole number, got 0.7"),
        ({"event_stream": False}, "events[0].stream: must be a whole number, got False"),
        ({"duration": "5"}, "ops[0].duration: must be a number, got '5'"),
        ({"duration": True}, "ops[0].duration: must be a number, got True"),
        ({"duration": None}, "ops[0].duration: must be a number, got None"),
        ({"engines": {"compute": -1}}, "engines.compute: must not be negative, got -1"),
        ({"engines": {"copy_d2h": -1.0}}, "engines.copy_d2h: must not be negative, got -1.0"),
        ({"duration": 10**400}, f"ops[0].duration: must be within float range, got {10**400}"),
    ])
    def test_bad_scenario_number_is_usage_error(self, tmp_path, capsys, change, message):
        op = {"id": "k", "stream": change.get("stream", 1), "kind": "kernel", "duration": change.get("duration", 1)}
        event = {"id": "e", "stream": change.get("event_stream", 1), "after_index": change.get("after_index", 0)}
        scenario = {"engines": change.get("engines", {}), "ops": [op], "events": [event]}
        code = main(["pipeline", write_json(tmp_path, "bad.json", scenario)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: scenario field {message}\n")

    @pytest.mark.parametrize("text, message", [
        ('{"ops": [3]}', "ops[0]: must be an object, got 3"),
        ('{"ops": 5}', "ops: must be a list, got 5"),
        ('{"events": [7]}', "events[0]: must be an object, got 7"),
        ('{"ops": null}', "ops: must be a list, got None"),
        ('{"events": null}', "events: must be a list, got None"),
        ('{"ops": "ab"}', "ops: must be a list, got 'ab'"),
    ], ids=["op-number", "ops-number", "event-number", "ops-null", "events-null", "ops-string"])
    def test_bad_scenario_shape_is_usage_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "shape.json"
        path.write_text(text)
        code = main(["pipeline", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: scenario field {message}\n")

    def test_whole_float_numbers_run_as_ints(self, tmp_path, capsys):
        def scenario(number):
            op = {"id": "k", "stream": number(1), "kind": "kernel", "duration": 1}
            event = {"id": "e", "stream": number(1), "after_index": number(0)}
            return {"engines": {"compute": number(2)}, "ops": [op], "events": [event]}

        outputs = []
        for number in (int, float):
            code = main(["pipeline", write_json(tmp_path, "whole.json", scenario(number)), "--format", "json"])
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, "")
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("field, value, message", [
        ("ram_capacity", "big", "ram_capacity must be a finite number of bytes, got 'big'"),
        ("vram_capacity", "big", "vram_capacity must be a finite number of bytes, got 'big'"),
        ("epochs", 2.9, "epochs must be a whole number, got 2.9"),
        ("ram_capacity", 10**400, f"ram_capacity must be a finite number of bytes, got {10**400}"),
        ("vram_capacity", 10**400, f"vram_capacity must be a finite number of bytes, got {10**400}"),
    ])
    def test_bad_spec_field_is_usage_error(self, tmp_path, capsys, field, value, message):
        path = write_json(tmp_path, "spec.json", {"dataset_bytes": 4096, "batch_bytes": 1024, "epochs": 2, field: value})
        code = main(["memflow", path])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("spec, message", [
        ({"dataset_bytes": 1e300, "batch_bytes": 1, "epochs": 1}, "more than the cap of 262144"),
        ({"dataset_bytes": 4096, "batch_bytes": 1024, "epochs": 1e9}, "make 4000000000 batch visits"),
        ({"dataset_bytes": 4096, "batch_bytes": 1024, "epochs": 1, "hierarchy": [
            {"name": "RAM", "latency": 1, "bandwidth": 1e-320, "capacity": 1 << 20},
            {"name": "VRAM", "latency": 1, "bandwidth": 1, "capacity": 1 << 20},
            {"name": "SSD", "latency": 1, "bandwidth": 1, "capacity": 1 << 30},
        ]}, "takes a time that is not finite"),
    ])
    def test_unbounded_or_non_finite_flow_is_usage_error(self, tmp_path, capsys, spec, message):
        code = main(["memflow", write_json(tmp_path, "spec.json", spec)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and message in captured.err

    def test_hierarchy_level_names_the_missing_keys(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "level.json",
            {"dataset_bytes": 10, "batch_bytes": 5, "epochs": 1, "hierarchy": [{"name": "RAM"}]},
        )
        code = main(["memflow", path])
        assert code == 2
        assert capsys.readouterr().err == "error: hierarchy[0] is missing latency, bandwidth, capacity\n"

    @pytest.mark.parametrize("latency, message", [
        (None, "hierarchy[0] latency must be a number, got None"),
        (float("nan"), "level RAM: parameters must be positive"),
        (float("inf"), "level RAM: latency must be finite"),
    ])
    def test_null_or_nan_level_parameter_is_usage_error(self, tmp_path, capsys, latency, message):
        spec = json.loads((SCENARIOS / "fits_in_vram.json").read_text())
        spec["hierarchy"][0]["latency"] = latency  # json.dumps writes NaN, which json.load reads back
        code = main(["memflow", write_json(tmp_path, "spec.json", spec)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


    @pytest.mark.parametrize("key", ["latency", "bandwidth", "capacity"])
    def test_level_parameter_past_float_range_is_usage_error(self, tmp_path, capsys, key):
        spec = json.loads((SCENARIOS / "fits_in_vram.json").read_text())
        spec["hierarchy"][1][key] = 10**400
        code = main(["memflow", write_json(tmp_path, "spec.json", spec)])
        captured = capsys.readouterr()
        message = f"error: hierarchy[1] {key} must be within float range, got {10**400}\n"
        assert (code, captured.out, captured.err) == (2, "", message)


class TestParserReuse:
    """``main`` builds its parser once per process; every call must behave as with a fresh parser."""

    ARGVS = [
        ["run", "--kernel", "vector_add", "--size", "8", "--seed", "3"],
        ["run", "--kernel", "matrix_add", "--size", "3", "--format", "json"],
        ["run", "--kernel", "vector_add", "--size", "0"],  # UsageError
        ["run", "--kernel", "nope"],  # argparse: invalid choice
        ["run", "--size", "8"],  # argparse: --kernel is required
        ["report", "--kernel", "reduce_sum", "--size", "16", "--variant", "sequential"],
        ["report", "--kernel", "matmul", "--size", "300"],  # UsageError: over the work cap
        ["trace", "--kernel", "inclusive_scan", "--size", "8", "--one-based"],
        ["trace", "--kernel", "reduce_sum", "--size", "8", "--format", "json"],
        ["trace", "--kernel", "matmul", "--size", "2"],  # TraceUnsupported
        ["trace", "--kernel", "reduce_sum", "--one-based", "extra"],  # argparse: unrecognized argument
        ["pipeline", str(SCENARIOS / "overlap_two_stream.json")],
        ["pipeline", str(SCENARIOS / "serial_one_stream.json"), "--format", "json"],
        ["pipeline", str(SCENARIOS / "missing.json")],  # OSError
        ["pipeline"],  # argparse: missing scenario
        ["pipeline", "--help"],
        ["memflow", str(SCENARIOS / "fits_in_vram.json"), "--format", "text"],
        ["memflow", str(SCENARIOS / "three_stage_flow.json"), "--format", "yaml"],  # argparse: invalid choice
        ["nope"],  # argparse: invalid command
        [],  # argparse: a command is required
    ]

    @staticmethod
    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
        return code, out.getvalue(), err.getvalue()

    def test_calls_match_a_fresh_parser(self, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser)
            want = {tuple(argv): self.call(argv) for argv in self.ARGVS}
        assert {code for code, _, _ in want.values()} == {0, 2}
        argvs = self.ARGVS * 2
        random.Random(5).shuffle(argvs)
        for argv in argvs:
            assert self.call(argv) == want[tuple(argv)], argv
        assert cli._parser() is cli._parser()
