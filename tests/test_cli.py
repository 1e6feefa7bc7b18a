"""Command-line surface: formats, exit codes, determinism."""

import ast
import csv
import hashlib
import inspect
import re
import io
import json
import os
import math
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbtfid
from pbtfid import fidelity_standard
from pbtfid.cli import (
    COMMANDS,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SIZE_CAP,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    OUTPUT_SCHEMA,
    format_number,
    load_coefficients,
    main,
    parse_args,
)

SQ3 = math.sqrt(3.0)
REPO = Path(__file__).resolve().parents[1]
REFERENCE = REPO / "perfbench" / "reference"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "pbtfid", *argv], capture_output=True, text=True, env=env
    )


class TestFormatting:
    def test_seventeen_significant_digits(self):
        assert format_number(0.46650635094610965) == "0.46650635094610965"
        assert format_number(1.0) == "1"
        assert format_number(0.25) == "0.25"
        assert format_number(0) == "0"
        assert format_number(None) == ""

    def test_positional_down_to_1e_minus_4(self):
        assert "e" not in format_number(0.0001234)
        assert format_number(123456.5) == "123456.5"

    def test_tiny_values_may_be_scientific(self):
        assert float(format_number(3.2e-12)) == 3.2e-12

    @staticmethod
    def numpy_positional(v):
        """The numpy formatter that printed every value at 1e-4 and above."""
        if v == 0.0:
            return "0"
        if abs(v) >= 1e-4:
            return np.format_float_positional(
                v, precision=17, unique=False, fractional=False, trim="-"
            )
        return f"{v:.17g}"

    @settings(max_examples=1000, deadline=None)
    @given(st.floats(min_value=1e-4, max_value=1e17, exclude_max=True), st.booleans())
    def test_equals_numpys_positional_form(self, magnitude, negative):
        v = -magnitude if negative else magnitude
        assert format_number(v) == self.numpy_positional(v)

    def test_special_values_equal_numpys_positional_form(self):
        for v in (math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e-4, 1e17 - 16):
            assert format_number(v) == self.numpy_positional(v)


class TestFid:
    def test_standard_json(self, capsys):
        code, out, _ = run_cli(capsys, "fid", "--d", "2", "--N", "2")
        assert code == EXIT_OK
        record = json.loads(out)
        jsonschema.validate(record, OUTPUT_SCHEMA)
        assert record["fidelity"] == pytest.approx((2 + SQ3) / 8, rel=1e-15)
        assert record["mode"] == "standard"
        assert record["coefficients"] is None

    def test_single_port_d3(self, capsys):
        code, out, _ = run_cli(capsys, "fid", "--d", "3", "--N", "1")
        assert code == EXIT_OK
        assert json.loads(out)["fidelity"] == pytest.approx(1 / 9, rel=1e-15)

    def test_optimized_reports_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "fid", "--d", "2", "--N", "2", "--mode", "optimized")
        assert code == EXIT_OK
        record = json.loads(out)
        jsonschema.validate(record, OUTPUT_SCHEMA)
        assert record["fidelity"] == pytest.approx(0.5, abs=1e-12)
        coeffs = record["coefficients"]
        assert coeffs["[2]"] == pytest.approx(2 / 3, rel=1e-12)
        assert coeffs["[1,1]"] == pytest.approx(2.0, rel=1e-12)
        assert record["eigen"]["principal_eigenvalue"] == pytest.approx(2.0)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "fid", "--d", "2", "--N", "3", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["d", "N", "mode", "F", "p_succ", "numeric_mode", "certificate_margin"]
        assert rows[1][:3] == ["2", "3", "standard"]
        assert float(rows[1][3]) == pytest.approx(0.625)

    def test_given_coefficients_file(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"[2]": 2 / 3, "[1,1]": 2.0}))
        code, out, _ = run_cli(
            capsys,
            "fid", "--d", "2", "--N", "2",
            "--mode", "given-coefficients", "--coefficients", str(path),
        )
        assert code == EXIT_OK
        assert json.loads(out)["fidelity"] == pytest.approx(0.5, rel=1e-14)

    def test_given_without_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "fid", "--d", "2", "--N", "2", "--mode", "given-coefficients")
        assert code == EXIT_USAGE
        assert "coefficients" in err

    def test_malformed_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(
            capsys,
            "fid", "--d", "2", "--N", "2",
            "--mode", "given-coefficients", "--coefficients", str(path),
        )
        assert code == EXIT_INPUT

    def test_unnormalised_file_reports_residual(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"[2]": 1.0, "[1,1]": 2.0}))
        code, _, err = run_cli(
            capsys,
            "fid", "--d", "2", "--N", "2",
            "--mode", "given-coefficients", "--coefficients", str(path),
        )
        assert code == EXIT_INPUT
        assert "residual" in err

    def test_renormalize_rescues_unnormalised_file(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        # proportional to the uniform assignment, wrong overall scale
        path.write_text(json.dumps({"[2]": 10.0, "[1,1]": 10.0}))
        code, out, _ = run_cli(
            capsys,
            "fid", "--d", "2", "--N", "2",
            "--mode", "given-coefficients", "--coefficients", str(path), "--renormalize",
        )
        assert code == EXIT_OK
        assert json.loads(out)["fidelity"] == pytest.approx((2 + SQ3) / 8, rel=1e-12)

    def test_renormalize_beyond_float_dimensions(self, capsys, tmp_path):
        # d_mu * m_mu at d=2 N=1100 overflows a float; the sum is taken in log form
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"[550,550]": 1.0}))
        code, out, err = run_cli(
            capsys,
            "fid", "--d", "2", "--N", "1100",
            "--mode", "given-coefficients", "--coefficients", str(path), "--renormalize",
        )
        assert code == EXIT_OK, err
        record = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
        jsonschema.validate(record, OUTPUT_SCHEMA)
        assert record["fidelity"] == pytest.approx(0.25, rel=1e-12)
        assert record["coefficients"]["[550,550]"] == pytest.approx(22909.02378994769, rel=1e-12)

    def test_renormalize_near_float_maximum(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"[2]": 1e308, "[1,1]": 1e308}))
        code, out, err = run_cli(
            capsys,
            "fid", "--d", "2", "--N", "2",
            "--mode", "given-coefficients", "--coefficients", str(path), "--renormalize",
        )
        assert code == EXIT_OK, err
        record = json.loads(out)
        assert record["coefficients"] == {"[2]": 1.0, "[1,1]": 1.0}
        assert record["fidelity"] == fidelity_standard(2, 2).fidelity

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
    @pytest.mark.parametrize(
        "command",
        [["fid"], ["fid", "--format", "csv"], ["verify"], ["spectrum", "--operator", "Y"]],
    )
    def test_non_finite_coefficient_is_input_error(self, capsys, tmp_path, literal, command):
        path = tmp_path / "c.json"
        path.write_text('{"[2]": %s, "[1,1]": 4.0}' % literal)
        mode = [] if command[0] == "spectrum" else ["--mode", "given-coefficients"]
        code, out, err = run_cli(
            capsys, *command, "--d", "2", "--N", "2", *mode, "--coefficients", str(path)
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err.count("\n") == 1 and "(2,)" in err

    def test_missing_partitions_default_to_zero(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"[1,1]": 4.0}))
        code, out, _ = run_cli(
            capsys,
            "fid", "--d", "2", "--N", "2",
            "--mode", "given-coefficients", "--coefficients", str(path),
        )
        assert code == EXIT_OK
        assert json.loads(out)["fidelity"] == pytest.approx(0.25, rel=1e-12)

    def test_sparse_file_echoes_every_diagram(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"[2,1,1]": 4.0, "[1,1,1,1]": 12.0}))
        code, out, err = run_cli(
            capsys,
            "fid", "--d", "4", "--N", "4",
            "--mode", "given-coefficients", "--coefficients", str(path), "--renormalize",
        )
        assert code == EXIT_OK, err
        echoed = json.loads(out)["coefficients"]
        assert list(echoed) == ["[4]", "[3,1]", "[2,2]", "[2,1,1]", "[1,1,1,1]"]
        assert [echoed[k] for k in ("[4]", "[3,1]", "[2,2]")] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "text",
        ['{"[2]": 5.0, "[ 2]": 1.0, "[1,1]": 1.0}', '{"[2]": 5.0, "[2]": 1.0, "[1,1]": 1.0}'],
    )
    def test_diagram_given_twice_is_input_error(self, capsys, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        code, out, err = run_cli(
            capsys,
            "fid", "--d", "2", "--N", "2",
            "--mode", "given-coefficients", "--coefficients", str(path),
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "diagram [2] is given twice" in err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"[2.7]": 1.0, "[1,1]": 1.0}', "[2.7]"),
            ('{"[2.0]": 1.0, "[1,1]": 1.0}', "[2.0]"),
            ('{"[2]": 1.0, "[true,true]": 1.0}', "[true,true]"),
        ],
    )
    def test_non_integer_row_lengths_are_input_error(self, capsys, tmp_path, text, key):
        path = tmp_path / "c.json"
        path.write_text(text)
        code, out, err = run_cli(
            capsys,
            "fid", "--d", "2", "--N", "2",
            "--mode", "given-coefficients", "--coefficients", str(path),
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert f"key {key!r} is not a JSON array of integer row lengths" in err

    def test_float64_overflow_is_size_cap_without_output(self, capsys):
        code, out, err = run_cli(capsys, "fid", "--d", "2", "--N", "1100", "--mode", "optimized")
        assert code == EXIT_SIZE_CAP
        assert out == ""
        assert err.count("\n") == 1 and "overflows float64" in err

    def test_usage_error_exit_code(self):
        result = run_subprocess("fid", "--d", "0", "--N", "2")
        assert result.returncode == EXIT_USAGE
        result = run_subprocess("fid", "--d", "2")
        assert result.returncode == EXIT_USAGE

    def test_internal_error_has_its_own_exit_code(self, capsys, monkeypatch):
        import pbtfid.cli as cli_mod

        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_mod, "optimize_coefficients", broken)
        code, out, err = run_cli(capsys, "fid", "--d", "2", "--N", "3", "--mode", "optimized")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err == "internal error: RuntimeError: boom\n"


class TestConfiguration:
    @pytest.mark.parametrize("value", ["many", "0", "-3", "1.5"])
    def test_bad_oracle_budget_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PBT_ORACLE_BYTES", value)
        code, out, err = run_cli(capsys, "verify", "--d", "2", "--N", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and "PBT_ORACLE_BYTES" in err

    def test_the_oracle_budget_is_the_only_environment_setting(self):
        # the environment is read in config.py alone, and every setting read
        # through env_positive_int is the oracle's byte budget
        readers, names = set(), set()
        for path in (REPO / "src" / "pbtfid").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                    readers.add(path.name)
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    readers.add(path.name)
                elif isinstance(node, ast.Call) and ast.unparse(node.func) == "env_positive_int":
                    names.add(ast.unparse(node.args[0]))
        assert readers == {"config.py"}
        assert names == {"ORACLE_BYTES_ENV"}


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["fidelity", "--d", "2", "--N", "2"],
            ["fid", "--d", "2", "--N", "2", "--ports", "3"],
            ["fid", "--d", "2", "--N", "2", "--form", "csv"],
            ["fid", "--d", "2", "--N"],
            ["fid", "--d", "--N", "2"],
            ["fid", "--d", "2", "--N", "two"],
            ["scan", "--d", "2", "--from", "0", "--to", "3"],
            ["fid", "--d", "2", "--N", "2", "--mode", "best"],
            ["spectrum", "--d", "2", "--N", "2", "--compare=yes"],
            ["spectrum", "--d", "2", "--N", "2", "--compare", "yes"],
            ["verify", "--N", "2"],
        ],
        ids=[
            "no-command", "unknown-command", "unknown-option", "abbreviated-option",
            "missing-value", "option-as-value", "non-integer", "integer-below-one",
            "bad-choice", "value-to-flag", "stray-argument", "missing-required",
        ],
    )
    def test_malformed_argv_is_one_usage_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("usage error: ")

    def test_equals_sign_and_repeated_options(self):
        spaced = parse_args(["scan", "--d", "2", "--from", "1", "--to", "4", "--format", "csv"])
        assert parse_args(["scan", "--d=2", "--from=1", "--to=4", "--format=csv"]) == spaced
        assert parse_args(["scan", "--d", "3", "--from", "1", "--to", "4", "--d=2",
                           "--format", "json", "--format", "csv"]) == spaced
        assert (spaced.d, spaced.n_min, spaced.n_max, spaced.mode) == (2, 1, 4, "standard")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_help_names_every_option(self, capsys, command, flag):
        argv = [flag] if command is None else [command, "--d", "2", flag]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert err == ""
        named = set(re.findall(r"--\w[\w-]*", out))
        for name in COMMANDS if command is None else [command]:
            assert name in out
            assert {option[0] for option in COMMANDS[name][2]} <= named


class TestScan:
    def test_csv_scan_monotone_and_bounded(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--d", "2", "--from", "1", "--to", "100", "--format", "csv"
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 100
        values = [float(r["F"]) for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        for n, f in enumerate(values, start=1):
            assert f >= max(0.0, 1 - 3 / n) - 1e-12
            assert f <= 1.0

    def test_d1_scan_all_ones(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--d", "1", "--from", "1", "--to", "5", "--format", "csv"
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(float(r["F"]) == 1.0 for r in rows)

    def test_json_lines_validate(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--d", "2", "--from", "1", "--to", "3")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert len(lines) == 3
        for line, n in zip(lines, (1, 2, 3)):
            record = json.loads(line)
            jsonschema.validate(record, OUTPUT_SCHEMA)
            assert record["N"] == n

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_size_cap_keeps_the_rows_before_it(self, fmt):
        # d=2 optimized coefficients overflow float64 from N = 1059 on
        result = run_subprocess(
            "scan", "--d", "2", "--from", "1056", "--to", "1062",
            "--mode", "optimized", "--format", fmt,
        )
        assert result.returncode == EXIT_SIZE_CAP
        assert result.stderr.count("\n") == 1 and result.stderr.startswith("size cap:")
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO(result.stdout)))
            assert rows[0] == ["d", "N", "mode", "F", "p_succ", "numeric_mode", "certificate_margin"]
            assert [int(r[1]) for r in rows[1:]] == [1056, 1057, 1058]
        else:
            records = [json.loads(line) for line in result.stdout.splitlines()]
            assert [r["N"] for r in records] == [1056, 1057, 1058]
            for record in records:
                jsonschema.validate(record, OUTPUT_SCHEMA)

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--d", "2", "--from", "5", "--to", "2")
        assert code == EXIT_USAGE
        assert "range" in err

    def test_scan_rejects_given_coefficients_mode(self, capsys):
        code, _, _ = run_cli(
            capsys, "scan", "--d", "2", "--from", "1", "--to", "2",
            "--mode", "given-coefficients",
        )
        assert code == EXIT_USAGE

    def test_scan_rejects_coefficient_file_flags(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"[2]": 1.0}))
        for flag in (["--coefficients", str(path)], ["--renormalize"]):
            result = run_subprocess(
                "scan", "--d", "2", "--from", "1", "--to", "2", "--format", "csv", *flag
            )
            assert result.returncode == EXIT_USAGE
            assert result.stdout == ""

    @pytest.mark.parametrize(
        "command",
        [
            ["fid", "--N", "3"],
            ["fid", "--N", "3", "--mode", "optimized"],
            ["verify", "--N", "3"],
            ["verify", "--N", "3", "--mode", "optimized"],
            ["spectrum", "--N", "3"],
            ["spectrum", "--N", "3", "--operator", "X", "--compare"],
        ],
        ids=["fid", "fid-optimized", "verify", "verify-optimized", "spectrum", "spectrum-X"],
    )
    @pytest.mark.parametrize(
        "flags", [["--coefficients"], ["--renormalize"], ["--coefficients", "--renormalize"]]
    )
    def test_file_flags_rejected_where_unused(self, capsys, tmp_path, command, flags):
        missing = str(tmp_path / "missing.json")
        argv = [*command, "--d", "2"]
        for flag in flags:
            argv += [flag, missing] if flag == "--coefficients" else [flag]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("usage error:")


class TestVerify:
    def test_standard_pass(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--d", "2", "--N", "3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["passed"] is True
        assert {c["name"] for c in payload["checks"]} >= {"formula_vs_oracle", "duality_gap"}
        assert all(c["deviation"] < 1e-9 for c in payload["checks"])
        assert "[PASS]" in err

    def test_optimized_pass_with_perfect_discrimination(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--d", "2", "--N", "2", "--mode", "optimized")
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize(
        "argv",
        [("--N", "14"), ("--N", "13", "--mode", "optimized")],
        ids=["standard-14", "optimized-13"],
    )
    def test_over_the_default_budget_stops_before_allocating(self, capsys, monkeypatch, argv):
        # d=2 N=14 would hold 10 sector members of 1.24 GB each; at N=13 the
        # port state's entries alone take 10 arrays of 166 MB
        monkeypatch.delenv("PBT_ORACLE_BYTES", raising=False)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--d", "2", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_SIZE_CAP and out == ""
        assert err.count("\n") == 1
        assert err.startswith("size cap: the oracle at d=2") and "PBT_ORACLE_BYTES" in err

    def test_size_cap_exit(self, capsys):
        # d=2 N=13 would hold 10 members of 321 MB, over the default budget
        code, _, err = run_cli(capsys, "verify", "--d", "2", "--N", "13")
        assert code == EXIT_SIZE_CAP
        assert "PBT_ORACLE_BYTES" in err

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--d", "3", "--N", "2", "--format", "csv")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["passed"] == "true" for r in rows)

    def test_failure_exit_code_on_sabotaged_tolerance(self, capsys, monkeypatch):
        # shrink the oracle cap instead of faking math: verify against a
        # deliberately wrong coefficients file cannot fail (it is validated),
        # so force a failing check by monkeypatching run_verification
        import pbtfid.cli as cli_mod
        from pbtfid.verify import CheckResult

        monkeypatch.setattr(
            cli_mod,
            "run_verification",
            lambda *a, **k: [CheckResult("synthetic", False, 1.0, 1e-9)],
        )
        code, out, _ = run_cli(capsys, "verify", "--d", "2", "--N", "2")
        assert code == EXIT_VERIFY_FAIL
        assert json.loads(out)["passed"] is False


class TestSpectrum:
    def test_avg_table_2_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--d", "2", "--N", "2", "--operator", "avg", "--format", "csv"
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        table = {(r["alpha"], r["mu"]): (float(r["value"]), int(r["multiplicity"])) for r in rows}
        assert table[("[1]", "[2]")] == (0.75, 2)
        assert table[("[1]", "[1,1]")] == (0.25, 2)

    def test_multiplicities_sum_to_rank(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--d", "2", "--N", "3", "--operator", "X")
        assert code == EXIT_OK
        payload = json.loads(out)
        from pbtfid import certificate_X

        rank = int(
            np.sum(
                np.linalg.eigvalsh(certificate_X(2, 3).matrix)
                > 1e-8
            )
        )
        assert sum(r["multiplicity"] for r in payload["rows"]) == rank

    def test_compare_deviations_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--d", "2", "--N", "3", "--operator", "X", "--compare"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert all(r["deviation"] < 1e-9 for r in payload["rows"])

    def test_formula_only_has_no_cap(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--d", "2", "--N", "40", "--operator", "avg")
        assert code == EXIT_OK
        assert len(json.loads(out)["rows"]) > 0

    def test_compare_hits_cap(self, capsys):
        code, _, err = run_cli(
            capsys, "spectrum", "--d", "2", "--N", "40", "--operator", "avg", "--compare"
        )
        assert code == EXIT_SIZE_CAP

    def test_y_needs_coefficients(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--d", "2", "--N", "2", "--operator", "Y")
        assert code == EXIT_USAGE

    def test_y_with_file(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"[2]": 2 / 3, "[1,1]": 2.0}))
        code, out, _ = run_cli(
            capsys,
            "spectrum", "--d", "2", "--N", "2", "--operator", "Y",
            "--coefficients", str(path), "--compare",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        values = {r["mu"][0] if isinstance(r["mu"], str) else tuple(r["mu"]): r["value"] for r in payload["rows"]}
        assert values[(2,)] == pytest.approx(0.5, rel=1e-12)
        assert all(r["deviation"] < 1e-9 for r in payload["rows"])


class TestDeterminism:
    def test_csv_output_byte_identical(self):
        a = run_subprocess("scan", "--d", "2", "--from", "1", "--to", "12", "--format", "csv")
        b = run_subprocess("scan", "--d", "2", "--from", "1", "--to", "12", "--format", "csv")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_json_identical_up_to_wall_time(self):
        a = run_subprocess("fid", "--d", "3", "--N", "4", "--mode", "optimized")
        b = run_subprocess("fid", "--d", "3", "--N", "4", "--mode", "optimized")
        ra, rb = json.loads(a.stdout), json.loads(b.stdout)
        ra.pop("wall_time_ms")
        rb.pop("wall_time_ms")
        assert ra == rb

    def test_coefficients_roundtrip_through_json(self, tmp_path):
        result = run_subprocess("fid", "--d", "2", "--N", "3", "--mode", "optimized")
        record = json.loads(result.stdout)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(record["coefficients"]))
        coeffs = load_coefficients(str(path), 2, 3, renormalize=False)
        assert coeffs.weights.tolist() == list(record["coefficients"].values())
        again = run_subprocess(
            "fid", "--d", "2", "--N", "3",
            "--mode", "given-coefficients", "--coefficients", str(path),
        )
        assert json.loads(again.stdout)["fidelity"] == pytest.approx(
            record["fidelity"], rel=1e-12
        )

    @pytest.mark.parametrize(
        "d, lo, hi", [(4, 41, 150), (2, 1, 1000)], ids=["scan-d4", "scan-d2"]
    )
    def test_log_domain_scan_matches_reference_bytes(self, capsys, d, lo, hi):
        code, out, _ = run_cli(
            capsys, "scan", "--d", str(d), "--from", str(lo), "--to", str(hi), "--format", "csv"
        )
        assert code == EXIT_OK
        assert out == (REFERENCE / f"scan-d{d}.csv").read_text()

    @pytest.mark.parametrize("d, N", [(4, 60), (3, 152), (4, 80)])
    def test_optimized_json_matches_reference_digest(self, d, N):
        # dense eigh digits depend on the BLAS thread count; the reference
        # was written with one thread
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        result = run_subprocess(
            "fid", "--d", str(d), "--N", str(N), "--mode", "optimized", env=env
        )
        assert result.returncode == EXIT_OK
        record = json.loads(result.stdout)
        record.pop("wall_time_ms")
        digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
        reference = json.loads((REFERENCE / "optimize.json").read_text())
        assert digest == reference[f"d{d}-N{N}"]

    def test_version_flag(self):
        result = run_subprocess("--version")
        assert result.returncode == 0
        assert result.stdout == pbtfid.__version__ + "\n"


# Run in a fresh interpreter: import the CLI, run one job with its output
# discarded, print the names of every loaded module.
MODULE_PROBE = """
import contextlib, io, json, sys
import pbtfid.cli
argv = sys.argv[1:]
if argv == ["channel"]:
    from pbtfid import oracle
    povm = oracle.pretty_good_measurement(oracle.pbt_ensemble(2, 4))
    oracle.teleportation_fidelity_direct(2, 4, povm)
elif argv:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        assert pbtfid.cli.main(argv) == 0
print(json.dumps(sorted(sys.modules)))
"""


def loaded_modules(*argv) -> set[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, *argv], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


def modules_of(package: str, modules: set[str]) -> set[str]:
    return {m for m in modules if m == package or m.startswith(package + ".")}


class TestImportHygiene:
    """scipy is loaded only where ARPACK runs, and numpy.ma, mpmath,
    argparse, gettext and locale never, because each costs import time that
    every invocation would pay."""

    def test_import_loads_no_scipy(self):
        modules = loaded_modules()
        assert modules_of("scipy", modules) == set()
        assert modules_of("mpmath", modules) == set()
        assert modules & {"argparse", "gettext", "locale"} == set()

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "--d", "2", "--from", "1", "--to", "60"),
            ("fid", "--d", "3", "--N", "150", "--mode", "optimized"),
            ("verify", "--d", "2", "--N", "4"),
            ("verify", "--d", "2", "--N", "4", "--mode", "optimized"),
            ("channel",),
            ("spectrum", "--d", "2", "--N", "6", "--operator", "X"),
        ],
        ids=["scan", "dense-optimize", "verify", "optimized-verify", "channel", "spectrum-X"],
    )
    def test_run_loads_neither_scipy_nor_numpy_ma(self, argv):
        modules = loaded_modules(*argv)
        assert modules_of("scipy", modules) == set()
        assert "numpy.ma" not in modules
        assert modules_of("mpmath", modules) == set()
        assert modules & {"argparse", "gettext", "locale"} == set()

    def test_iterative_perron_solve_loads_scipy_sparse_linalg(self):
        assert "scipy.sparse.linalg" in loaded_modules(
            "fid", "--d", "3", "--N", "152", "--mode", "optimized"
        )


def test_third_party_imports_are_the_declared_dependencies():
    # every import in the package, at module level or inside a function,
    # that is neither the standard library nor pbtfid itself is a runtime
    # dependency of pyproject.toml, and every runtime dependency is imported
    text = (REPO / "pyproject.toml").read_text()
    listing = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    declared = {re.match(r"[\w.-]+", spec).group() for spec in re.findall(r'"([^"]+)"', listing)}
    local = set(sys.stdlib_module_names) | {"pbtfid"}
    found = set()
    for path in (REPO / "src" / "pbtfid").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    assert found - local == declared == {"numpy", "scipy"}


class TestPackageSurface:
    """Every name ``pbtfid`` exports has a use: it is an entry point the
    README lists, or code in src/, scripts/ or perfbench/ refers to it."""

    @staticmethod
    def exported() -> set[str]:
        return {
            name
            for name, value in vars(pbtfid).items()
            if not name.startswith("_") and not inspect.ismodule(value)
        }

    @staticmethod
    def readme_entry_points() -> set[str]:
        # the list after the paragraph that introduces it
        text = (REPO / "README.md").read_text()
        listing = text.split("Library entry points", 1)[1].split("\n\n")[1]
        return set(re.findall(r"`(\w+)`", listing))

    @staticmethod
    def has_caller(names: set[str]) -> set[str]:
        """The names that code outside the package's re-exports imports or
        reads as an attribute, or that their own module reads."""
        home = {name: getattr(getattr(pbtfid, name), "__module__", None) for name in names}
        found = set()
        for tree in ("src", "scripts", "perfbench"):
            for path in (REPO / tree).rglob("*.py"):
                if path == REPO / "src" / "pbtfid" / "__init__.py":
                    continue
                module = f"pbtfid.{path.stem}" if tree == "src" else path.name
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.ImportFrom):
                        found |= {alias.name for alias in node.names}
                    elif isinstance(node, ast.Attribute):
                        found.add(node.attr)
                    elif isinstance(node, ast.Name) and home.get(node.id) == module:
                        found.add(node.id)
        return names & found

    def test_readme_lists_only_exported_names(self):
        entry_points = self.readme_entry_points()
        assert "run_verification" in entry_points
        assert entry_points <= self.exported()

    def test_every_export_is_an_entry_point_or_has_a_caller(self):
        rest = self.exported() - self.readme_entry_points()
        assert rest - self.has_caller(rest) == set()
