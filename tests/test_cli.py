"""Command-line surface: formats, exit codes, determinism."""

import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from pbtfid.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_SIZE_CAP,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    OUTPUT_SCHEMA,
    format_number,
    load_coefficients,
    main,
)

SQ3 = math.sqrt(3.0)
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "pbtfid", *argv], capture_output=True, text=True
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

    def test_usage_error_exit_code(self):
        result = run_subprocess("fid", "--d", "0", "--N", "2")
        assert result.returncode == EXIT_USAGE
        result = run_subprocess("fid", "--d", "2")
        assert result.returncode == EXIT_USAGE


class TestConfiguration:
    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_bad_exact_threshold_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PBT_EXACT_THRESHOLD", value)
        code, out, err = run_cli(capsys, "fid", "--d", "2", "--N", "3")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and "PBT_EXACT_THRESHOLD" in err

    @pytest.mark.parametrize("value", ["many", "0"])
    def test_bad_oracle_cap_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PBT_ORACLE_CAP", value)
        code, out, err = run_cli(capsys, "verify", "--d", "2", "--N", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("\n") == 1 and "PBT_ORACLE_CAP" in err


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

    def test_size_cap_exit(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--d", "2", "--N", "12")
        assert code == EXIT_SIZE_CAP
        assert "cap" in err

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
        from pbtfid.oracle import CheckResult

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
        import numpy as np

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
        coeffs.validate()
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

    def test_version_flag(self):
        result = run_subprocess("--version")
        assert result.returncode == 0
