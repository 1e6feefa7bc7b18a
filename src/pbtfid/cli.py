"""Batch command-line surface: fid, scan, verify, spectrum.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success,
1 verification failure, 2 usage or configuration error, 3 input-file error,
4 size cap, 5 internal error.
``scan`` writes each row as soon as it is computed: when a size cap stops it
part-way (exit 4), the rows of the points before the cap are already on
stdout, and stderr carries one line naming the cap.
Numbers in CSV output use up to 17 significant digits and stay positional
down to 1e-4 so rows diff cleanly; JSON uses the shortest lossless float
representation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time

import numpy as np

from . import __version__
from .config import ConfigError, SizeCapError
from .fidelity import (
    PortCoefficients,
    block_spectrum,
    fidelity_given_coefficients,
    fidelity_standard,
    optimize_coefficients,
    scan,
)
from .oracle import average_state, certificate_X, certificate_Y, eigenvalues, pbt_ensemble
from .verify import block_spectrum_match, run_verification

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_SIZE_CAP = 4
EXIT_INTERNAL = 5

CSV_COLUMNS = ["d", "N", "mode", "F", "p_succ", "numeric_mode", "certificate_margin"]

OUTPUT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": [
        "tool",
        "version",
        "d",
        "N",
        "mode",
        "fidelity",
        "success_probability",
        "numeric_mode",
        "certificate_margin",
        "wall_time_ms",
    ],
    "properties": {
        "tool": {"const": "pbtfid"},
        "version": {"type": "string"},
        "d": {"type": "integer", "minimum": 1},
        "N": {"type": "integer", "minimum": 1},
        "mode": {"enum": ["standard", "given-coefficients", "optimized"]},
        "fidelity": {"type": "number", "minimum": 0, "maximum": 1},
        "success_probability": {"type": "number", "minimum": 0, "maximum": 1},
        "numeric_mode": {"enum": ["exact-hybrid", "log-domain"]},
        "certificate_margin": {"type": ["number", "null"]},
        "coefficients": {
            "type": ["object", "null"],
            "additionalProperties": {"type": "number"},
        },
        "eigen": {
            "type": ["object", "null"],
            "properties": {
                "principal_eigenvalue": {"type": "number"},
                "iterations": {"type": "integer"},
                "residual": {"type": "number"},
            },
        },
        "degenerate": {"type": "boolean"},
        "wall_time_ms": {"type": "number"},
    },
}


class CoefficientsFileError(Exception):
    pass


class _KeyPairs(list):
    """A JSON object as its (key, value) pairs in file order, a repeated key
    kept, so that a diagram named twice is seen."""


def format_number(value) -> str:
    """Fixed decimal formatting: 17 significant digits, positional >= 1e-4."""
    if value is None:
        return ""
    v = float(value)
    if v == 0.0:
        return "0"
    if abs(v) >= 1e-4:
        return np.format_float_positional(
            v, precision=17, unique=False, fractional=False, trim="-"
        )
    return f"{v:.17g}"


def _partition_key(mu) -> str:
    return json.dumps(list(mu), separators=(",", ":"), allow_nan=False)


def load_coefficients(path: str, d: int, N: int, renormalize: bool) -> PortCoefficients:
    """Read a JSON map {"[rows...]": c} and build the coefficients.

    Each key is a JSON array of integer row lengths, naming a diagram at
    most once; missing diagrams default to 0. Unless ``renormalize`` is set,
    any violation of the normalisation is rejected with the measured
    residual.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_KeyPairs)
    except OSError as exc:
        raise CoefficientsFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CoefficientsFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, _KeyPairs):
        raise CoefficientsFileError(f"{path}: expected a JSON object at top level")
    entries = {}
    for key, value in raw:
        try:
            rows = json.loads(key)
        except json.JSONDecodeError:
            rows = None
        # type() rather than isinstance(): JSON true is a bool, an int subclass
        if not (isinstance(rows, list) and all(type(r) is int for r in rows)):
            raise CoefficientsFileError(
                f"{path}: key {key!r} is not a JSON array of integer row lengths"
            )
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise CoefficientsFileError(f"{path}: value for {key!r} is not a number")
        if tuple(rows) in entries:
            raise CoefficientsFileError(f"{path}: diagram {rows} is given twice")
        entries[tuple(rows)] = value
    try:
        return PortCoefficients.from_mapping(d, N, entries, renormalize=renormalize)
    except ValueError as exc:
        raise CoefficientsFileError(f"{path}: {exc}") from exc


def output_record(report, wall_time_ms: float) -> dict:
    margin = report.eigen_data.residual if report.eigen_data is not None else None
    return {
        "tool": "pbtfid",
        "version": __version__,
        "d": report.d,
        "N": report.N,
        "mode": report.mode,
        "fidelity": report.fidelity,
        "success_probability": report.success_probability,
        "numeric_mode": report.numeric_mode,
        "certificate_margin": margin,
        "coefficients": (
            {_partition_key(mu): c for mu, c in report.coefficients.items()}
            if report.coefficients is not None
            else None
        ),
        "eigen": dataclasses.asdict(report.eigen_data) if report.eigen_data is not None else None,
        "degenerate": report.degenerate,
        "wall_time_ms": wall_time_ms,
    }


def _record_csv_row(record: dict) -> list[str]:
    return [
        str(record["d"]),
        str(record["N"]),
        record["mode"],
        format_number(record["fidelity"]),
        format_number(record["success_probability"]),
        record["numeric_mode"],
        format_number(record["certificate_margin"]),
    ]


def _record_writer(fmt: str, out):
    """Write the CSV header now (nothing for JSON lines) and return a
    function that writes one record."""
    if fmt == "json":
        return lambda record: out.write(json.dumps(record, allow_nan=False) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    return lambda record: writer.writerow(_record_csv_row(record))


class UsageError(Exception):
    pass


def _check_file_flags(args, applies: bool, option: str) -> None:
    """--coefficients is required where ``option`` is in force; elsewhere it
    and --renormalize are usage errors rather than silently ignored."""
    if applies and args.coefficients is None:
        raise UsageError(f"{option} requires --coefficients")
    if not applies and (args.coefficients is not None or args.renormalize):
        raise UsageError(f"--coefficients and --renormalize apply only with {option}")


def _file_coefficients(args) -> PortCoefficients:
    return load_coefficients(args.coefficients, args.d, args.N, args.renormalize)


def _resolve_report(args):
    _check_file_flags(args, args.mode == "given-coefficients", "--mode given-coefficients")
    if args.mode == "standard":
        return fidelity_standard(args.d, args.N)
    if args.mode == "optimized":
        return optimize_coefficients(args.d, args.N)
    return fidelity_given_coefficients(args.d, args.N, _file_coefficients(args))


def _cmd_fid(args) -> int:
    start = time.perf_counter()
    report = _resolve_report(args)
    wall = (time.perf_counter() - start) * 1000.0
    _record_writer(args.format, sys.stdout)(output_record(report, wall))
    return EXIT_OK


def _cmd_scan(args) -> int:
    if args.mode == "given-coefficients":
        raise UsageError("scan supports only standard and optimized modes")
    if not 1 <= args.n_min <= args.n_max:
        raise UsageError(f"bad range: need 1 <= from <= to, got {args.n_min}..{args.n_max}")
    write = _record_writer(args.format, sys.stdout)
    for n in range(args.n_min, args.n_max + 1):
        start = time.perf_counter()
        report = scan(args.d, [n], mode=args.mode)[0]
        wall = (time.perf_counter() - start) * 1000.0
        write(output_record(report, wall))
    return EXIT_OK


def _cmd_verify(args) -> int:
    given = args.mode == "given-coefficients"
    _check_file_flags(args, given, "--mode given-coefficients")
    coeffs = None
    if args.mode == "optimized":
        coeffs = optimize_coefficients(args.d, args.N).coefficients
    elif given:
        coeffs = _file_coefficients(args)
    checks = run_verification(args.d, args.N, args.mode, coeffs)
    all_passed = all(c.passed for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(
            f"[{status}] {c.name}: deviation {c.deviation:.3e} (tol {c.tolerance:.0e})",
            file=sys.stderr,
        )
    if args.format == "json":
        payload = {
            "tool": "pbtfid",
            "version": __version__,
            "d": args.d,
            "N": args.N,
            "mode": args.mode,
            "passed": all_passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "deviation": c.deviation,
                    "tolerance": c.tolerance,
                }
                for c in checks
            ],
        }
        sys.stdout.write(json.dumps(payload, allow_nan=False) + "\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["check", "passed", "deviation", "tolerance"])
        for c in checks:
            writer.writerow(
                [c.name, str(c.passed).lower(), format_number(c.deviation), format_number(c.tolerance)]
            )
    return EXIT_OK if all_passed else EXIT_VERIFY_FAIL


def _spectrum_rows(args):
    _check_file_flags(args, args.operator == "Y", "--operator Y")
    coeffs = _file_coefficients(args) if args.operator == "Y" else None
    rows = block_spectrum(args.d, args.N, args.operator, coeffs)
    oracle_info = None
    if args.compare:
        if args.operator == "avg":
            op = average_state(pbt_ensemble(args.d, args.N))
        elif args.operator == "X":
            op = certificate_X(args.d, args.N)
        else:
            op = certificate_Y(args.d, args.N, coeffs)
        oracle_info, _ = block_spectrum_match(eigenvalues(op), rows)
    return rows, oracle_info


def _cmd_spectrum(args) -> int:
    rows, oracle_info = _spectrum_rows(args)
    if args.format == "json":
        payload_rows = []
        for k, r in enumerate(rows):
            entry = {
                "alpha": list(r.alpha),
                "mu": list(r.mu),
                "value": r.value,
                "multiplicity": r.multiplicity,
            }
            if oracle_info is not None:
                entry["oracle"], entry["deviation"] = oracle_info[k]
            payload_rows.append(entry)
        payload = {
            "tool": "pbtfid",
            "version": __version__,
            "d": args.d,
            "N": args.N,
            "operator": args.operator,
            "rows": payload_rows,
        }
        sys.stdout.write(json.dumps(payload, allow_nan=False) + "\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        header = ["alpha", "mu", "value", "multiplicity"]
        if oracle_info is not None:
            header += ["oracle", "deviation"]
        writer.writerow(header)
        for k, r in enumerate(rows):
            row = [
                _partition_key(r.alpha),
                _partition_key(r.mu),
                format_number(r.value),
                str(r.multiplicity),
            ]
            if oracle_info is not None:
                row += [format_number(oracle_info[k][0]), format_number(oracle_info[k][1])]
            writer.writerow(row)
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbtfid",
        description="Entanglement fidelity of port-based teleportation protocols.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_mode=True):
        p.add_argument("--d", type=_positive_int, required=True, help="local dimension")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        if with_mode:
            p.add_argument(
                "--mode",
                choices=["standard", "optimized", "given-coefficients"],
                default="standard",
            )

    def coefficients_file(p):
        p.add_argument("--coefficients", default=None, help="JSON coefficients file")
        p.add_argument(
            "--renormalize",
            action="store_true",
            help="rescale file coefficients onto the constraint surface",
        )

    fid = sub.add_parser("fid", help="fidelity of a single (d, N) point")
    fid.add_argument("--N", type=_positive_int, required=True, help="number of ports")
    common(fid)
    coefficients_file(fid)
    fid.set_defaults(func=_cmd_fid)

    scan_p = sub.add_parser("scan", help="fidelity over a range of N")
    scan_p.add_argument("--from", dest="n_min", type=_positive_int, required=True)
    scan_p.add_argument("--to", dest="n_max", type=_positive_int, required=True)
    common(scan_p)
    scan_p.set_defaults(func=_cmd_scan)

    verify = sub.add_parser("verify", help="certify formulas against the dense oracle")
    verify.add_argument("--N", type=_positive_int, required=True)
    common(verify)
    coefficients_file(verify)
    verify.set_defaults(func=_cmd_verify)

    spectrum = sub.add_parser("spectrum", help="block eigenvalue table")
    spectrum.add_argument("--N", type=_positive_int, required=True)
    spectrum.add_argument("--operator", choices=["avg", "X", "Y"], default="avg")
    spectrum.add_argument(
        "--compare", action="store_true", help="add dense-oracle eigenvalue columns"
    )
    common(spectrum, with_mode=False)
    coefficients_file(spectrum)
    spectrum.set_defaults(func=_cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CoefficientsFileError as exc:
        print(f"coefficients file error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except Exception as exc:  # the CLI boundary: any other failure is a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
