"""Batch command-line surface: fid, scan, verify, spectrum.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success,
1 verification failure, 2 usage or configuration error, 3 input-file error,
4 size cap.
Numbers in CSV output use up to 17 significant digits and stay positional
down to 1e-4 so rows diff cleanly; JSON uses the shortest lossless float
representation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import __version__
from .config import ConfigError
from .fidelity import (
    PortCoefficients,
    block_spectrum,
    fidelity_given_coefficients,
    fidelity_standard,
    optimize_coefficients,
    scan,
)
from .oracle import (
    SizeCapError,
    average_state,
    certificate_X,
    certificate_Y,
    oracle_cap,
    pbt_ensemble,
    run_verification,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_SIZE_CAP = 4

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
    return json.dumps(list(mu), separators=(",", ":"))


def load_coefficients(path: str, d: int, N: int, renormalize: bool) -> PortCoefficients:
    """Read a JSON map {"[rows...]": c} and build validated coefficients.

    Missing diagrams default to 0. Unless ``renormalize`` is set, any
    violation of the normalisation is rejected with the measured residual.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CoefficientsFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CoefficientsFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CoefficientsFileError(f"{path}: expected a JSON object at top level")
    entries = {}
    for key, value in raw.items():
        try:
            rows = json.loads(key)
            mu = tuple(int(r) for r in rows)
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise CoefficientsFileError(
                f"{path}: key {key!r} is not a JSON array of row lengths"
            ) from exc
        if not isinstance(rows, list):
            raise CoefficientsFileError(f"{path}: key {key!r} must be a JSON array")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise CoefficientsFileError(f"{path}: value for {key!r} is not a number")
        entries[mu] = float(value)
    try:
        coeffs = PortCoefficients.from_mapping(d, N, entries)
    except ValueError as exc:
        raise CoefficientsFileError(f"{path}: {exc}") from exc
    if renormalize:
        from .partitions import specht_dim, weyl_dim

        total = sum(
            c * specht_dim(mu) * weyl_dim(mu, d) for mu, c in coeffs.entries.items()
        )
        if total <= 0:
            raise CoefficientsFileError(f"{path}: all coefficients are zero")
        scale = d**N / total
        coeffs = PortCoefficients(
            d, N, {mu: c * scale for mu, c in coeffs.entries.items()}
        )
    try:
        coeffs.validate()
    except ValueError as exc:
        raise CoefficientsFileError(f"{path}: {exc}") from exc
    return coeffs


def output_record(report, wall_time_ms: float) -> dict:
    margin = report.eigen_data.residual if report.eigen_data is not None else None
    record = {
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
            {_partition_key(mu): c for mu, c in sorted(report.coefficients.entries.items(), reverse=True)}
            if report.coefficients is not None
            else None
        ),
        "eigen": (
            {
                "principal_eigenvalue": report.eigen_data.principal_eigenvalue,
                "iterations": report.eigen_data.iterations,
                "residual": report.eigen_data.residual,
            }
            if report.eigen_data is not None
            else None
        ),
        "degenerate": report.degenerate,
        "wall_time_ms": wall_time_ms,
    }
    return record


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


def _emit_records(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for record in records:
            out.write(json.dumps(record) + "\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for record in records:
            writer.writerow(_record_csv_row(record))


def _resolve_report(args):
    if args.mode == "standard":
        return fidelity_standard(args.d, args.N)
    if args.mode == "optimized":
        return optimize_coefficients(args.d, args.N)
    if args.coefficients is None:
        raise UsageError("--mode given-coefficients requires --coefficients")
    coeffs = load_coefficients(args.coefficients, args.d, args.N, args.renormalize)
    return fidelity_given_coefficients(args.d, args.N, coeffs)


class UsageError(Exception):
    pass


def _cmd_fid(args) -> int:
    start = time.perf_counter()
    report = _resolve_report(args)
    wall = (time.perf_counter() - start) * 1000.0
    _emit_records([output_record(report, wall)], args.format, sys.stdout)
    return EXIT_OK


def _cmd_scan(args) -> int:
    if not 1 <= args.n_min <= args.n_max:
        raise UsageError(f"bad range: need 1 <= from <= to, got {args.n_min}..{args.n_max}")
    records = []
    for n in range(args.n_min, args.n_max + 1):
        start = time.perf_counter()
        report = scan(args.d, [n], mode=args.mode)[0]
        wall = (time.perf_counter() - start) * 1000.0
        records.append(output_record(report, wall))
    _emit_records(records, args.format, sys.stdout)
    return EXIT_OK


def _cmd_verify(args) -> int:
    cap = oracle_cap()
    if args.d ** (args.N + 1) > cap:
        print(
            f"size cap exceeded: d^(N+1) = {args.d ** (args.N + 1)} > {cap}",
            file=sys.stderr,
        )
        return EXIT_SIZE_CAP
    coeffs = None
    if args.mode == "optimized":
        coeffs = optimize_coefficients(args.d, args.N).coefficients
    elif args.mode == "given-coefficients":
        if args.coefficients is None:
            raise UsageError("--mode given-coefficients requires --coefficients")
        coeffs = load_coefficients(args.coefficients, args.d, args.N, args.renormalize)
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
        sys.stdout.write(json.dumps(payload) + "\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["check", "passed", "deviation", "tolerance"])
        for c in checks:
            writer.writerow(
                [c.name, str(c.passed).lower(), format_number(c.deviation), format_number(c.tolerance)]
            )
    return EXIT_OK if all_passed else EXIT_VERIFY_FAIL


def _spectrum_rows(args):
    coeffs = None
    if args.operator == "Y":
        if args.coefficients is None:
            raise UsageError("--operator Y requires --coefficients")
        coeffs = load_coefficients(args.coefficients, args.d, args.N, args.renormalize)
    rows = block_spectrum(args.d, args.N, args.operator, coeffs)
    oracle_info = None
    if args.compare:
        cap = oracle_cap()
        if args.d ** (args.N + 1) > cap:
            raise SizeCapError(
                f"--compare needs the dense oracle: d^(N+1) = "
                f"{args.d ** (args.N + 1)} > {cap}"
            )
        if args.operator == "avg":
            op = average_state(pbt_ensemble(args.d, args.N))
        elif args.operator == "X":
            op = certificate_X(args.d, args.N)
        else:
            op = certificate_Y(args.d, args.N, coeffs)
        eigvals = np.sort(np.linalg.eigvalsh(op.matrix))
        rank = sum(r.multiplicity for r in rows)
        top = eigvals[eigvals.size - rank :]
        order = sorted(range(len(rows)), key=lambda k: rows[k].value)
        oracle_info = {}
        offset = 0
        for k in order:
            chunk = top[offset : offset + rows[k].multiplicity]
            offset += rows[k].multiplicity
            oracle_info[k] = (
                float(np.median(chunk)),
                float(np.max(np.abs(chunk - rows[k].value))),
            )
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
        sys.stdout.write(json.dumps(payload) + "\n")
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
        p.add_argument("--coefficients", default=None, help="JSON coefficients file")
        p.add_argument(
            "--renormalize",
            action="store_true",
            help="rescale file coefficients onto the constraint surface",
        )
        if with_mode:
            p.add_argument(
                "--mode",
                choices=["standard", "optimized", "given-coefficients"],
                default="standard",
            )

    fid = sub.add_parser("fid", help="fidelity of a single (d, N) point")
    fid.add_argument("--N", type=_positive_int, required=True, help="number of ports")
    common(fid)
    fid.set_defaults(func=_cmd_fid)

    scan_p = sub.add_parser("scan", help="fidelity over a range of N")
    scan_p.add_argument("--from", dest="n_min", type=_positive_int, required=True)
    scan_p.add_argument("--to", dest="n_max", type=_positive_int, required=True)
    common(scan_p)
    scan_p.set_defaults(func=_cmd_scan)
    # scan never takes a coefficients file; restrict its modes
    scan_p.set_defaults(coefficients=None)

    verify = sub.add_parser("verify", help="certify formulas against the dense oracle")
    verify.add_argument("--N", type=_positive_int, required=True)
    common(verify)
    verify.set_defaults(func=_cmd_verify)

    spectrum = sub.add_parser("spectrum", help="block eigenvalue table")
    spectrum.add_argument("--N", type=_positive_int, required=True)
    spectrum.add_argument("--operator", choices=["avg", "X", "Y"], default="avg")
    spectrum.add_argument(
        "--compare", action="store_true", help="add dense-oracle eigenvalue columns"
    )
    common(spectrum, with_mode=False)
    spectrum.set_defaults(func=_cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "mode", None) != "standard" and args.command == "scan":
        if args.mode == "given-coefficients":
            print("scan supports only standard and optimized modes", file=sys.stderr)
            return EXIT_USAGE
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


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
