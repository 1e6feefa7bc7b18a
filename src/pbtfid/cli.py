"""Batch command-line surface: fid, scan, verify, spectrum.

One table, ``COMMANDS``, gives each command's options; it drives the parser
and the ``-h``/``--help`` text. An option is spelled in full (no
abbreviations), its value given as ``--name value`` or ``--name=value``; a
repeated option keeps its last value. ``pbtfid --help`` and
``pbtfid COMMAND --help`` print help, ``pbtfid --version`` the version. A
malformed command line prints one ``usage error: ...`` line on stderr and
exits 2.

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

import csv
import dataclasses
import json
import sys
import time
from types import SimpleNamespace

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
    """17 significant digits, trailing zeros dropped: positional from 1e-4
    to below 1e17, which bounds every value printed (F and p_succ are at
    most 1, a block value at most d); scientific below 1e-4."""
    if value is None:
        return ""
    v = float(value)
    return "0" if v == 0.0 else f"{v:.17g}"


def _partition_key(mu) -> str:
    return "[" + ",".join(map(str, mu)) + "]"


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


_D = ("--d", "d", "int", "local dimension")
_N = ("--N", "N", "int", "number of ports")
_FORMAT = ("--format", "format", ("json", "csv"), "output format")
_MODE = ("--mode", "mode", ("standard", "optimized", "given-coefficients"), "protocol")
_FILE = (
    ("--coefficients", "coefficients", "path", "JSON coefficients file"),
    ("--renormalize", "renormalize", "flag", "rescale file coefficients onto the constraint surface"),
)

# Every command: its summary, its handler and its options. An option is
# (name, destination, kind, help); its kind is "int" (an integer >= 1 that
# must be given), a tuple of choices (the first is the default), "path"
# (default none) or "flag" (default off).
COMMANDS = {
    "fid": ("fidelity of a single (d, N) point", _cmd_fid, (_D, _N, _MODE, _FORMAT, *_FILE)),
    "scan": (
        "fidelity over a range of N",
        _cmd_scan,
        (_D, ("--from", "n_min", "int", "first N"), ("--to", "n_max", "int", "last N"), _MODE, _FORMAT),
    ),
    "verify": (
        "certify formulas against the dense oracle",
        _cmd_verify,
        (_D, _N, _MODE, _FORMAT, *_FILE),
    ),
    "spectrum": (
        "block eigenvalue table",
        _cmd_spectrum,
        (
            _D,
            _N,
            ("--operator", "operator", ("avg", "X", "Y"), "block operator"),
            ("--compare", "compare", "flag", "add dense-oracle eigenvalue columns"),
            _FORMAT,
            *_FILE,
        ),
    ),
}
_HELP = ("-h", "--help")


def _spelled(name: str, kind) -> str:
    if kind == "flag":
        return name
    return f"{name} " + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple) else kind.upper())


def _usage(command: str) -> str:
    words = [f"pbtfid {command}"]
    for name, _, kind, _ in COMMANDS[command][2]:
        words.append(_spelled(name, kind) if kind == "int" else f"[{_spelled(name, kind)}]")
    return " ".join(words)


def _help(command: str | None) -> str:
    """The -h/--help text of one command, or of the program when None."""
    if command is None:
        lines = [
            "Entanglement fidelity of port-based teleportation protocols.",
            "",
            *(f"{'usage:' if k == 0 else '':6} {_usage(c)}" for k, c in enumerate(COMMANDS)),
            "       pbtfid --version",
            "",
            *(f"  {c:10}{summary}" for c, (summary, _, _) in COMMANDS.items()),
            "",
            "Options are spelled out in full, as --name VALUE or --name=VALUE;",
            "'pbtfid COMMAND --help' describes a command's options.",
        ]
    else:
        lines = [f"usage: {_usage(command)}", "", COMMANDS[command][0], ""]
        for name, _, kind, text in COMMANDS[command][2]:
            default = f" (default {kind[0]})" if isinstance(kind, tuple) else ""
            lines += [f"  {_spelled(name, kind)}", f"        {text}{default}"]
    return "\n".join(lines) + "\n"


def _show(args) -> int:
    sys.stdout.write(args.text)
    return EXIT_OK


def _value(name: str, kind, text: str):
    if kind == "int":
        try:
            value = int(text)
        except ValueError:
            raise UsageError(f"{name} needs an integer, got {text!r}") from None
        if value < 1:
            raise UsageError(f"{name} must be >= 1, got {value}")
        return value
    if isinstance(kind, tuple) and text not in kind:
        raise UsageError(f"{name} must be one of {', '.join(kind)}, got {text!r}")
    return text


def parse_args(argv) -> SimpleNamespace:
    """The options of one argv, with ``func``, the function that runs them.

    ``-h``/``--help`` and ``--version`` parse to a ``func`` that prints their
    text. Any malformed argv raises UsageError.
    """
    if not argv:
        raise UsageError(f"no command; choose one of {', '.join(COMMANDS)}")
    command, *rest = argv
    if command in _HELP or command == "--version":
        text = _help(None) if command in _HELP else __version__ + "\n"
        return SimpleNamespace(func=_show, text=text)
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}; choose one of {', '.join(COMMANDS)}")
    options = {name: (dest, kind) for name, dest, kind, _ in COMMANDS[command][2]}
    values = {}
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            return SimpleNamespace(func=_show, text=_help(command))
        name, has_value, text = token.partition("=")
        if name not in options:
            raise UsageError(f"{command} has no option {name!r}")
        dest, kind = options[name]
        if kind == "flag":
            if has_value:
                raise UsageError(f"{name} takes no value")
            values[dest] = True
            continue
        if not has_value:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise UsageError(f"{name} needs a value")
        values[dest] = _value(name, kind, text)
    for name, dest, kind, _ in COMMANDS[command][2]:
        if dest not in values:
            if kind == "int":
                raise UsageError(f"{command} requires {name}")
            values[dest] = kind[0] if isinstance(kind, tuple) else (False if kind == "flag" else None)
    return SimpleNamespace(func=COMMANDS[command][1], **values)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
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
