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
Every command writes through ``_write``: a column table of (CSV header,
record key) pairs picks the CSV cells, and JSON carries each record whole.
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
)
from .oracle import average_state, certificate_X, certificate_Y, eigenvalues, pbt_ensemble
from .verify import block_spectrum_match, run_verification

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_SIZE_CAP = 4
EXIT_INTERNAL = 5

# CSV columns of each table: (header, record key)
REPORT_COLUMNS = (
    ("d", "d"), ("N", "N"), ("mode", "mode"), ("F", "fidelity"), ("p_succ", "success_probability"),
    ("numeric_mode", "numeric_mode"), ("certificate_margin", "certificate_margin"),
)
CHECK_COLUMNS = (
    ("check", "name"), ("passed", "passed"), ("deviation", "deviation"), ("tolerance", "tolerance")
)
SPECTRUM_COLUMNS = (
    ("alpha", "alpha"), ("mu", "mu"), ("value", "value"), ("multiplicity", "multiplicity")
)
COMPARE_COLUMNS = (("oracle", "oracle"), ("deviation", "deviation"))

# the fields that open every JSON object (_head)
_HEAD = {
    "tool": {"const": "pbtfid"},
    "version": {"type": "string"},
    "d": {"type": "integer", "minimum": 1},
    "N": {"type": "integer", "minimum": 1},
}
_DIAGRAM = {"type": "array", "items": {"type": "integer", "minimum": 1}}

OUTPUT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": [
        *_HEAD,
        "mode",
        "fidelity",
        "success_probability",
        "numeric_mode",
        "certificate_margin",
        "wall_time_ms",
    ],
    "properties": {
        **_HEAD,
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

SPECTRUM_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": [*_HEAD, "operator", "rows"],
    "additionalProperties": False,
    "properties": {
        **_HEAD,
        "operator": {"enum": ["avg", "X", "Y"]},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["alpha", "mu", "value", "multiplicity"],
                "additionalProperties": False,
                "properties": {
                    "alpha": _DIAGRAM,
                    "mu": _DIAGRAM,
                    # an exact zero or a normal double: block_spectrum refuses the rest
                    "value": {"type": "number", "anyOf": [{"const": 0}, {"minimum": sys.float_info.min}]},
                    "multiplicity": {"type": "integer", "minimum": 1},
                    "oracle": {"type": "number"},
                    "deviation": {"type": "number", "minimum": 0},
                },
            },
        },
    },
}

VERIFY_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": [*_HEAD, "mode", "passed", "checks"],
    "additionalProperties": False,
    "properties": {
        **_HEAD,
        "mode": {"enum": ["standard", "given-coefficients", "optimized"]},
        "passed": {"type": "boolean"},
        "checks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name", "passed", "deviation", "tolerance"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "deviation": {"type": "number"},
                    "tolerance": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
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


def _cell(value) -> str:
    """A CSV cell: a bool in lower case, a diagram as its key, a number
    through format_number, anything else as its str."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return _partition_key(value)
    if value is None or isinstance(value, float):
        return format_number(value)
    return str(value)


def _write(fmt: str, columns, records, envelope=None) -> None:
    """Write ``records`` (dicts) to stdout.

    CSV is a header, then one row per record over ``columns``, (header, key)
    pairs; JSON is one line per record. Both write each record as soon as it
    is drawn, so a generator streams. With an ``envelope`` (key, head), JSON
    is one object instead: ``head`` with the records as a list under ``key``.
    """
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow([header for header, _ in columns])
        for record in records:
            writer.writerow([_cell(record[key]) for _, key in columns])
    elif envelope is None:
        for record in records:
            sys.stdout.write(json.dumps(record, allow_nan=False) + "\n")
    else:
        key, head = envelope
        sys.stdout.write(json.dumps({**head, key: list(records)}, allow_nan=False) + "\n")


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


def _head(d: int, N: int, **fields) -> dict:
    """The fields that open every JSON object: the tool, its version, the point."""
    return {"tool": "pbtfid", "version": __version__, "d": d, "N": N, **fields}


def _record(args, N: int) -> dict:
    """Evaluate the protocol of ``args.mode`` at (args.d, N) and time it."""
    start = time.perf_counter()
    if args.mode == "standard":
        report = fidelity_standard(args.d, N)
    elif args.mode == "optimized":
        report = optimize_coefficients(args.d, N)
    else:  # fid alone takes a coefficients file, at its own N
        report = fidelity_given_coefficients(args.d, N, _file_coefficients(args))
    wall = (time.perf_counter() - start) * 1000.0
    eigen, coefficients = report.eigen_data, report.coefficients
    return _head(
        report.d,
        report.N,
        mode=report.mode,
        fidelity=report.fidelity,
        success_probability=report.success_probability,
        numeric_mode=report.numeric_mode,
        certificate_margin=eigen.residual if eigen is not None else None,
        coefficients=(
            {_partition_key(mu): c for mu, c in coefficients.items()}
            if coefficients is not None
            else None
        ),
        eigen=dataclasses.asdict(eigen) if eigen is not None else None,
        degenerate=report.degenerate,
        wall_time_ms=wall,
    )


def _cmd_fid(args) -> int:
    _check_file_flags(args, args.mode == "given-coefficients", "--mode given-coefficients")
    _write(args.format, REPORT_COLUMNS, [_record(args, args.N)])
    return EXIT_OK


def _cmd_scan(args) -> int:
    if args.mode == "given-coefficients":
        raise UsageError("scan supports only standard and optimized modes")
    if not 1 <= args.n_min <= args.n_max:
        raise UsageError(f"bad range: need 1 <= from <= to, got {args.n_min}..{args.n_max}")
    points = range(args.n_min, args.n_max + 1)
    _write(args.format, REPORT_COLUMNS, (_record(args, n) for n in points))
    return EXIT_OK


def _cmd_verify(args) -> int:
    given = args.mode == "given-coefficients"
    _check_file_flags(args, given, "--mode given-coefficients")
    coeffs = None
    if args.mode == "optimized":
        coeffs = optimize_coefficients(args.d, args.N).coefficients
    elif given:
        coeffs = _file_coefficients(args)
    checks = run_verification(args.d, args.N, coeffs)
    all_passed = all(c.passed for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(
            f"[{status}] {c.name}: deviation {c.deviation:.3e} (tol {c.tolerance:.0e})",
            file=sys.stderr,
        )
    head = _head(args.d, args.N, mode=args.mode, passed=all_passed)
    _write(args.format, CHECK_COLUMNS, map(dataclasses.asdict, checks), ("checks", head))
    return EXIT_OK if all_passed else EXIT_VERIFY_FAIL


def _cmd_spectrum(args) -> int:
    _check_file_flags(args, args.operator == "Y", "--operator Y")
    coeffs = _file_coefficients(args) if args.operator == "Y" else None
    blocks = block_spectrum(args.d, args.N, args.operator, coeffs)
    rows = [dict(vars(b)) for b in blocks]  # fields are flat: no deep copy
    columns = SPECTRUM_COLUMNS
    if args.compare:
        if args.operator == "avg":
            op = average_state(pbt_ensemble(args.d, args.N))
        elif args.operator == "X":
            op = certificate_X(args.d, args.N)
        else:
            op = certificate_Y(args.d, args.N, coeffs)
        matched, _ = block_spectrum_match(eigenvalues(op), blocks)
        for row, (value, deviation) in zip(rows, matched):
            row.update(oracle=value, deviation=deviation)
        columns += COMPARE_COLUMNS
    _write(args.format, columns, rows, ("rows", _head(args.d, args.N, operator=args.operator)))
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
    import signal  # here: importing this module and main() leave SIGPIPE alone

    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # a closed stdout ends the run silently
    sys.exit(main())


if __name__ == "__main__":
    run()
