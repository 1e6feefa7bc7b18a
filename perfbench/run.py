"""pbtfid benchmark: cold-process runs of the scan, optimize and verify commands.

    python3 perfbench/run.py --workload scan-log --seed 0 --seconds 44 --trace 0

Run from anywhere inside a checkout; pbtfid is imported from the checkout's
``src``. Every job runs in its own fresh interpreter, one at a time (a
closed loop with one client), because every real ``pbtfid`` invocation pays
the import and starts with cold ``lru_cache``s. A repetition runs every job
of the workload once; repetitions continue until ``--seconds`` is spent.

``--trace 0`` reports the end-to-end metrics. ``wall_rel`` is the
post-import wall time of every job of the run (stdout captured) divided by
the time of the calibration kernels the same jobs' interpreters ran: the
machine this runs on changes speed by tens of percent from minute to
minute, and the ratio cancels most of that. Per repetition the ratio is
noisier than the two totals, so the run reports the ratio of the totals.
``setup_s`` is the median over all jobs of the time a fresh interpreter
takes to import ``pbtfid.cli``, which every invocation pays, and
``peak_rss_mb`` the largest ``ru_maxrss`` of any job. The raw ``wall_s``
median is printed and kept in the per-job samples.
``--trace 1`` runs the workload untraced, then twice with the span recorder
of ``spans.py``, checks that every counter repeats exactly, and reports the
per-layer metrics. Every output is checked against ``reference/``; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Per-job samples go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jsonschema

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

JOB_TIMEOUT_S = 120.0  # a hung job still ends the run within 180 s
# Children run OpenBLAS on one thread. Dense eigh results differ in the
# last digits between thread counts, and on a shared 2-core machine one
# thread times several times steadier than two.
BLAS_THREADS = 1
VERIFY_CHECKS = (
    "formula_vs_oracle",
    "avg_state_spectrum",
    "certificate_spectrum",
    "dual_feasibility",
    "duality_gap",
)
CHANNEL_TOL = 1e-9
TRACE_SLOWDOWN = 1.3  # traced repetition length over untraced, for planning

END_TO_END = {"wall_rel": "x", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "partitions.enumerate.calls": "count",
    "partitions.enumerate.misses": "count",
    "partitions.enumerate.rows": "count",
    "partitions.enumerate.s": "s",
    "partitions.cache_entries": "count",
    "partitions.exact_dim.calls": "count",
    "partitions.exact_dim.misses": "count",
    "partitions.exact_dim.s": "s",
    "partitions.successors.calls": "count",
    "partitions.successors.s": "s",
    "partitions.log_dim.calls": "count",
    "partitions.log_dim.s": "s",
    "partitions.character.calls": "count",
    "partitions.character.s": "s",
    "fidelity.standard.calls": "count",
    "fidelity.standard.self_s": "s",
    "fidelity.box_incidence.s": "s",
    "fidelity.optimize.self_s": "s",
    "fidelity.eigensolve.s": "s",
    "fidelity.eigensolve.dense_calls": "count",
    "fidelity.eigensolve.iterative_calls": "count",
    "fidelity.eigensolve.max_dim": "count",
    "fidelity.block_spectrum.s": "s",
    "oracle.ensemble.s": "s",
    "oracle.projector.calls": "count",
    "oracle.projector.s": "s",
    "oracle.pgm.s": "s",
    "oracle.certificate.s": "s",
    "oracle.success_probability.calls": "count",
    "oracle.success_probability.s": "s",
    "oracle.certify.s": "s",
    "oracle.spectrum_match.s": "s",
    "oracle.channel.s": "s",
    "oracle.eig.calls": "count",
    "oracle.eig.complex_calls": "count",
    "oracle.eig.s": "s",
    "oracle.eig.max_dim": "count",
    "oracle.eig.flops_computed": "flop",
    "oracle.eig.verify_d2_n8_calls": "count",
    "cli.invocations": "count",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}
WALL_TIME_VALUE = re.compile(r'"wall_time_ms": [-+.0-9eE]+')
ANCHOR_ARGV = ["verify", "--d", "2", "--N", "8", "--format", "csv"]


def cli_job(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def workload_jobs(name: str, seed: int) -> list[dict]:
    """The jobs of one repetition. Seed 0 gives the reference set; other
    seeds move scan starts and the iterative-eigensolver optimize points a
    few steps, keeping numeric mode, eigensolver side and oracle sizes, and
    rotate the job order."""
    if name == "scan-log":
        # the d=2 acceptance scan plus the log-domain d=4 band, where
        # partition enumeration dominates and the caches grow largest
        jobs = [
            cli_job("scan", "--d", 2, "--from", 1 + seed % 5, "--to", 1000, "--format", "csv"),
            cli_job("scan", "--d", 4, "--from", 41 + seed % 4, "--to", 150, "--format", "csv"),
        ]
    elif name == "optimize":
        # one point each side of DENSE_EIGEN_LIMIT = 2000 for d = 3 and d = 4
        shift = seed % 3
        jobs = [
            cli_job("fid", "--d", 3, "--N", 150, "--mode", "optimized"),
            cli_job("fid", "--d", 3, "--N", 152 + shift, "--mode", "optimized"),
            cli_job("fid", "--d", 4, "--N", 60, "--mode", "optimized"),
            cli_job("fid", "--d", 4, "--N", 80 + shift, "--mode", "optimized"),
        ]
    elif name == "verify":
        # every oracle stage; the channel job is the only public entry to it
        jobs = [
            cli_job(*ANCHOR_ARGV),
            cli_job("verify", "--d", 2, "--N", 6, "--mode", "optimized", "--format", "csv"),
            cli_job("verify", "--d", 3, "--N", 4, "--mode", "optimized", "--format", "csv"),
            {"kind": "channel", "d": 2, "N": 8},
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    k = seed % len(jobs)
    return jobs[k:] + jobs[:k]


WORKLOADS = ("scan-log", "optimize", "verify")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    return env


class Runner:
    """Runs children one at a time and keeps the attempt and failure counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.env = child_env()
        self._schema = None

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess | None:
        self.attempted += 1
        try:
            return subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=JOB_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            self.fail(f"timed out after {JOB_TIMEOUT_S} s: {argv}")
            return None

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def warm_up(self) -> None:
        """Import pbtfid once, untimed, so the bytecode caches exist."""
        proc = self._run([sys.executable, "-c", "import pbtfid.cli"])
        if proc is not None and proc.returncode != 0:
            self.fail(f"import pbtfid.cli exited {proc.returncode}: {proc.stderr[-2000:]}")

    def job(self, job: dict) -> dict | None:
        proc = self._run([sys.executable, str(HERE / "child.py"), json.dumps(job)])
        if proc is None:
            return None
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            self.fail(f"child exited {proc.returncode} for {job}: {proc.stderr[-2000:]}")
            return None
        error = self.check(job, result)
        if error is not None:
            self.fail(f"{describe(job)}: {error}")
            return None
        return result

    def check(self, job: dict, result: dict) -> str | None:
        """The correctness gate; returns an error message or None."""
        if result["exit_code"] != 0:
            return f"exit code {result['exit_code']}"
        threads = set(result["blas_threads"].values())
        if threads and threads != {BLAS_THREADS}:
            return f"OpenBLAS runs {threads} threads, expected {BLAS_THREADS}"
        if job["kind"] == "channel":
            f, formula = result["fidelity"], result["formula"]
            if not (0.0 <= f <= 1.0 and abs(f - formula) <= CHANNEL_TOL):
                return f"channel fidelity {f!r} vs fidelity_standard {formula!r}"
            return None
        command, out = job["argv"][0], result["stdout"]
        if command == "scan":
            expected = expected_scan(job["argv"])
            return None if out == expected else "scan CSV differs from the reference"
        if command == "fid":
            return self.check_fid(job["argv"], out)
        return check_verify(out)

    def check_fid(self, argv: list[str], out: str) -> str | None:
        if self._schema is None:
            sys.path.insert(0, str(SRC))
            from pbtfid.cli import OUTPUT_SCHEMA

            self._schema = OUTPUT_SCHEMA
        if not out.endswith("\n") or out.count("\n") != 1:
            return "expected exactly one JSON line"
        try:
            record = json.loads(out, parse_constant=reject_constant)
        except ValueError as exc:
            return f"invalid JSON: {exc}"
        try:
            jsonschema.validate(record, self._schema)
        except jsonschema.ValidationError as exc:
            return f"schema violation: {exc.message}"
        digest = fid_digest(record)
        refs = json.loads((REFERENCE / "optimize.json").read_text())
        key = f"d{arg(argv, '--d')}-N{arg(argv, '--N')}"
        if digest != refs.get(key):
            return f"JSON differs from the reference {key}"
        return None


def fid_digest(record: dict) -> str:
    """SHA-256 of a fid JSON record with ``wall_time_ms`` left out."""
    rest = {k: v for k, v in record.items() if k != "wall_time_ms"}
    return hashlib.sha256(json.dumps(rest).encode()).hexdigest()


def reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON output")


def arg(argv: list[str], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def expected_scan(argv: list[str]) -> str:
    d = arg(argv, "--d")
    lines = (REFERENCE / f"scan-d{d}.csv").read_text().splitlines(keepends=True)
    by_n = {int(line.split(",")[1]): line for line in lines[1:]}
    rows = [by_n.get(n, "") for n in range(arg(argv, "--from"), arg(argv, "--to") + 1)]
    return lines[0] + "".join(rows)


def check_verify(out: str) -> str | None:
    lines = out.splitlines()
    if not lines or lines[0] != "check,passed,deviation,tolerance":
        return "unexpected verify header"
    names = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 4:
            return f"malformed verify row {line!r}"
        name, passed, deviation, tolerance = fields
        names.append(name)
        if passed != "true" or not float(deviation) <= float(tolerance):
            return f"check {name} failed: deviation {deviation}, tolerance {tolerance}"
    missing = set(VERIFY_CHECKS) - set(names)
    return f"checks missing: {sorted(missing)}" if missing else None


def describe(job: dict) -> str:
    if job["kind"] == "cli":
        return "pbtfid " + " ".join(job["argv"])
    return f"channel d={job['d']} N={job['N']}"


def repetition(runner: Runner, jobs: list[dict], spans_tag: str | None = None):
    """Run every job once. Returns the summed post-import wall time and the
    results, or None when a child crashed or timed out."""
    results = []
    for i, job in enumerate(jobs):
        if spans_tag is not None:
            job = dict(job, trace=str(OUT / f"spans-{spans_tag}-{i}.npz"))
        result = runner.job(job)
        if result is None:
            return None
        results.append(result)
    return sum(r["wall_s"] for r in results), results


def repeat(runner: Runner, jobs: list[dict], deadline: float, reserve: float = 0.0):
    """Repetitions until the next one would end after ``deadline``, keeping
    ``reserve`` repetition lengths free; always at least one."""
    reps = []
    while True:
        t = time.perf_counter()
        rep = repetition(runner, jobs)
        elapsed = time.perf_counter() - t
        if rep is not None:
            reps.append(rep)
        if time.perf_counter() + elapsed * (1.0 + reserve) > deadline:
            return reps


def summarize(name: str, unit: str, values: list[float]) -> None:
    """One human-readable line per metric: median, quartiles, sample count."""
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q2 = q3 = values[0] if values else float("nan")
    print(f"{name}: median {q2:.6g} {unit}, quartiles {q1:.6g}..{q3:.6g}, n={len(values)}")


def write_detail(name: str, detail: dict) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}.json").write_text(json.dumps(detail, indent=1) + "\n")


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_untraced(runner: Runner, workload: str, jobs: list[dict], deadline: float) -> dict:
    reps = repeat(runner, jobs, deadline)
    walls = [wall for wall, _ in reps]
    cals = [sum(r["cal_s"] for r in results) for _, results in reps]
    rels = [wall / cal for wall, cal in zip(walls, cals)]
    setups = [r["import_s"] for _, results in reps for r in results]
    rss = [max(r["maxrss_kb"] for r in results) / 1024.0 for _, results in reps]
    write_detail(
        f"{workload}-trace0",
        {
            "jobs": [describe(j) for j in jobs],
            "job_wall_s": [[results[i]["wall_s"] for _, results in reps] for i in range(len(jobs))],
            "job_cal_s": [[results[i]["cal_s"] for _, results in reps] for i in range(len(jobs))],
            "wall_s": walls,
            "wall_rel": rels,
            "setup_s": setups,
            "peak_rss_mb": rss,
            "blas_threads": reps[0][1][0]["blas_threads"] if reps else None,
        },
    )
    summarize("wall_s", "s", walls)
    summarize("wall_rel", "x", rels)
    summarize("setup_s", "s", setups)
    summarize("peak_rss_mb", "MB", rss)
    return {
        "wall_rel": sum(walls) / sum(cals) if reps else 0.0,
        "setup_s": median_or_zero(setups),
        "peak_rss_mb": max(rss, default=0.0),
    }


def stdout_bytes(out: str) -> int:
    """Bytes of stdout, leaving out the digits of ``wall_time_ms`` values:
    they are the only timing in the output and vary in length."""
    return len(WALL_TIME_VALUE.sub('"wall_time_ms": ', out).encode())


def traced_pass(runner: Runner, workload: str, jobs: list[dict], tag: str):
    """One traced repetition: (wall, per-layer metrics summed over the jobs,
    per-job metrics), or None when a job failed to run."""
    rep = repetition(runner, jobs, spans_tag=f"{workload}-{tag}")
    if rep is None:
        return None
    wall, results = rep
    total: dict[str, float] = {}
    for job, r in zip(jobs, results):
        layer = dict(r["trace"])
        layer["cli.stdout_bytes"] = stdout_bytes(r.get("stdout", ""))
        layer["oracle.eig.verify_d2_n8_calls"] = (
            layer["oracle.eig.calls"] if job.get("argv") == ANCHOR_ARGV else 0
        )
        for key, value in layer.items():
            if key.endswith("max_dim"):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return wall, total, [r["trace"] for r in results]


def is_time(metric: str) -> bool:
    return metric.endswith(".s") or metric.endswith(".self_s")


def run_traced(runner: Runner, workload: str, jobs: list[dict], deadline: float):
    """Untraced repetitions, then two traced ones; returns (metrics, counts_repeat)."""
    walls = [wall for wall, _ in repeat(runner, jobs, deadline, reserve=2 * TRACE_SLOWDOWN)]
    passes = [traced_pass(runner, workload, jobs, f"pass{k}") for k in (1, 2)]
    if not walls or None in passes:
        return {name: 0.0 for name in PER_LAYER}, False
    first, second = ({k: v for k, v in p[1].items() if not is_time(k)} for p in passes)
    repeated = first == second
    if not repeated:
        diff = {k: (first.get(k), second.get(k)) for k in first.keys() | second.keys()
                if first.get(k) != second.get(k)}
        print(f"FAILED: counters differ between traced passes: {diff}", file=sys.stderr)
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = statistics.mean(p[0] for p in passes) - statistics.median(walls)
        elif unit == "s":
            value = statistics.mean(p[1].get(name, 0.0) for p in passes)
        else:
            value = passes[0][1].get(name, 0)
        metrics[name] = value
    write_detail(
        f"{workload}-trace1",
        {
            "jobs": [describe(j) for j in jobs],
            "untraced_wall_s": walls,
            "traced_wall_s": [p[0] for p in passes],
            "per_job": [p[2] for p in passes],
        },
    )
    return metrics, repeated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    if not (SRC / "pbtfid" / "cli.py").is_file():
        print(f"no pbtfid sources under {SRC}", file=sys.stderr)
        return 2
    jobs = workload_jobs(args.workload, args.seed)
    runner = Runner()
    runner.warm_up()
    deadline = start + args.seconds
    if args.trace:
        metrics, repeated = run_traced(runner, args.workload, jobs, deadline)
        units = PER_LAYER
    else:
        metrics, repeated = run_untraced(runner, args.workload, jobs, deadline), True
        units = END_TO_END
    result = {
        "correct": runner.failed == 0 and repeated,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(f"error_rate: {runner.failed}/{runner.attempted}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
