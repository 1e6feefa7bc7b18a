"""Write the reference outputs the benchmark's correctness gate compares against.

    python3 perfbench/make_reference.py

Runs the real ``python3 -m pbtfid`` from the checkout's ``src`` over every
scan range and optimize point that any seed can produce. Scan CSV is stored
as text; optimize JSON is stored as the SHA-256 of the record without
``wall_time_ms``. OpenBLAS runs on one thread, as in the benchmark.
The stored references were made at the commit that added the benchmark;
regenerate them only when an output is meant to change.
"""

import json
import os
import subprocess
import sys

from run import BLAS_THREADS, REFERENCE, SRC, arg, fid_digest, workload_jobs

SEEDS = range(60)  # covers every residue of the seed arithmetic in workload_jobs


def pbtfid(argv: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(BLAS_THREADS))
    proc = subprocess.run(
        [sys.executable, "-m", "pbtfid", *argv], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout


def main() -> None:
    REFERENCE.mkdir(exist_ok=True)
    bands: dict[int, tuple[int, int]] = {}
    points: set[tuple[int, int]] = set()
    for workload in ("scan-log", "optimize"):
        for seed in SEEDS:
            for job in workload_jobs(workload, seed):
                argv = job["argv"]
                d = arg(argv, "--d")
                if argv[0] == "scan":
                    lo, hi = bands.get(d, (arg(argv, "--from"), arg(argv, "--to")))
                    bands[d] = (min(lo, arg(argv, "--from")), max(hi, arg(argv, "--to")))
                else:
                    points.add((d, arg(argv, "--N")))
    for d, (lo, hi) in sorted(bands.items()):
        out = pbtfid(["scan", "--d", str(d), "--from", str(lo), "--to", str(hi), "--format", "csv"])
        (REFERENCE / f"scan-d{d}.csv").write_text(out)
    digests = {}
    for d, n in sorted(points):
        argv = ["fid", "--d", str(d), "--N", str(n), "--mode", "optimized"]
        digests[f"d{d}-N{n}"] = fid_digest(json.loads(pbtfid(argv)))
    (REFERENCE / "optimize.json").write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
