#!/usr/bin/env python3
"""Run the full oracle certification sweep over every size the budget admits.

For each d in (2, 3, 4) and each mode, standard and optimized, runs the
formula-vs-oracle comparison, the spectrum matching and the dual-certificate
checks at N = 1, 2, ..., up to d^(N+1) <= --max-dim; a mode stops at its first
size over the oracle's memory budget (PBT_ORACLE_BYTES), which raises
SizeCapError before anything is allocated. Each result line gives the run's
wall time, the process's peak resident memory so far (``ru_maxrss``), which
grows with the largest size run, and the oracle's estimate of the run's peak
(``check_oracle_size``), which bounds the growth it causes, so that one sweep
rechecks the estimate.

Example:
    python3 scripts/certify_desk_scale.py --max-dim 256
"""

import argparse
import resource
import sys
import time

from pbtfid import SizeCapError, optimize_coefficients, run_verification
from pbtfid.oracle import check_oracle_size


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-dim", type=int, default=128, help="cap on d^(N+1)")
    args = parser.parse_args()

    failures = 0
    for d in (2, 3, 4):
        for mode in ("standard", "optimized"):
            n = 1
            while d ** (n + 1) <= args.max_dim:
                coeffs = optimize_coefficients(d, n).coefficients if mode == "optimized" else None
                start = time.perf_counter()
                try:
                    checks = run_verification(d, n, mode, coeffs)
                except SizeCapError as exc:
                    print(f"[STOP] d={d} N={n} {mode:9s} {exc}")
                    break
                wall = time.perf_counter() - start
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                estimate_mb = check_oracle_size(d, n, steered=mode == "optimized") / 2**20
                ok = all(c.passed for c in checks)
                failures += 0 if ok else 1
                worst = max(c.deviation for c in checks)
                print(
                    f"[{'PASS' if ok else 'FAIL'}] d={d} N={n} {mode:9s} "
                    f"worst deviation {worst:.2e}, {wall:.2f} s, peak RSS {peak_mb:.0f} MB, "
                    f"estimate {estimate_mb:.1f} MB"
                )
                n += 1
    print(f"{failures} failing configurations")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
