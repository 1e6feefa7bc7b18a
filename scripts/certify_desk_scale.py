#!/usr/bin/env python3
"""Run the full oracle certification sweep over every size under the cap.

For each d in (2, 3, 4) and every N >= 1 with d^(N+1) within both --max-dim
and the oracle cap (PBT_ORACLE_CAP), runs the formula-vs-oracle comparison,
the spectrum matching, and the dual-certificate checks in the standard
setting, and in the optimized setting for N up to MAX_PROJECTOR_BOXES, where
the character averaging of the isotypic projectors stops. Each result line
gives the run's wall time and the process's peak resident memory so far
(``ru_maxrss``), which grows with the largest size run.

Example:
    python3 scripts/certify_desk_scale.py --max-dim 256
"""

import argparse
import resource
import sys
import time

from pbtfid import optimize_coefficients, oracle_cap, run_verification
from pbtfid.oracle import MAX_PROJECTOR_BOXES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-dim", type=int, default=128, help="cap on d^(N+1)")
    args = parser.parse_args()
    cap = min(args.max_dim, oracle_cap())

    failures = 0
    for d in (2, 3, 4):
        n = 1
        while d ** (n + 1) <= cap:
            modes = ("standard", "optimized") if n <= MAX_PROJECTOR_BOXES else ("standard",)
            for mode in modes:
                coeffs = (
                    optimize_coefficients(d, n).coefficients
                    if mode == "optimized"
                    else None
                )
                start = time.perf_counter()
                checks = run_verification(d, n, mode, coeffs)
                wall = time.perf_counter() - start
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                ok = all(c.passed for c in checks)
                failures += 0 if ok else 1
                worst = max(c.deviation for c in checks)
                print(
                    f"[{'PASS' if ok else 'FAIL'}] d={d} N={n} {mode:9s} "
                    f"worst deviation {worst:.2e}, {wall:.2f} s, peak RSS {peak_mb:.0f} MB"
                )
            n += 1
    print(f"{failures} failing configurations")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
