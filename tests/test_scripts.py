"""The experiment scripts run end to end against this checkout."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

from pbtfid.oracle import check_oracle_size

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, env=None):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def certify_runs(out):
    """The (d, N, mode) of each PASS line and of each STOP line; each PASS
    line's estimate is the oracle's own."""
    lines = out.splitlines()
    assert lines[-1] == "0 failing configurations"
    parsed = {"PASS": [], "STOP": []}
    for line in lines[:-1]:
        status, rest = line[1:].split("] ", 1)
        run = rest.split()[:3]
        parsed[status].append(run)
        if status == "PASS":
            d, n = (int(field.split("=")[1]) for field in run[:2])
            estimate = check_oracle_size(d, n, steered=run[2] == "optimized")
            assert rest.endswith(f", estimate {estimate / 2**20:.1f} MB"), line
    return parsed["PASS"], parsed["STOP"]


def test_certify_desk_scale_sweep_passes():
    # 2^8 = 256: under the default budget both d=2 modes run to N=7
    passed, stopped = certify_runs(run_script("certify_desk_scale.py", "--max-dim", "256"))
    assert stopped == []
    assert ["d=2", "N=7", "standard"] in passed and ["d=2", "N=7", "optimized"] in passed
    assert ["d=2", "N=8", "standard"] not in passed
    assert ["d=3", "N=4", "optimized"] in passed and ["d=4", "N=3", "standard"] in passed


def test_certify_desk_scale_stops_each_mode_at_the_budget():
    # a byte below the steered estimate at d=2 N=7 admits d=2 N=7 standard,
    # whose estimate lacks the steered run's STEERED_MEMBERS arrays:
    # optimized stops there, and the other modes run on
    env = {**os.environ, "PBT_ORACLE_BYTES": str(check_oracle_size(2, 7, steered=True) - 1)}
    out = run_script("certify_desk_scale.py", "--max-dim", "256", env=env)
    passed, stopped = certify_runs(out)
    assert stopped == [["d=2", "N=7", "optimized"]]
    assert ["d=2", "N=7", "standard"] in passed and ["d=2", "N=6", "optimized"] in passed
    assert ["d=3", "N=4", "optimized"] in passed


def test_compare_protocols_reaches_the_qubit_optimum():
    out = run_script("compare_protocols.py", "--d", "2", "--n-max", "8")
    rows = list(csv.DictReader(out.splitlines()))
    assert [int(row["N"]) for row in rows] == list(range(1, 9))
    for row in rows:
        n, standard, optimized = int(row["N"]), float(row["F_standard"]), float(row["F_optimized"])
        assert optimized >= standard
        assert abs(optimized - math.cos(math.pi / (n + 2)) ** 2) <= 1e-12


def test_scan_convergence_stays_above_the_lower_bound():
    out = run_script("scan_convergence.py", "--d", "2", "--n-max", "60", "--step", "20")
    rows = list(csv.DictReader(out.splitlines()))
    assert [int(row["N"]) for row in rows] == [1, 21, 41]
    for row in rows:
        f = float(row["F"])
        assert math.isfinite(f)
        assert f >= float(row["lower_bound"])
