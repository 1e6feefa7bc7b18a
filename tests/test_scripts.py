"""The experiment scripts run end to end against this checkout."""

import csv
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_certify_desk_scale_sweep_passes():
    # 2^8 = 256: d=2 standard runs to N=7, past the optimized limit N=6
    out = run_script("certify_desk_scale.py", "--max-dim", "256")
    lines = out.splitlines()
    assert lines[-1] == "0 failing configurations"
    runs = [line.split("]", 1)[1].split(" worst")[0].split() for line in lines[:-1]]
    assert ["d=2", "N=7", "standard"] in runs and ["d=2", "N=7", "optimized"] not in runs
    assert ["d=2", "N=6", "optimized"] in runs and ["d=2", "N=8", "standard"] not in runs
    assert ["d=3", "N=4", "optimized"] in runs and ["d=4", "N=3", "standard"] in runs


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
