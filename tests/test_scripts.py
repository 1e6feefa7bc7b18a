"""The experiment scripts run end to end against this checkout."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_certify_desk_scale_sweep_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "certify_desk_scale.py"), "--max-dim", "64"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 failing configurations"
