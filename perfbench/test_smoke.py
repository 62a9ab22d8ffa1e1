"""Smoke test of the benchmark itself (about two minutes):

    python3 -m pytest perfbench
"""

import subprocess
import sys
from pathlib import Path


def test_smoke_mode_reports_every_metric_and_known_verdicts():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("smoke ok:") == 6
