"""Tiny run of the benchmark's oracle workload, so its gate runs with the suite."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_oracle_workload_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--workload", "oracle-large"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
