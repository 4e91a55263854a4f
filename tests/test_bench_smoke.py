"""Tiny runs of the five benchmark workloads, so their gates run with the suite.

The paper and sweep smoke runs are checked against their golden stdout
digests: `verify-paper` must print byte-identical output, and the sweep
digest covers the Hilbert chain's result on every row, at `--jobs 1` and,
through the process pool, at `--jobs 2`.  The les-wide smoke run checks
that each item's true rank chain lies inside the returned intervals.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _smoke(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--workload", workload],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_paper_workload_smoke():
    _smoke("paper")


def test_oracle_workload_smoke():
    _smoke("oracle-large")


def test_sweep_workload_smoke():
    _smoke("sweep")


def test_sweep_jobs2_workload_smoke():
    _smoke("sweep-jobs2")


def test_les_workload_smoke():
    _smoke("les-wide")
