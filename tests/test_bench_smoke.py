"""Tiny runs of the five benchmark workloads, so their gates run with the suite.

The paper and sweep smoke runs are checked against their golden stdout
digests: `verify-paper` must print byte-identical output, and the sweep
digest covers the Hilbert chain's result on every row, at `--jobs 1` and,
through forked workers, at `--jobs 2`.  The les-wide smoke run checks
that each item's true rank chain lies inside the returned intervals.  The
layer tracer is checked on its own, on two single queries, so that a
renamed or re-signed traced function fails here and not only in a traced
benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Installs the benchmark's tracer, runs two queries under it and under the
# independent profile-hook counter, and prints what both saw as one JSON line.
_TRACED_QUERIES = """
import json
from k3carpets import cli
from layertrace import COUNTED, TARGETS, CallCounter, Tracer

tracer = Tracer()
tracer.install()
with CallCounter(tracer.originals) as counter:
    codes = [cli.main(["hilbert", "F3", "2,8"]), cli.main(["carpet", "F3", "2,8"])]
metrics = tracer.metrics()
print(json.dumps({
    "codes": codes,
    "targets": [f"{layer}.{name}" for layer, names in TARGETS.items() for name in names],
    "aliases": tracer.aliases,
    "span_calls": tracer.call_counts(),
    "profiled_calls": dict(counter.counts),
    "calls": {name: metrics[f"{name}.calls"] for name in COUNTED},
}))
"""


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


def test_layer_tracer_wraps_every_target():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", _TRACED_QUERIES], capture_output=True,
                          text=True, cwd=ROOT, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["codes"] == [0, 0]
    for target in seen["targets"]:
        assert f"k3carpets.{target}" in seen["aliases"][target], target
    assert seen["span_calls"] == seen["profiled_calls"]
    assert seen["calls"] == {name: seen["profiled_calls"].get(name, 0) for name in seen["calls"]}
    assert seen["calls"]["carpets.hilbert_report"] == seen["calls"]["carpets.carpet_report"] == 1
