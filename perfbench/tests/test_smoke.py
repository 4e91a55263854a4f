"""Tests of the benchmark itself: generators, gates and tracer self-checks.

    python3 -m pytest perfbench/tests -q

The smoke runs take about 20 s in all; they run every correctness gate on
tiny inputs and the tracer's alias self-check, so the benchmark cannot rot.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# verify-paper's propagate calls as counted by cProfile on this version of
# the battery; a change to the battery or to chain() changes it legitimately.
PAPER_PROPAGATE_CALLS = 10_003


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def test_generators_repeat_per_seed():
    assert workloads.oracle_queries(3, 20, 500) == workloads.oracle_queries(3, 20, 500)
    assert workloads.oracle_queries(3, 20, 500) != workloads.oracle_queries(4, 20, 500)
    assert workloads.les_instances(3, 8) == workloads.les_instances(3, 8)
    assert workloads.les_instances(3, 8) != workloads.les_instances(4, 8)


def test_les_instances_contain_their_point_and_fit_the_volume_grid():
    ratio = workloads.LES_MAX_VOLUME / workloads.LES_MIN_VOLUME
    for i, inst in enumerate(workloads.les_instances(11, 12)):
        target = workloads.LES_MIN_VOLUME * ratio ** ((i + 0.5) / 12)
        assert target / 1.5 <= workloads.volume_of(inst) <= target * 1.5
        for j, term in enumerate(inst["terms"]):
            dims = inst["point"][j::3]
            assert all(lo <= t and (hi is None or t <= hi)
                       for t, lo, hi in zip(dims, term["lo"], term["hi"]))
            assert term["chi"] in (None, dims[0] - dims[1] + dims[2])


def test_search_volume_counts_rank_prefixes():
    # all nine dimensions pinned to 0: one chain, counted at each of 8 depths
    assert workloads.search_volume([0] * 9, [0] * 9) == 8
    # every dimension in [0, 1]: compare with a brute-force count
    lo, hi = [0] * 9, [1] * 9
    brute = 0
    for k in range(1, 9):
        for ranks in itertools.product(range(2), repeat=k):
            r = (0,) + ranks
            brute += all(lo[j] <= r[j] + r[j + 1] <= hi[j] for j in range(k))
    assert workloads.search_volume(lo, hi) == brute


def test_sampler_probes_during_a_pass_and_leaves_its_time_out():
    import time

    import hostspeed

    sampler = hostspeed.Sampler()
    start = time.perf_counter()
    sampler.start()
    clock_start = sampler.clock()
    while time.perf_counter() - start < 0.3:
        pass
    clock_elapsed = sampler.clock() - clock_start
    elapsed = time.perf_counter() - start
    sampler.stop()
    assert len(sampler.samples) >= 4
    assert 0 < sampler.spent and clock_elapsed < elapsed
    assert sampler.factor() > 0


def test_smoke_all_workloads():
    code, lines = run_bench("--smoke")
    assert code == 0, "\n".join(lines)
    summary = json.loads(lines[-1])
    assert summary["correct"] and not summary["problems"]
    assert summary["paper.exact_seq.propagate.calls"] == PAPER_PROPAGATE_CALLS
    aliases = summary["paper.aliases"]["exact_seq.propagate"]
    assert {"k3carpets.exact_seq.propagate", "k3carpets.carpets.propagate",
            "k3carpets.battery.propagate"} <= set(aliases)


def copy_benchmark(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_golden_digest_fails(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    golden_file = tmp_path / "perfbench" / "golden.json"
    golden = json.loads(golden_file.read_text())
    golden["smoke-sweep"] = "0" * 64
    golden_file.write_text(json.dumps(golden))
    code, lines = run_bench("--smoke", "--workload", "sweep", cwd=tmp_path)
    assert code != 0
    assert "golden digest" in lines[-1]


def test_fails_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    code, lines = run_bench("--workload", "paper", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_has_the_contract_keys(trace):
    code, lines = run_bench("--workload", "les-wide", "--seed", "1", "--seconds", "1",
                            "--trace", trace)
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0


def test_budget_probe_is_a_failed_operation_not_a_wrong_answer():
    code, lines = run_bench("--smoke", "--workload", "les-wide", "--budget-probes", "1")
    assert code == 0, "\n".join(lines)
    summary = json.loads(lines[-1])
    assert summary["correct"]
    assert summary["les-wide.failed"] == 3  # one per pass: untraced + two traced
