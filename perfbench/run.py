"""k3carpets benchmark: five workloads, end-to-end timings, outside-in layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere; the program is imported from `src/` next to this
directory, and nothing is installed.  Every timed pass runs in a fresh
interpreter (`worker.py`) so module caches start cold, as for a CLI user;
the import is excluded from `wall_s` and the cold start is measured on
its own as `setup_s`.  Every end-to-end timing is corrected for drift in
the host's speed (`hostspeed`): a pass by the probes taken while it ran,
a cold start by the probes taken right before and after it.  A pass at
--jobs 2 stays uncorrected: its pool keeps both cores busy, and neither
a probe during it nor probes around it tracked its speed.  With
`--trace 0` the passes are untraced and the end-to-end metrics are
reported; with `--trace 1` at least two traced passes run, with an
untraced one every other round, and the per-layer metrics of
`layertrace.Tracer` are reported, with `trace.overhead_s` the difference
of their uncorrected `wall_s`.

Every pass is checked (see `check`); a failed check makes the run exit 1.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it print every
metric with its unit and sample count, the environment and the plan.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
PASS_TIMEOUT = 170
SETUP_SAMPLES = 9
EXACT_SUFFIXES = (".calls", ".distinct", ".tightened", ".box_rows")

WORKLOADS = {
    # name: (kind, jobs for untraced passes, minimum passes)
    "paper": ("paper", 1, 3),
    "sweep": ("sweep", 1, 3),
    "sweep-jobs2": ("sweep", 2, 3),
    "oracle-large": ("oracle", 1, 3),
    "les-wide": ("les", 1, 3),
}


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def make_job(workload: str, seed: int, smoke: bool, budget_probes: int = 0) -> dict:
    """The inputs of one workload; the same seed gives the same job."""
    kind, jobs, _ = WORKLOADS[workload]
    job = {"kind": kind, "jobs": jobs}
    if kind == "sweep":
        job["argv"] = workloads.SMOKE_SWEEP_ARGS if smoke else workloads.SWEEP_ARGS
    elif kind == "oracle":
        count, top = (6, 40) if smoke else (workloads.ORACLE_ITEMS, workloads.ORACLE_MAX_COEFF)
        job["queries"] = workloads.oracle_queries(seed, count, top)
    elif kind == "les":
        job["instances"] = workloads.les_instances(seed, 12 if smoke else workloads.LES_ITEMS)
        job["instances"] += workloads.budget_instances(seed, budget_probes)
    return job


def run_pass(job: dict, traced: bool, jobs: int | None = None,
             profile_check: bool = False) -> dict:
    """One pass in a fresh interpreter; returns the worker's result."""
    payload = dict(job, traced=traced, profile_check=profile_check)
    if jobs is not None:
        payload["jobs"] = jobs
    proc = subprocess.run(
        [sys.executable, str(WORKER)], input=json.dumps(payload),
        capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=PASS_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def check(workload: str, result: dict, golden: dict, smoke: bool) -> list[str]:
    """Correctness gate of one pass; returns the problems found."""
    kind = WORKLOADS[workload][0]
    problems = []
    if result["attempted"] < 1:
        problems.append("no operation was attempted")
    if kind == "paper":
        if result["exit"] != 0 or result["failed"]:
            problems.append(f"verify-paper exited {result['exit']} with "
                            f"{result['failed']} claims not PASS")
        if result["digest"] != golden["paper"]:
            problems.append("verify-paper stdout differs from the golden digest")
    elif kind == "sweep":
        want = workloads.SMOKE_SWEEP_EXPECTED_ERRORS if smoke else workloads.SWEEP_EXPECTED_ERRORS
        if result["exit"] != 0 or result["failed"] or result["expected_errors"] != want:
            problems.append(f"sweep exited {result['exit']} with {result['failed']} unexpected "
                            f"error rows and {result['expected_errors']} of {want} expected ones")
        if result["digest"] != golden["smoke-sweep" if smoke else "sweep"]:
            problems.append(f"sweep stdout at --jobs {result['jobs']} differs from the "
                            "golden digest")
    elif kind == "oracle":
        if result["failed"]:
            problems.append(f"{result['failed']} oracle queries did not AGREE, e.g. "
                            f"{result['bad']}")
    else:
        for err in result["infeasible"]:
            problems.append(f"InconsistencyError on a feasible instance: {err}")
        for miss in result["outside"]:
            problems.append(f"interval misses the generating point: {miss}")
    return problems


def cold_start() -> float:
    """Seconds from starting a fresh interpreter until `python -m k3carpets
    --help` has exited."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "k3carpets", "--help"], capture_output=True,
                          text=True, env=_env(), cwd=ROOT, timeout=PASS_TIMEOUT)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.startswith("usage: k3carpets"):
        raise RuntimeError(f"k3carpets --help failed: {proc.stderr.strip()}")
    return elapsed


def corrected_cold_start() -> float:
    """A cold start, corrected by probes right before and after it."""
    before = hostspeed.factor_now()
    seconds = cold_start()
    return seconds * (before + hostspeed.factor_now()) / 2


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10..90, step 10), inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def environment() -> str:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {cpu}"


def item_metrics(passes: list[dict]) -> tuple[float, float, str]:
    """item_ms p50 and p90: over the items of all passes pooled when a pass
    has many items, otherwise over the passes, one item each."""
    if len(passes[0]["items_s"]) > 1:
        items = [t for p in passes for t in p["items_s"]]
        return (quantile(items, 50) * 1e3, quantile(items, 90) * 1e3,
                f"{len(items)} items: {len(items) // len(passes)} per pass, "
                f"{len(passes)} passes pooled")
    walls = [p["wall_s"] for p in passes]
    return (quantile(walls, 50) * 1e3, quantile(walls, 90) * 1e3,
            f"{len(walls)} passes of one item each")


def run(args) -> int:
    workload = args.workload
    plan = load_json(HERE / "plan.json")
    golden = load_json(HERE / "golden.json")
    min_passes = WORKLOADS[workload][2]
    job = make_job(workload, args.seed, False, args.budget_probes)
    traced = bool(args.trace)
    start = time.perf_counter()

    print(f"# k3carpets benchmark: workload {workload}, seed {args.seed}, "
          f"seconds {args.seconds}, trace {int(traced)}")
    print(f"# environment: {environment()}")
    spec = load_json(ROOT / "BENCHMARK.json")
    print(f"# why: {next(w['why'] for w in spec['workloads'] if w['name'] == workload)}")
    print(f"# held-out seed: {plan['held_out_seed']} ({plan['held_out_note']})")

    if not traced:
        cold_start()  # untimed: writes the bytecode cache of a fresh checkout
    setup = []
    untraced, traced_passes, problems = [], [], []
    failed = attempted = 0
    durations = []
    while True:
        t0 = time.perf_counter()
        if traced:
            # Per-layer figures are taken at --jobs 1 for every workload; an
            # untraced pass every other round gives trace.overhead_s.
            new = [run_pass(job, True, jobs=1)]
            traced_passes.append(new[0])
            if len(traced_passes) % 2:
                new.append(run_pass(job, False, jobs=1))
                untraced.append(new[1])
        else:
            new = [run_pass(job, False)]
            untraced.append(new[0])
            factor = new[0]["speed_factor"] if job["jobs"] == 1 else 1.0
            new[0]["raw_wall_s"] = new[0]["wall_s"]
            new[0]["wall_s"] *= factor
            new[0]["items_s"] = [t * factor for t in new[0]["items_s"]]
            # Spread the cold starts over the run, like the passes.
            setup += [corrected_cold_start(), corrected_cold_start()]
        for result in new:
            problems += check(workload, result, golden, False)
            attempted += result["attempted"]
            failed += result["failed"]
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        # Two traced passes at least, so that the repeat gate always runs.
        if len(durations) >= (2 if traced else min_passes) and \
                elapsed + statistics.median(durations) > args.seconds:
            break

    while not traced and len(setup) < SETUP_SAMPLES:
        setup.append(corrected_cold_start())
    if traced:
        problems += repeat_problems(traced_passes)
        metrics = layer_metrics(untraced, traced_passes)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for layer in plan["layer_map"]:
            print(f"# layer {layer['layer']}: moves {', '.join(layer['moves']) or '-'}; "
                  f"no change on {', '.join(layer['no_change']) or '-'}")
        samples = {name: f"median of {len(traced_passes)} traced passes" for name in metrics}
        samples["trace.overhead_s"] = (f"{len(traced_passes)} traced and "
                                       f"{len(untraced)} untraced passes")
    else:
        p50, p90, item_note = item_metrics(untraced)
        walls = [p["wall_s"] for p in untraced]
        metrics = {
            "wall_s": statistics.median(walls),
            "item_ms.p50": p50,
            "item_ms.p90": p90,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "setup_s": statistics.median(setup),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        passes = f"median of {len(untraced)} passes"
        samples = {"wall_s": passes, "item_ms.p50": item_note, "item_ms.p90": item_note,
                   "peak_rss_mb": passes,
                   "setup_s": f"median of {len(setup)} cold starts of python -m k3carpets --help"}
        rate = failed / attempted if attempted else 1.0
        if job["jobs"] == 1:
            factors = [p["speed_factor"] for p in untraced]
            print(f"# timings corrected for host speed: pass factors {min(factors):.3f}-"
                  f"{max(factors):.3f} (median {statistics.median(factors):.3f}, "
                  f"{statistics.median(p['speed_samples'] for p in untraced)} probes per "
                  f"pass); uncorrected wall_s "
                  f"{statistics.median(p['raw_wall_s'] for p in untraced)} s")
        else:
            print(f"# pass timings at --jobs {job['jobs']} are not corrected for host speed")
        print(f"# error_rate = {rate} ({failed} failed of {attempted} attempted)")
    for name, value in metrics.items():
        print(f"# {name} = {value} {units[name]}  ({samples[name]})")
    for problem in dict.fromkeys(problems):
        print(f"# CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def repeat_problems(traced: list[dict]) -> list[str]:
    """Counts must repeat exactly between traced passes of the same inputs."""
    first = traced[0]["layers"]
    return [f"{name} differs between traced passes: {value} vs {other['layers'][name]}"
            for other in traced[1:] for name, value in first.items()
            if name.endswith(EXACT_SUFFIXES) and other["layers"][name] != value]


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    """Median of each per-layer metric over the traced passes, and the
    tracing overhead in wall_s."""
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in untraced))
    return out


def smoke(args) -> int:
    """A few items per workload and a short sweep grid: every correctness
    gate, two traced passes whose counts must repeat exactly, and the alias
    self-check (tracer call counts equal `sys.setprofile` counts) on paper."""
    golden = load_json(HERE / "golden.json")
    problems, summary = [], {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        kind = WORKLOADS[workload][0]
        job = make_job(workload, args.seed, True, args.budget_probes)
        passes = [] if kind == "paper" else [run_pass(job, False)]
        passes += [run_pass(job, True, jobs=1, profile_check=(kind == "paper")),
                   run_pass(job, True, jobs=1)]
        found = []
        for result in passes:
            found += check(workload, result, golden, True)
        found += repeat_problems(passes[-2:])
        summary[f"{workload}.failed"] = sum(p["failed"] for p in passes)
        if kind == "paper":
            profiled, spans = passes[-2]["profiled_calls"], passes[-2]["span_calls"]
            for name in passes[-2]["aliases"]:
                if profiled.get(name, 0) != spans.get(name, 0):
                    found.append(f"{name}: tracer saw {spans.get(name, 0)} calls, "
                                 f"the profiler {profiled.get(name, 0)}")
            summary["paper.exact_seq.propagate.calls"] = spans.get("exact_seq.propagate", 0)
            summary["paper.aliases"] = passes[-2]["aliases"]
        print(f"smoke {workload}: {'ok' if not found else '; '.join(found)}")
        problems += [f"{workload}: {p}" for p in found]
    print(json.dumps(dict(summary, correct=not problems, problems=problems)))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, every gate and the tracer self-checks "
                             "(all workloads unless --workload is given)")
    parser.add_argument("--budget-probes", type=int, default=0,
                        help="add this many node-budget instances to les-wide (they fail today)")
    args = parser.parse_args(argv)
    if not (SRC / "k3carpets" / "__init__.py").is_file():
        sys.stderr.write(f"error: no k3carpets sources under {SRC}; run from a full checkout\n")
        return 2
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
