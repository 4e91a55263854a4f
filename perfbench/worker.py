"""One pass of one workload in a fresh interpreter.

Reads a job (JSON) on stdin, imports k3carpets, runs the pass and prints
one JSON line with its timings, outputs to check and peak RSS.  Only the
pass itself is inside `wall_s`; the import, input decoding and the checks
after the pass are not.  An untraced pass at --jobs 1 also probes the
host's speed (`hostspeed.Sampler`) and reports the factor that corrects
its timings; the probes' own time is left out of every timing.  At
--jobs 2 the pool keeps both cores busy, and no probe tracks its speed.
`run.py` starts one worker per pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys

import hostspeed

SAMPLER = hostspeed.Sampler()
clock = SAMPLER.clock
NO_CARPET = "no embedded carpet exists"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_pass(cli, argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = clock()
        code = cli.main(argv)
        wall = clock() - start
    text = buf.getvalue()
    return {"wall_s": wall, "items_s": [wall], "exit": code,
            "digest": _digest(text), "lines": text.splitlines()}


def run_paper(cli, job: dict) -> dict:
    out = _cli_pass(cli, ["verify-paper"])
    statuses = [line.split()[-1] for line in out.pop("lines")[2:-1]]
    out["attempted"] = len(statuses)
    out["failed"] = sum(status != "PASS" for status in statuses) or int(out["exit"] != 0)
    return out


def run_sweep(cli, job: dict) -> dict:
    """Rows whose error is not the expected "no embedded carpet exists"
    count as failed."""
    out = _cli_pass(cli, job["argv"] + ["--jobs", str(job["jobs"])])
    lines = out.pop("lines")
    error_col = lines[1].rindex("error")
    errors = [row[error_col:].strip() for row in lines[2:-1] if row[error_col:].strip()]
    out["attempted"] = len(lines) - 3
    out["expected_errors"] = sum(NO_CARPET in e for e in errors)
    out["failed"] = len(errors) - out["expected_errors"] or out["attempted"] * (out["exit"] != 0)
    out["jobs"] = job["jobs"]
    return out


def run_oracle(cli, job: dict) -> dict:
    """A query fails unless it exits 0 with an AGREE verdict (DISAGREE and
    TruncationError exit 2)."""
    buf = io.StringIO()
    items, ends, codes = [], [], []
    with contextlib.redirect_stdout(buf):
        start = clock()
        for argv in job["queries"]:
            t0 = clock()
            codes.append(cli.main(argv))
            items.append(clock() - t0)
            ends.append(buf.tell())
        wall = clock() - start
    text = buf.getvalue()
    bad = [" ".join(argv) for argv, code, lo, hi in zip(job["queries"], codes, [0] + ends, ends)
           if code != 0 or _verdict(text[lo:hi]) != "AGREE"]
    return {"wall_s": wall, "items_s": items, "attempted": len(codes), "failed": len(bad),
            "bad": bad[:3]}


def _verdict(block: str) -> str:
    for line in block.splitlines():
        if line.startswith("verdict"):
            return line.split(":", 1)[1].strip()
    return "missing"


def run_les(cli, job: dict) -> dict:
    from k3carpets.exact_seq import (CohInterval, InconsistencyError, LesInstance,
                                     UnboundedRankError, propagate)

    seqs = [LesInstance(*(CohInterval(tuple(t["lo"]), tuple(t["hi"]), t["chi"])
                          for t in inst["terms"]))
            for inst in job["instances"]]
    items, results, budget, infeasible = [], [], 0, []
    start = clock()
    for seq in seqs:
        t0 = clock()
        try:
            results.append(propagate(seq))
        except UnboundedRankError:
            budget += 1
            results.append(None)
        except InconsistencyError as err:
            infeasible.append(str(err))
            results.append(None)
        items.append(clock() - t0)
    wall = clock() - start

    outside = []
    for i, (inst, res) in enumerate(zip(job["instances"], results)):
        if res is None:
            continue
        point = inst["point"]
        for j, term in enumerate((res.a, res.b, res.c)):
            dims = point[j::3]
            chi = dims[0] - dims[1] + dims[2]
            inside = all(lo <= t and (hi is None or t <= hi)
                         for t, lo, hi in zip(dims, term.lo, term.hi))
            if not inside or term.chi not in (None, chi):
                outside.append(f"item {i} term {j}: {term} misses {dims}")
    return {"wall_s": wall, "items_s": items, "attempted": len(seqs), "failed": budget,
            "infeasible": infeasible[:3], "outside": outside[:3]}


RUNNERS = {"paper": run_paper, "sweep": run_sweep, "oracle": run_oracle, "les": run_les}


def main() -> int:
    job = json.load(sys.stdin)
    from k3carpets import cli  # imports every k3carpets module

    tracer = counter = None
    if job["traced"]:
        from layertrace import CallCounter, Tracer
        tracer = Tracer()
        tracer.install()
        if job.get("profile_check"):
            counter = CallCounter(tracer.originals)

    sampled = not tracer and job["jobs"] == 1
    if sampled:
        SAMPLER.start()
    with counter or contextlib.nullcontext():
        out = RUNNERS[job["kind"]](cli, job)
    if sampled:
        SAMPLER.stop()
        out["speed_factor"] = SAMPLER.factor()
        out["speed_samples"] = len(SAMPLER.samples)

    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = peak_kib / 1024
    if tracer:
        out["layers"] = tracer.metrics()
        out["aliases"] = tracer.aliases
        out["span_calls"] = tracer.call_counts()
    if counter:
        out["profiled_calls"] = dict(counter.counts)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
