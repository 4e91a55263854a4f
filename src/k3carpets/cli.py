"""Command-line front end: single queries, sweeps, verification battery.

Surface/divisor grammar: `P2 d` and `F<e> a,b` with negative integers
allowed (`coh F2 -2,-4`); an integer is ASCII `-?[0-9]+`, and `F<e>`
takes e as `str` writes it (not `F03`).  Output formats: aligned text
(default), JSON with every integer rendered as a decimal string
(dimension formulas grow quartically; consumers should not need
big-integer JSON), and RFC-4180 CSV.  Identical inputs produce
byte-identical output unless --timestamp is passed, which text and JSON
carry and CSV refuses as a usage error.
An integer argument has at most `MAX_DIGITS` digits, so that every exact
answer can be printed, and an option may be given once.

A sweep builds one `carpets.SurfaceContext` per surface and one
`carpets.PolarizationData` per polarization, and each row's embedding from
the latter.  Rows read the surface's facts on its context and the Hilbert
report on its polarization, which compute each once, when first read; the
report is about the carpet embedded by its own complete series, so it does
not depend on `--extra`.  Nothing is cached between commands.

Exit codes: 0 success / all checks pass, 1 usage error or invalid
geometry (no such embedding, no embedded carpet), 2 computation error,
any of `carpets.COMPUTATION_ERRORS` that a sweep row would report as its
own (oracle disagreement, an oracle box that fails its certificate,
infeasible constraints),
3 verification failure.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import battery, carpets, cech_oracle, line_cohomology, surfaces
from .carpets import EmbeddingData, InvalidGeometryError, echo as _echo

USAGE = """usage: k3carpets <command> [arguments] [options]

commands:
  coh <surface> <divisor> [--oracle]
      cohomology (h0, h1, h2, chi) of a line bundle; --oracle also runs
      the Cech oracle and prints an AGREE/DISAGREE verdict
  carpet <surface> <divisor> [--N n]
      abstract and embedded K3-carpet family dimensions
  hilbert <surface> <divisor> [--N n]
      Hilbert-scheme tangent report of the embedded K3 carpet
  sweep [--e lo..hi] [--a lo..hi] [--db lo..hi] [--d lo..hi] [--extra lo..hi]
        [--jobs n]
      one row per parameter tuple; on F_e rows b = a*e + db
  verify-paper
      run the whole verification battery; exit 0 iff every claim passes

surfaces:  P2  or  F<e> (e >= 0), e.g. F0, F2
divisors:  a single integer d on P2; a,b on F_e (negatives allowed)
integers:  ASCII digits with an optional leading '-'
options:   --format text|json|csv    --timestamp    --N n (ambient P^N,
           default complete linear series)
"""


class UsageError(Exception):
    pass


# The largest answers grow as the sixth power of the inputs (a sweep's
# moduli dimension on F_e with e, a and db all large: 3,600 digits from
# 600-digit inputs), so with this bound each stays below Python's
# 4,300-digit limit on int/str conversion and can be printed.
MAX_DIGITS = 600
# the most rows a sweep may print, checked before any work (the benchmark's has 1,692)
MAX_SWEEP_ROWS = 10**6


def _parse_int(token: str, what: str, pos: int) -> int:
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise UsageError(f"argument {pos}: {what} must be an integer, got {_echo(token)}")
    if len(digits) > MAX_DIGITS:
        raise UsageError(f"argument {pos}: {what} has more than {MAX_DIGITS} digits")
    return int(token)


def _at_least(value: int, low: int, what: str, pos: int) -> int:
    if value < low:
        shown = _echo(str(value), quote=False)
        raise UsageError(f"argument {pos}: {what} must be >= {low}, got {shown}")
    return value


def _parse_surface(token: str, pos: int) -> surfaces.SurfaceModel:
    if token == "P2":
        return surfaces.projective_plane()
    if token.startswith("F"):
        e = _at_least(_parse_int(token[1:], "Hirzebruch parameter", pos), 0,
                      "Hirzebruch parameter", pos)
        if token == f"F{e}":
            return surfaces.hirzebruch(e)
    raise UsageError(f"argument {pos}: surface must be P2 or F<e>, got {_echo(token)}")


def _parse_divisor(surface, token: str, pos: int) -> surfaces.DivisorClass:
    parts = token.split(",")
    want = surface.picard_rank
    if len(parts) != want:
        raise UsageError(
            f"argument {pos}: {_echo(str(surface), quote=False)} needs {want} comma-separated "
            f"coefficient(s), got {_echo(token)}"
        )
    coeffs = tuple(_parse_int(p, "divisor coefficient", pos) for p in parts)
    return surface.divisor(*coeffs)


def _parse_range(token: str, pos: int) -> range:
    lo, sep, hi = token.partition("..")
    if not sep:
        value = _parse_int(token, "range", pos)
        return range(value, value + 1)
    return range(_parse_int(lo, "range start", pos), _parse_int(hi, "range end", pos) + 1)


class _Args:
    """Tiny positional/option splitter with positions in error messages."""

    def __init__(self, tokens: list[str], flags: set[str], options: set[str]):
        self.positional: list[tuple[str, int]] = []
        self.flags: set[str] = set()
        self.options: dict[str, tuple[str, int]] = {}
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            pos = i + 1
            if tok in flags:
                self.flags.add(tok)
            elif tok in options:
                if tok in self.options:
                    first = self.options[tok][1] - 1
                    raise UsageError(
                        f"argument {pos}: {tok} is given again, first at argument {first}")
                if i + 1 >= len(tokens):
                    raise UsageError(f"argument {pos}: {tok} needs a value")
                self.options[tok] = (tokens[i + 1], pos + 1)
                i += 1
            elif tok.startswith("--"):
                raise UsageError(f"argument {pos}: unknown option {_echo(tok)}")
            else:
                self.positional.append((tok, pos))
            i += 1

    def take_positional(self, what: str) -> tuple[str, int]:
        if not self.positional:
            raise UsageError(f"missing argument: {what}")
        return self.positional.pop(0)

    def done(self):
        """Refuse leftover arguments and a bad output format; every command
        calls this before it computes anything."""
        if self.positional:
            tok, pos = self.positional[0]
            raise UsageError(f"argument {pos}: unexpected argument {_echo(tok)}")
        self.format = _common_format(self)


def _common_format(args: _Args) -> str:
    fmt, pos = args.options.get("--format", ("text", 0))
    if fmt not in ("text", "json", "csv"):
        raise UsageError(f"argument {pos}: format must be text, json or csv, got {_echo(fmt)}")
    if fmt == "csv" and "--timestamp" in args.flags:
        # a CSV document has no field for it, so it would be dropped
        raise UsageError(f"argument {pos}: --timestamp does not combine with csv output")
    return fmt


def _stringify(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {k: _stringify(v) for k, v in value.items()}
    return value


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_stringify(doc), indent=2) + "\n"
    rows = doc.get("rows")
    header = doc.get("columns")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        if rows is not None:
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(row.get(col)) for col in header])
        else:
            writer.writerow(["field", "value"])
            for section in ("inputs", "results"):
                for key, value in doc.get(section, {}).items():
                    writer.writerow([key, _cell(value)])
        return buf.getvalue()

    lines = [f"# {doc['command']}"]
    if doc.get("timestamp"):
        lines.append(f"timestamp: {doc['timestamp']}")
    if rows is not None:
        # each cell is formatted once, into its column; equal cells share one
        # string, so a sweep's table does not raise its peak memory
        seen: dict[str, str] = {}
        columns = [
            [col, *[seen.setdefault(c, c) for c in map(_cell, (row.get(col) for row in rows))]]
            for col in header
        ]
        widths = [max(map(len, column)) for column in columns]
        lines += ("  ".join(map(str.ljust, line, widths)) for line in zip(*columns))
        if "summary" in doc:
            lines.append(doc["summary"])
    else:
        items = list(doc.get("inputs", {}).items()) + list(doc.get("results", {}).items())
        width = max(len(k) for k, _ in items) if items else 0
        for key, value in items:
            lines.append(f"{key.ljust(width)} : {_cell(value)}")
    return "\n".join(lines) + "\n"


def _finish(doc: dict, args: _Args, out) -> None:
    if "--timestamp" in args.flags:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    out.write(render(doc, args.format))


def cmd_coh(tokens: list[str], out) -> int:
    args = _Args(tokens, flags={"--oracle", "--timestamp"}, options={"--format"})
    surface = _parse_surface(*args.take_positional("surface"))
    divisor = _parse_divisor(surface, *args.take_positional("divisor"))
    args.done()
    vec = line_cohomology.coh(surface, divisor)
    doc = {
        "command": "coh",
        "inputs": {"surface": str(surface), "divisor": str(divisor)},
        "results": {"h0": vec.h0, "h1": vec.h1, "h2": vec.h2, "chi": vec.chi},
    }
    disagree = False
    if "--oracle" in args.flags:
        oracle = cech_oracle.coh_oracle(surface, divisor)
        disagree = oracle.as_tuple() != vec.as_tuple()
        doc["results"].update(
            {
                "oracle_h0": oracle.h0,
                "oracle_h1": oracle.h1,
                "oracle_h2": oracle.h2,
                "verdict": "DISAGREE" if disagree else "AGREE",
            }
        )
    _finish(doc, args, out)
    return 2 if disagree else 0


def _embedding_args(tokens: list[str]) -> tuple[_Args, EmbeddingData]:
    """The arguments of `carpet` and `hilbert`, and the embedding they name."""
    args = _Args(tokens, flags={"--timestamp"}, options={"--format", "--N"})
    surface = _parse_surface(*args.take_positional("surface"))
    divisor = _parse_divisor(surface, *args.take_positional("divisor"))
    args.done()
    n = None
    if "--N" in args.options:
        n = _parse_int(args.options["--N"][0], "ambient dimension", args.options["--N"][1])
    line = carpets.PolarizationData(carpets.SurfaceContext.of(surface), divisor)
    return args, line.complete_series() if n is None else EmbeddingData(line, n)


def cmd_carpet(tokens: list[str], out) -> int:
    args, embedding = _embedding_args(tokens)
    report = carpets.carpet_report(embedding)
    doc = {
        "command": "carpet",
        "inputs": {
            "surface": str(embedding.surface),
            "divisor": str(embedding.polarization),
            "ambient_n": embedding.ambient_n,
        },
        "results": {
            "abstract_family_dim": embedding.line.context.abstract_dim,
            "embedded_h0": report.embedded_h0,
            "embedded_moduli_dim": report.embedded_moduli_dim,
            "exists_embedded": report.exists_embedded,
            "minimal_degree_case": report.minimal_degree_case,
            "provenance": "forced",
        },
    }
    _finish(doc, args, out)
    return 0


def cmd_hilbert(tokens: list[str], out) -> int:
    args, embedding = _embedding_args(tokens)
    report = embedding.line.hilbert
    h1 = report.h1_normal_carpet
    doc = {
        "command": "hilbert",
        "inputs": {
            "surface": str(embedding.surface),
            "divisor": str(embedding.polarization),
            "ambient_n": embedding.ambient_n,
        },
        "results": {
            "verdict": "SMOOTH" if report.smooth else "SINGULAR",
            "hilbert_ambient_n": report.hilbert_ambient_n,
            "h0_normal_surface": report.h0_normal_surface,
            "chi_normal_carpet": report.chi_normal_carpet,
            "expected_smooth_dim": report.expected_smooth_dim,
            "h1_anticanonical": report.h1_Kinv,
            "h1_anticanonical_double": report.h1_K2inv,
            "h0_normal_carpet_lo": report.h0_normal_carpet[0],
            "h0_normal_carpet_hi": report.h0_normal_carpet[1],
            "h1_normal_carpet_lo": h1[0],
            "h1_normal_carpet_hi": h1[1],
            "h1_provenance": "forced" if h1[0] == h1[1] else "interval",
            "chain_provenance": "forced",
        },
    }
    _finish(doc, args, out)
    return 0


SWEEP_COLUMNS = [
    "surface", "e", "a", "b", "d", "n_plus_1", "h0", "embedded_h0",
    "moduli_dim", "exists", "abstract_dim", "k3_cover", "smooth",
    "h1_carpet_lo", "h1_carpet_hi", "error",
]


def _sweep_rows(task: tuple) -> list[dict]:
    """The rows of one polarization, one per extra ambient dimension.

    The task carries the surface's context, built once per sweep; a row
    reads its abstract dimension and double-cover verdict there.  The
    polarization's data are built once here, and each row's embedding is
    derived from them with only its N + 1 >= h^0 check; if the class is not
    very ample, every row carries that error.  Each row reads the Hilbert
    report on the polarization, which holds one for all its rows.  A row
    that fails before the Hilbert step keeps its own error; a Hilbert report
    that raises is computed again by each row that reaches it, and each of
    those rows carries its message.
    """
    context, a, b, d, extra_range = task
    s = context.surface
    base = {"surface": str(s), "e": None if s.is_plane else s.e, "a": a, "b": b, "d": d}
    try:
        line = carpets.PolarizationData(context, s.divisor(d) if s.is_plane else s.divisor(a, b))
    except carpets.COMPUTATION_ERRORS as err:
        return [{**base, "error": str(err)} for _ in extra_range]
    rows = []
    for extra in extra_range:
        row = dict(base)
        try:
            emb = line.complete_series(extra)
            row["n_plus_1"] = emb.n_plus_1
            row["h0"] = emb.h0
            abstract = context.abstract_dim
            rep = carpets.carpet_report(emb)
            row.update(
                embedded_h0=rep.embedded_h0,
                moduli_dim=rep.embedded_moduli_dim,
                exists=rep.exists_embedded,
                abstract_dim=abstract,
            )
            row["k3_cover"] = context.double_cover.is_k3_cover
            report = line.hilbert
            row["smooth"] = report.smooth
            row["h1_carpet_lo"], row["h1_carpet_hi"] = report.h1_normal_carpet
        except carpets.COMPUTATION_ERRORS as err:
            row["error"] = str(err)
        rows.append(row)
    return rows


def cmd_sweep(tokens: list[str], out) -> int:
    args = _Args(
        tokens,
        flags={"--timestamp"},
        options={"--format", "--e", "--a", "--db", "--d", "--extra", "--jobs"},
    )
    args.done()

    def get_range(name: str, default: range) -> range:
        if name in args.options:
            return _parse_range(*args.options[name])
        return default

    e_range = get_range("--e", range(0))
    if "--e" in args.options:
        _at_least(e_range.start, 0, "Hirzebruch parameter", args.options["--e"][1])
    a_range = get_range("--a", range(1, 2))
    db_range = get_range("--db", range(1, 2))
    d_range = get_range("--d", range(0))
    extra_range = get_range("--extra", range(0, 1))
    jobs = 1
    if "--jobs" in args.options:
        tok, pos = args.options["--jobs"]
        jobs = _at_least(_parse_int(tok, "worker count", pos), 1, "--jobs", pos)
    # from the range ends: len() of a range past sys.maxsize overflows
    size = [max(r.stop - r.start, 0) for r in (e_range, a_range, db_range, d_range, extra_range)]
    row_count = (size[0] * size[1] * size[2] + size[3]) * size[4]
    if row_count > MAX_SWEEP_ROWS:
        raise UsageError(f"sweep of {_echo(str(row_count), quote=False)} rows: "
                         f"at most {MAX_SWEEP_ROWS} are allowed")

    tasks = []  # one per polarization; each yields a row per extra dimension
    for e in e_range:
        s = surfaces.hirzebruch(e)
        for a in a_range:
            for db in db_range:
                tasks.append((s, a, a * e + db, None))
    for d in d_range:
        tasks.append((surfaces.projective_plane(), None, None, d))
    if not extra_range:
        tasks = []  # no rows, so no surface contexts and no workers
    # once per sweep, not cached in a module: each sweep sees the modules as they are
    contexts = {s: carpets.SurfaceContext.of(s) for s in dict.fromkeys(task[0] for task in tasks)}
    tasks = [(contexts[s], a, b, d, extra_range) for s, a, b, d in tasks]

    if jobs > 1 and tasks:
        # The pool starts all its workers at once, so never more than there
        # are tasks.  Forked workers skip the import and see the modules as
        # they are now.  A polarization is 1-2 ms of work; sent one at a
        # time, its pickling and queue traffic would keep the parent busy on
        # the workers' cores.  So each worker gets about four contiguous
        # chunks: few round trips, yet a worker done early takes another.
        # map keeps task order, so the rows do not depend on the pool.  A
        # chunk arrives with its own copy of each context, which computes
        # its facts once for that chunk.
        workers = min(jobs, len(tasks))
        fork = (multiprocessing.get_context("fork")
                if "fork" in multiprocessing.get_all_start_methods() else None)
        with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
            per_task = list(pool.map(_sweep_rows, tasks,
                                     chunksize=-(-len(tasks) // (4 * workers))))
    else:
        per_task = [_sweep_rows(task) for task in tasks]
    rows = [row for task_rows in per_task for row in task_rows]

    doc = {"command": "sweep", "columns": SWEEP_COLUMNS, "rows": rows,
           "summary": f"{len(rows)} rows"}
    _finish(doc, args, out)
    return 0


VERIFY_COLUMNS = ["claim", "subject", "computed", "expected", "status"]


def cmd_verify(tokens: list[str], out) -> int:
    args = _Args(tokens, flags={"--timestamp"}, options={"--format"})
    args.done()
    claims = battery.run_all()
    rows = [
        {
            "claim": c.claim_id,
            "subject": c.subject,
            "computed": c.computed,
            "expected": c.expected,
            "status": "PASS" if c.passed else "FAIL",
        }
        for c in claims
    ]
    failures = sum(1 for c in claims if not c.passed)
    doc = {
        "command": "verify-paper",
        "columns": VERIFY_COLUMNS,
        "rows": rows,
        "summary": f"{len(claims) - failures}/{len(claims)} claims pass",
    }
    _finish(doc, args, out)
    return 3 if failures else 0


COMMANDS = {
    "coh": cmd_coh,
    "carpet": cmd_carpet,
    "hilbert": cmd_hilbert,
    "sweep": cmd_sweep,
    "verify-paper": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    out = sys.stdout
    if not argv or argv[0] in ("--help", "-h", "help"):
        out.write(USAGE)
        return 0
    command, rest = argv[0], argv[1:]
    if command not in COMMANDS:
        sys.stderr.write(f"unknown command {_echo(command)}\n{USAGE}")
        return 1
    try:
        return COMMANDS[command](rest, out)
    except (UsageError, InvalidGeometryError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except carpets.COMPUTATION_ERRORS as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
