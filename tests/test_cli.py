import csv
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from k3carpets import battery, carpets, cech_oracle, cli, line_cohomology, surfaces
from k3carpets.exact_seq import InconsistencyError


def run(*argv):
    out = io.StringIO()
    real_stdout, cli.sys.stdout = cli.sys.stdout, out
    try:
        code = cli.main(list(argv))
    finally:
        cli.sys.stdout = real_stdout
    return code, out.getvalue()


def test_help():
    code, text = run("--help")
    assert code == 0
    assert "verify-paper" in text


def test_usage_errors_carry_position(capsys):
    assert cli.main(["coh", "Q9", "1"]) == 1
    assert "argument 1" in capsys.readouterr().err
    assert cli.main(["coh", "F2", "1,x"]) == 1
    assert "argument 2" in capsys.readouterr().err
    assert cli.main(["coh", "F2"]) == 1
    assert "divisor" in capsys.readouterr().err
    assert cli.main(["coh", "F2", "1,2", "--format", "yaml"]) == 1
    assert "format" in capsys.readouterr().err
    assert cli.main(["sweep", "--e", "-1..0"]) == 1
    assert "argument 2: Hirzebruch parameter must be >= 0" in capsys.readouterr().err
    assert cli.main(["sweep", "--e", "0..1", "--jobs", "0"]) == 1
    assert "argument 4: --jobs must be >= 1" in capsys.readouterr().err
    assert cli.main(["frobnicate"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--e", "0..1", "--e", "5..5"],
     "argument 3: --e is given again, first at argument 1"),
    (["carpet", "F3", "2,8", "--N", "40", "--N", "30"],
     "argument 5: --N is given again, first at argument 3"),
    (["coh", "P2", "3", "--format", "json", "--timestamp", "--format", "json"],
     "argument 6: --format is given again, first at argument 3"),
])
def test_repeated_option_is_a_usage_error(capsys, argv, message):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, message", [
    # an exact h0 of 4,400 digits
    (["coh", "P2", "9" * 2200], "argument 2: divisor coefficient"),
    # past Python's own 4,300-digit limit
    (["coh", "P2", "9" * 4400], "argument 2: divisor coefficient"),
    (["coh", "F2", "1," + "9" * 601], "argument 2: divisor coefficient"),
    (["hilbert", "F" + "1" * 601, "1,1"], "argument 1: Hirzebruch parameter"),
])
def test_integers_past_the_digit_bound_are_usage_errors(capsys, argv, message, fmt):
    assert cli.main([*argv, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} has more than {cli.MAX_DIGITS} digits\n"


def test_integers_at_the_digit_bound_print_exactly():
    d = 10 ** cli.MAX_DIGITS - 1
    code, text = run("coh", "P2", str(d), "--format", "json")
    assert code == 0
    assert json.loads(text)["results"]["h0"] == str((d + 1) * (d + 2) // 2)
    # the sweep grows fastest: its moduli dimension is sixth-degree in e, a and db
    code, text = run("sweep", *(arg for name in ("--e", "--a", "--db") for arg in (name, str(d))),
                     "--format", "json")
    assert code == 0
    (row,) = json.loads(text)["rows"]
    assert "error" not in row and 3500 < len(row["moduli_dim"]) < 4300


def test_coh_text_snapshot():
    code, text = run("coh", "F2", "-2,-4")
    assert code == 0
    assert text == (
        "# coh\n"
        "surface : F2\n"
        "divisor : -2,-4\n"
        "h0      : 0\n"
        "h1      : 0\n"
        "h2      : 1\n"
        "chi     : 1\n"
    )


def test_coh_oracle_agreement():
    code, text = run("coh", "P2", "-3", "--oracle")
    assert code == 0
    assert "verdict   : AGREE" in text
    code, text = run("coh", "F4", "4,12")
    assert code == 0
    assert "h1      : 3" in text


@pytest.mark.parametrize("surface, divisor", [("F0", "2,1"), ("P2", "2"), ("P2", "1")])
def test_minimal_degree_beyond_one_section(surface, divisor):
    code, text = run("carpet", surface, divisor)
    assert code == 0
    assert "minimal_degree_case : true" in text


def test_coh_json_integers_are_strings():
    code, text = run("coh", "F4", "4,12", "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["results"] == {"h0": "28", "h1": "3", "h2": "0", "chi": "25"}


def test_oracle_box_is_derived_not_an_option(capsys):
    assert cli.main(["coh", "P2", "3", "--oracle", "--box", "5"]) == 1
    assert "argument 4: unknown option '--box'" in capsys.readouterr().err
    # a box of 0 or 1 counts (0, 0, 0) for these, which once read as DISAGREE
    for surface, divisor in (("F3", "-6,-6"), ("F4", "-9,-16")):
        code, text = run("coh", surface, divisor, "--oracle")
        assert code == 0 and "verdict   : AGREE" in text, (surface, divisor)


@pytest.mark.parametrize("argv, message", [
    # int() would read each of these as an integer
    (["coh", "P2", "5_0"], "argument 2: divisor coefficient must be an integer, got '5_0'"),
    (["coh", "P2", "\uff15"], "argument 2: divisor coefficient must be an integer, got '\uff15'"),
    (["coh", "P2", " 5"], "argument 2: divisor coefficient must be an integer, got ' 5'"),
    (["coh", "P2", "5\n"], "argument 2: divisor coefficient must be an integer, got '5\\n'"),
    (["coh", "P2", "+5"], "argument 2: divisor coefficient must be an integer, got '+5'"),
    (["coh", "F+3", "1,2"], "argument 1: Hirzebruch parameter must be an integer, got '+3'"),
    (["sweep", "--e", "0..+3"], "argument 2: range end must be an integer, got '+3'"),
    # F<e> names a surface only with e written as str(e) writes it
    (["coh", "F03", "1,2"], "argument 1: surface must be P2 or F<e>, got 'F03'"),
    (["coh", "F-0", "1,2"], "argument 1: surface must be P2 or F<e>, got 'F-0'"),
    # short tokens are quoted whole, as before
    (["coh", "Q9", "1"], "argument 1: surface must be P2 or F<e>, got 'Q9'"),
    (["coh", "F-3", "1,2"], "argument 1: Hirzebruch parameter must be >= 0, got -3"),
    (["coh", "P2", "x" * 32], f"argument 2: divisor coefficient must be an integer, got '{'x' * 32}'"),
    (["coh", "P2", "x" * 33],
     f"argument 2: divisor coefficient must be an integer, got '{'x' * 32}'... (33 characters)"),
])
def test_integers_are_ascii_digits_with_an_optional_minus(capsys, argv, message):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_leading_zeros_and_minus_zero_are_integers():
    for argv, same in [(("P2", "007"), ("P2", "7")), (("F3", "-0,01"), ("F3", "0,1"))]:
        code, text = run("coh", *argv, "--oracle")
        assert code == 0 and "verdict   : AGREE" in text
        assert text == run("coh", *same, "--oracle")[1]


_LONG = "x" * 5000


@pytest.mark.parametrize("argv", [
    ["coh", "P2", _LONG],  # not an integer
    ["coh", "P2", "\uff15" * 5000],  # full-width digits, three bytes each
    ["coh", _LONG, "1"],  # no surface
    ["coh", "F" + _LONG, "1,2"],  # no Hirzebruch parameter
    ["coh", "F2", _LONG],  # wrong part count
    ["coh", "F" + "9" * 600, _LONG],  # wrong part count on a long surface name
    ["coh", "F2", "1," + _LONG],  # not a coefficient
    ["coh", "F-" + "9" * 600, "1,2"],  # a negative Hirzebruch parameter
    ["coh", "P2", "1", "--format", _LONG],  # no format
    ["coh", "P2", "1", "--" + _LONG],  # unknown option
    ["coh", "P2", "1", _LONG],  # unexpected argument
    [_LONG],  # unknown command
    ["sweep", "--e", _LONG],  # not a range
    ["sweep", "--e", "-" + "9" * 600 + "..0"],  # a negative Hirzebruch parameter
    ["sweep", "--e", "0..1", "--jobs", "-" + "9" * 600],  # too few workers
    ["sweep", "--e", "0..0", "--extra", "-" + "9" * 599 + "..0"],  # too many rows
    ["carpet", "F3", "2,8", "--N", "-" + "9" * 599],  # too small an N
    ["carpet", "P2", "9" * 600, "--N", "1"],  # too small an N for a long h0
    ["hilbert", "F2", "9" * 600 + "," + "9" * 600],  # a long class that is not very ample
    ["carpet", "F" + "9" * 600, "1,1"],  # not very ample on a long surface name
])
def test_long_tokens_are_echoed_by_a_bounded_prefix(capsys, argv):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    line = captured.err.splitlines()[0]
    assert len(line.encode()) < 200, line
    assert "characters)" in line, line


@pytest.mark.parametrize("extra, code", [("-" + "9" * 599 + "..0", 1), ("0..1000000", 1),
                                         ("0..999999", 0)])
def test_sweep_row_count_is_bounded_before_any_work(capsys, monkeypatch, extra, code):
    # one polarization (P^2, d = 3) times the extra range: refused past
    # MAX_SWEEP_ROWS rows before a surface or row is computed
    monkeypatch.setattr(cli, "_sweep_rows", lambda task: [])
    contexts = _counting(monkeypatch, carpets.SurfaceContext, "of")
    start = time.perf_counter()
    assert cli.main(["sweep", "--d", "3", "--extra", extra]) == code
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and contexts == []
        assert captured.err.endswith(f"rows: at most {cli.MAX_SWEEP_ROWS} are allowed\n")
    else:
        assert captured.out.endswith("\n0 rows\n") and len(contexts) == 1


@pytest.mark.parametrize("ranges, rows", [(["--a", "2..1", "--d", "1"], 1),
                                         (["--db", "2..1"], 0),
                                         (["--d", "1", "--extra", "2..1"], 0)])
def test_sweep_walks_no_range_that_prints_no_row(capsys, monkeypatch, ranges, rows):
    # 10^15 Hirzebruch parameters, each without a row: F_e is walked only
    # when --a, --db and --extra are all non-empty, and --d only with --extra
    contexts = _counting(monkeypatch, carpets.SurfaceContext, "of")
    start = time.perf_counter()
    assert cli.main(["sweep", "--e", "0..1000000000000000", *ranges]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out.endswith(f"\n{rows} rows\n")
    assert len(contexts) == rows


@pytest.mark.parametrize("argv", [
    ["coh", "P2", "3", "--timestamp", "--format", "csv"],
    ["sweep", "--e", "0..1", "--format", "csv", "--timestamp"],
])
def test_timestamp_is_refused_with_csv(capsys, monkeypatch, argv):
    # refused before anything is computed: the closed form and the sweep
    # rows would fail if reached
    monkeypatch.setattr(line_cohomology, "coh", None)
    monkeypatch.setattr(cli, "_sweep_rows", None)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--timestamp does not combine with csv output" in captured.err


def test_oracle_at_huge_box():
    code, text = run("coh", "P2", "100000000000", "--oracle")
    assert code == 0
    assert "oracle_h0 : 5000000000150000000001" in text
    assert "verdict   : AGREE" in text


_HUGE = [
    (["coh", "F2", "1000000000000,5", "--oracle"], "verdict   : AGREE"),
    (["coh", "F2", "-1000000000000,-5"], "h2      : 2"),
    (["carpet", "F2", "1000000000000,2000000000001"], "exists_embedded     : true"),
    (["hilbert", "F2", "1000000000000,2000000000001"], "h1_provenance           : forced"),
    (["hilbert", "P2", "1000000000000"], "verdict                 : SMOOTH"),
    (["sweep", "--e", "2..2", "--a", "1000000000000..1000000000000", "--db", "1..1"], "1 rows"),
]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_capped(cases, seconds):
    """Run each (argv, expected) command under the 2 GB cap, all within
    `seconds`; each must exit 0 and print its expected line."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    deadline = time.monotonic() + seconds
    for argv, expected in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "k3carpets", *argv], capture_output=True, text=True, env=env,
            timeout=max(0.0, deadline - time.monotonic()), preexec_fn=_cap_address_space,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        assert expected in proc.stdout, (argv, proc.stdout)


def test_huge_coefficients_answer_in_bounded_work():
    # Work linear in a coefficient of 10^12 would exhaust the 2 GB cap or
    # the 5 s shared by all six commands.
    _run_capped(_HUGE, 5.0)


_HUGE_E = [
    (["hilbert", "F1000000000000", "1,1000000000001"], "h1_provenance           : interval"),
    (["hilbert", "F1000000", "2,2000001"], "h1_provenance           : interval"),
    (["sweep", "--e", "1000000..1000000", "--a", "1..2", "--db", "1..2"], "4 rows"),
]


def test_huge_e_answers_in_bounded_work():
    # On F_e the h1 range of the carpet's normal bundle is about e wide;
    # work growing with it would exhaust the 2 GB cap or the 5 s shared by
    # the three commands.
    _run_capped(_HUGE_E, 5.0)


def test_carpet_command():
    code, text = run("carpet", "F1", "2,4")
    assert code == 0
    assert "embedded_h0         : 25" in text
    assert "embedded_moduli_dim : 24" in text
    code, text = run("carpet", "F1", "2,4", "--N", "13")
    assert code == 0
    assert "embedded_h0         : 29" in text  # 14 * 2 + 1


def test_hilbert_command():
    code, text = run("hilbert", "F3", "2,8")
    assert code == 0
    assert "verdict                 : SINGULAR" in text
    assert "h1_normal_carpet_lo     : 1" in text
    assert "h1_provenance           : forced" in text
    code, text = run("hilbert", "P2", "3")
    assert code == 0
    assert "verdict                 : SMOOTH" in text
    assert "chi_normal_carpet       : 139" in text
    code, text = run("hilbert", "P2", "2")
    assert code == 1  # no embedded carpet on the Veronese


def test_invalid_geometry_exits_1(capsys):
    assert cli.main(["carpet", "F2", "1,2"]) == 1
    assert "error: polarization 1,2 on F2 is not very ample" in capsys.readouterr().err
    assert cli.main(["carpet", "F2", "1,3", "--N", "1"]) == 1
    assert "N + 1 must be >= h0 = 6" in capsys.readouterr().err
    assert cli.main(["hilbert", "P2", "2"]) == 1
    assert "no embedded carpet exists for 2 on P2" in capsys.readouterr().err


def test_hilbert_interval_provenance():
    code, text = run("hilbert", "F5", "2,11")
    assert code == 0
    assert "h1_provenance           : interval" in text
    assert "h1_normal_carpet_lo     : 5" in text
    assert "h1_normal_carpet_hi     : 7" in text


# sha256 of "<exit code>\n<stdout>\0<stderr>" of single queries: every output
# format, with and without --N, a SINGULAR verdict (F3), an h1 interval (F5),
# the plane, and each way a query is refused, in the order the checks run
_QUERY_SHA256 = [
    ("carpet F3 2,8", "48d4e07a9524be08aa2c47be5c57e8d322556ab29c916f89237745a1f09eb85f"),
    ("carpet F3 2,8 --format json",
     "546f246ed5d233d8a6db83cfddd9bf23e116cb1bd1340266dc20ad1b69e0fd85"),
    ("carpet F3 2,8 --format csv",
     "2dc7f75f923c6bce6a1ecbe4de52e43a417b69f2a6b0fe33a0e3c17a827f4ac4"),
    ("carpet F3 2,8 --N 20", "3168e84cbb73eb1dbec642c866280da345cbc2dc1c4a2d0727e0bef91d5c90f4"),
    ("carpet F5 2,11 --N 30 --format json",
     "1d77ac3afb214e2994227f98adf229a2b0fee53b9bf4e5bf7fe36e3c7430a965"),
    ("carpet P2 3", "6fdf489cdc510f15dccb0a9defb6e4c3d36950235314821db705058d7a9569fa"),
    ("carpet P2 3 --N 12 --format csv",
     "1ac9e9a4b71c19c8dba2bbb07631ad55fdd39c44ee6b635722d2fec0988992db"),
    ("hilbert F3 2,8", "9ede562f76b2f230c850a2f63119e4fbcebfc4af561cd57af7b59dbdb82be097"),
    ("hilbert F3 2,8 --format json",
     "a2ecf0a0b987d6d384b37cd1ca01cc44388d33281d8aa22f08c2f8dc2247e4ef"),
    ("hilbert F3 2,8 --format csv",
     "7f9e18ed14b681820d02c99a5b08267a0d9a9ce7dae2631c2c7651ba2bf11598"),
    ("hilbert F3 2,8 --N 20", "10389bae9cb118fe12d7b05455c07be5fb9eec1f035582a53623087e18ebabd1"),
    ("hilbert F5 2,11", "7ccf4fc7a57fe21d4028b05da7672cc8427ed6773a6b60c3be7e545a35cbd7f8"),
    ("hilbert F5 2,11 --N 30 --format csv",
     "967bed3dc2e664c3db4434aef5470faa94fe48fc54055c21688c0b625caff241"),
    ("hilbert P2 3", "be4884ed6236b1a6f1d3fd956c3331164c6dff02d8c11284ef82b1c84eb731e9"),
    ("hilbert P2 3 --N 12 --format json",
     "6ae6a3fd9f419db0d204f60deaf0c9804a1a609cf602bd83ac7824b0204cf315"),
    # not very ample
    ("carpet F2 1,2", "f68502ba4518f93f45fbe0164b862c36e1a15bc9a90887b451eb7956f7fecce0"),
    ("hilbert F2 1,2 --N 20", "f68502ba4518f93f45fbe0164b862c36e1a15bc9a90887b451eb7956f7fecce0"),
    ("hilbert F2 1,2 --N 1", "f68502ba4518f93f45fbe0164b862c36e1a15bc9a90887b451eb7956f7fecce0"),
    ("carpet F2 1,2 --N x", "64b2f0a0f6ff7643c64d6436de2498dfda2c8e06deed3a6a95587b1d74db4a95"),
    # N + 1 must be >= h0
    ("carpet F2 1,3 --N 1", "3091e7b39387ef7683879abf2cf0e5631a44fe160143d64c4c0315a2b7558423"),
    ("hilbert P2 3 --N 8 --format json",
     "c54debbae3adf9c5c331091058d7c79fbbbcb971271dc173ca03069cbe350315"),
    ("hilbert P2 2 --N 3", "5522b7d426857d324841936a89dcb5353811bef908701d42d8b1412de2114d4b"),
    # no embedded carpet
    ("hilbert P2 2", "37800318b10967357a093c3526aed2953182ebf53719e42013eaf8c6f4558d18"),
    ("hilbert P2 2 --N 9", "37800318b10967357a093c3526aed2953182ebf53719e42013eaf8c6f4558d18"),
    # coh, closed form alone and against the oracle in every format
    ("coh F2 -2,-4", "86eccd8a62288ac790a311a59a960435e7b3db85c3691cff2a01df4750181190"),
    ("coh F5 -8,0 --oracle", "f27fa71a6b07ee0fbf02e3bd978ca38b9e797b5116d28bf2dad7ada60e6e1356"),
    ("coh F3 -6,-6 --oracle --format json",
     "0f41a8bdab6dc76161082ca7ceda03cf62ef01236878700e7e09519a77022623"),
    ("coh P2 -12 --oracle --format csv",
     "2a7238773f68f7d946c87f757a2d8979e3dab1f01ece673bcb3b50f1d3866799"),
    ("coh P2 100000000000 --oracle",
     "4696d9a997c5887d857bea5c34b981955f0139364b14e3e14944c825afed638f"),
]


@pytest.mark.parametrize("query, digest", _QUERY_SHA256, ids=[q for q, _ in _QUERY_SHA256])
def test_single_query_output_snapshot(capsys, query, digest):
    code = cli.main(query.split())
    captured = capsys.readouterr()
    blob = f"{code}\n{captured.out}\0{captured.err}"
    assert hashlib.sha256(blob.encode()).hexdigest() == digest, (code, captured.err)


def test_sweep_row_count_and_order():
    code, text = run("sweep", "--e", "0..4", "--a", "1..3", "--db", "1..3")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[-1] == "45 rows"
    data = lines[2:-1]
    assert len(data) == 45
    assert data[0].startswith("F0")
    assert data[-1].startswith("F4")


def test_sweep_empty_range():
    code, text = run("sweep", "--e", "3..2")
    assert code == 0
    assert "0 rows" in text


def test_sweep_csv_rfc4180():
    code, text = run("sweep", "--e", "0..0", "--a", "2..2", "--db", "1..1",
                     "--d", "3..3", "--format", "csv")
    assert code == 0
    assert "\r\n" in text
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    assert header[0] == "surface"
    f0 = dict(zip(header, rows[1]))
    p2 = dict(zip(header, rows[2]))
    assert f0["embedded_h0"] == "1" and f0["smooth"] == "true"
    assert p2["surface"] == "P2" and p2["embedded_h0"] == "10"


def test_sweep_formats_carry_identical_data():
    args = ("sweep", "--e", "1..1", "--a", "2..2", "--db", "1..2")
    _, text_csv = run(*args, "--format", "csv")
    _, text_json = run(*args, "--format", "json")
    rows = list(csv.reader(io.StringIO(text_csv)))
    doc = json.loads(text_json)
    for csv_row, json_row in zip(rows[1:], doc["rows"]):
        flat = dict(zip(rows[0], csv_row))
        for key, value in flat.items():
            jvalue = json_row.get(key)
            if jvalue is None:
                jvalue = ""
            elif isinstance(jvalue, bool):
                jvalue = "true" if jvalue else "false"
            assert str(jvalue) == value, key


def test_sweep_records_row_errors_and_continues():
    code, text = run("sweep", "--d", "2..3")
    assert code == 0
    lines = text.strip().splitlines()
    assert "no embedded carpet" in lines[2]
    assert lines[3].startswith("P2") and "SMOOTH" not in lines[3]
    assert lines[-1] == "2 rows"


_SURFACE_LABELS = {label for rows in carpets._SURFACE_SEQUENCES.values() for label, _, _ in rows}


def _surface_work(monkeypatch):
    """The surface chains and the branch restrictions that run from now on,
    each as the input it was given."""
    chains, branches = [], []
    real_chain, real_propagate = carpets.chain, carpets.propagate

    def chain(seqs):
        if {seq.label for seq in seqs} <= _SURFACE_LABELS:
            chains.append(tuple(seqs))
        return real_chain(seqs)

    def propagate(seq):
        if seq.label == "branch-curve-restriction":
            branches.append(seq)
        return real_propagate(seq)

    monkeypatch.setattr(carpets, "chain", chain)
    monkeypatch.setattr(carpets, "propagate", propagate)
    return chains, branches


def test_sweep_computes_per_surface_results_once(monkeypatch):
    chains, branches = _surface_work(monkeypatch)
    contexts = _counting(monkeypatch, carpets.SurfaceContext, "of")
    code, text = run("sweep", "--e", "1..2", "--a", "1..2", "--db", "1..3", "--d", "3..4")
    assert code == 0 and text.strip().endswith("14 rows")
    # F1, F2 and P2: one context, surface chain and branch restriction each
    assert sorted(str(surface) for surface, in contexts) == ["F1", "F2", "P2"]
    assert sorted(seqs[0].label for seqs in chains) == ["surface-euler", *["tangent-fibration"] * 2]
    assert len(branches) == 3


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_per_surface_error_is_the_row_error(monkeypatch, jobs):
    def broken(context):
        raise InconsistencyError(f"broken on {context.surface}")

    monkeypatch.setattr(carpets.SurfaceContext, "terms", property(broken))
    code, text = run("sweep", "--e", "2..2", "--a", "1..2", "--db", "0..1",
                     "--format", "json", "--jobs", jobs)
    assert code == 0
    errors = [row["error"] for row in json.loads(text)["rows"]]
    # F2 with b = 2a is not very ample: that row fails before the surface's cells
    assert errors == ["polarization 1,2 on F2 is not very ample", "broken on F2",
                      "polarization 2,4 on F2 is not very ample", "broken on F2"]


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_computes_one_hilbert_report_per_polarization(monkeypatch):
    calls = _counting(monkeypatch, carpets, "hilbert_report")
    code, text = run("sweep", "--e", "1..2", "--a", "1..2", "--db", "1..3",
                     "--extra", "0..3", "--d", "3..4")
    assert code == 0 and text.strip().endswith("56 rows")
    assert len(calls) == 14


def test_sweep_computes_h0_once_per_polarization(monkeypatch):
    calls = _counting(monkeypatch, line_cohomology, "coh")
    code, text = run("sweep", "--e", "2..2", "--a", "2..2", "--db", "1..1", "--extra", "0..5")
    assert code == 0 and text.strip().endswith("6 rows")
    # the polarization's data hold coh(L): the h0 column, each row's N + 1 >= h0
    # check and the Hilbert report read it there
    assert sum(args == (surfaces.hirzebruch(2), surfaces.hirzebruch(2).divisor(2, 5))
               for args in calls) == 1


def test_complete_series_computes_h0_once(monkeypatch):
    calls = _counting(monkeypatch, line_cohomology, "coh")
    f2 = surfaces.hirzebruch(2)
    line = carpets.PolarizationData(carpets.SurfaceContext.of(f2), f2.divisor(2, 5))
    emb = line.complete_series(3)
    assert (emb.h0, emb.ambient_n) == (12, 14)
    assert sum(args == (f2, f2.divisor(2, 5)) for args in calls) == 1


def test_battery_computes_one_hilbert_report_per_polarization(monkeypatch):
    calls = _counting(monkeypatch, carpets, "hilbert_report")
    claims = battery.hilbert_claims(battery.CarpetGrid())
    assert all(c.passed for c in claims)
    assert claims[0].computed == "520/520 agree"
    # one per grid polarization with an embedded carpet; the F_3 (2, 8)
    # claim reads the report of its grid entry
    assert len(calls) == 260


def test_battery_builds_each_embedding_and_its_carpet_count_once(monkeypatch):
    # both embedded-family claims read one walk of the grid's 524 embeddings;
    # the minimal-degree claim builds the 525th
    embeddings = _counting(monkeypatch, carpets.EmbeddingData, "__post_init__")
    counts = _counting(monkeypatch, carpets, "embedded_carpet_h0")
    claims = battery.carpet_claims(battery.CarpetGrid())
    assert all(c.passed for c in claims)
    assert [c.computed for c in claims[2:4]] == ["756/756 agree", "20/20 agree"]
    assert len(embeddings) == len(counts) == 525


def test_hilbert_query_runs_one_surface_chain_and_no_branch_restriction(monkeypatch):
    chains, branches = _surface_work(monkeypatch)
    code, text = run("hilbert", "F3", "2,8")
    assert code == 0 and "SINGULAR" in text
    assert [seqs[0].label for seqs in chains] == ["tangent-fibration"] and branches == []


def test_carpet_query_computes_only_the_fact_it_prints(monkeypatch):
    # the abstract dimension is read off the surface chain; the double
    # cover's branch restriction is not run
    chains, branches = _surface_work(monkeypatch)
    code, text = run("carpet", "F3", "2,8")
    assert code == 0 and "abstract_family_dim" in text
    assert [seqs[0].label for seqs in chains] == ["tangent-fibration"] and branches == []


def test_battery_computes_each_surface_fact_once_per_surface(monkeypatch):
    # F_0..F_6 and P^2, each asked once by its own claim on the run's one
    # grid, which builds one context per surface and one polarization per
    # class: 252 on F_e and 10 on P^2
    chains, branches = _surface_work(monkeypatch)
    contexts = _counting(monkeypatch, carpets.SurfaceContext, "of")
    lines = _counting(monkeypatch, carpets.PolarizationData, "__post_init__")
    assert all(c.passed for c in battery.run_all())
    assert len(chains) == len(branches) == len(set(contexts)) == 8
    assert (len(contexts), len(lines)) == (8, 262)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_rows_before_the_hilbert_step_keep_their_errors(jobs):
    code, text = run("sweep", "--e", "0..0", "--a", "1..1", "--db", "1..1",
                     "--extra", "-2..1", "--format", "json", "--jobs", jobs)
    assert code == 0
    rows = json.loads(text)["rows"]
    assert [row.get("error") for row in rows] == [
        "ambient dimension N = 1 too small: N + 1 must be >= h0 = 4",
        "ambient dimension N = 2 too small: N + 1 must be >= h0 = 4",
        None, None,
    ]
    assert [row.get("smooth") for row in rows] == [None, None, True, True]
    assert [row["n_plus_1"] for row in rows[2:]] == ["4", "5"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_hilbert_error_is_the_error_of_rows_reaching_it(monkeypatch, jobs):
    calls = []

    def broken(line):
        calls.append(line.divisor)
        raise InconsistencyError(f"broken on {line.divisor}")

    monkeypatch.setattr(carpets, "hilbert_report", broken)
    code, text = run("sweep", "--e", "2..2", "--a", "1..2", "--db", "0..1",
                     "--extra", "-1..0", "--d", "3..3", "--format", "json", "--jobs", jobs)
    assert code == 0
    errors = [row["error"] for row in json.loads(text)["rows"]]
    assert errors == [
        "polarization 1,2 on F2 is not very ample",
        "polarization 1,2 on F2 is not very ample",
        "ambient dimension N = 4 too small: N + 1 must be >= h0 = 6",
        "broken on 1,3",
        "polarization 2,4 on F2 is not very ample",
        "polarization 2,4 on F2 is not very ample",
        "ambient dimension N = 10 too small: N + 1 must be >= h0 = 12",
        "broken on 2,5",
        "ambient dimension N = 8 too small: N + 1 must be >= h0 = 10",
        "broken on 3",
    ]
    if jobs == "1":  # the forked workers call it in their own processes
        assert len(calls) == 3


def test_single_query_and_sweep_row_share_one_error_policy(monkeypatch, capsys):
    # an error no module names is still a computation error: exit 2 for a
    # single query, the row's error in a sweep
    def broken(line):
        raise RuntimeError("boom")

    monkeypatch.setattr(carpets, "hilbert_report", broken)
    assert run("hilbert", "F3", "2,8") == (2, "")
    assert capsys.readouterr().err == "error: boom\n"
    code, text = run("sweep", "--e", "3..3", "--a", "2..2", "--db", "2..2", "--format", "json")
    assert code == 0
    (row,) = json.loads(text)["rows"]
    assert (row["b"], row["error"]) == ("8", "boom")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square_or_fail(task):
    if task == "fail":
        raise InconsistencyError("task failed")
    if task == "die":
        os._exit(3)
    return task * task


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, 9])
def test_forked_map_keeps_task_order(workers, count):
    # fewer, as many and more tasks than workers
    tasks = list(range(count))
    assert cli._forked_map(_square_or_fail, tasks, workers) == [t * t for t in tasks]
    _no_child_left()


@pytest.mark.parametrize("position", [0, 3, 6])
def test_forked_map_reraises_a_child_exception(position):
    tasks = [1, 2, 3, 4, 5, 6, 7]
    tasks[position] = "fail"
    with pytest.raises(InconsistencyError, match="^task failed$"):
        cli._forked_map(_square_or_fail, tasks, 3)
    _no_child_left()


@pytest.mark.parametrize("position", [1, 2, 5])
def test_forked_map_reraises_the_exception_of_a_forked_share(position):
    tasks = [1, 2, 3, 4, 5, 6, 7]
    tasks[position] = "fail"
    with pytest.raises(InconsistencyError, match="^task failed$"):
        cli._forked_map(_square_or_fail, tasks, 3)
    _no_child_left()


def _pid(task):
    return os.getpid()


def test_forked_map_parent_is_worker_0():
    # the parent computes tasks[0::3], and each of two children one other share
    pids = cli._forked_map(_pid, list(range(8)), 3)
    shares = [set(pids[i::3]) for i in range(3)]
    assert shares[0] == {os.getpid()}
    assert all(len(share) == 1 for share in shares) and len(set.union(*shares)) == 3
    _no_child_left()


def test_forked_map_names_a_child_that_ended_without_replying():
    with pytest.raises(cli.WorkerDiedError, match=r"worker 2 of 3 .* \(exit status 3\)$"):
        cli._forked_map(_square_or_fail, [1, "die", 3, 4, 5, 6], 3)
    _no_child_left()


def test_sweep_worker_that_exits_abruptly_is_a_computation_error(monkeypatch, capsys):
    parent = os.getpid()
    real_report = carpets.carpet_report

    def dying(embedding):
        if os.getpid() != parent and embedding.polarization.coeffs == (4,):
            os._exit(3)
        return real_report(embedding)

    monkeypatch.setattr(carpets, "carpet_report", dying)
    assert cli.main(["sweep", "--d", "3..6", "--jobs", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: sweep worker 2 of 2 ended without sending its results "
                            "(exit status 3)\n")
    _no_child_left()


@pytest.fixture
def counted_forks(monkeypatch):
    """Counts the children a command forks; the list holds one pid per fork."""
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked


# the parent is one of the workers, so n workers are n - 1 forked children
@pytest.mark.parametrize("argv, workers, rows", [
    (("--d", "3..4", "--extra", "0..2", "--jobs", "64"), 1, 6),
    (("--e", "0..1", "--a", "1..2", "--db", "1..1", "--jobs", "3"), 2, 4),
    (("--e", "0..2", "--a", "1..3", "--db", "1..4", "--d", "1..12", "--jobs", "3"), 2, 48),
    (("--d", "3..3", "--extra", "0..2", "--jobs", "8"), 0, 3),  # one share: in process
    (("--d", "3..4", "--extra", "1..0", "--jobs", "64"), 0, 0),
    (("--d", "3..4", "--jobs", "1"), 0, 2),
])
def test_sweep_forks_one_worker_per_polarization_at_most(counted_forks, argv, workers, rows):
    code, text = run("sweep", *argv)
    assert code == 0 and text.strip().endswith(f"{rows} rows")
    assert len(counted_forks) == workers
    _no_child_left()


def test_sweep_without_fork_prints_the_same_bytes(monkeypatch):
    args = ("sweep", "--e", "0..2", "--a", "1..2", "--db", "0..2", "--d", "1..4",
            "--extra", "-1..1", "--format", "json")
    forked = run(*args, "--jobs", "2")
    monkeypatch.delattr(os, "fork")
    assert run(*args, "--jobs", "2") == forked == run(*args)


def test_cli_imports_no_process_pool():
    # `import k3carpets.cli` and `--help` start without the process-pool
    # stack, and without json and csv; a sweep imports what its workers need
    # when it forks them, and a command its output format's module when it
    # prints
    def imported(*argv):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        result = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env,
                                capture_output=True, text=True, check=True, timeout=60)
        return {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:") and "|" in line}

    bare = imported("-c", "pass")
    for argv in (["-c", "import k3carpets.cli"], ["-m", "k3carpets", "--help"]):
        added = imported(*argv) - bare
        assert "k3carpets.cli" in added
        for module in ("concurrent.futures", "multiprocessing", "logging", "json", "csv"):
            assert module not in added, (argv, module)


def test_sweep_parallel_matches_sequential():
    # 39 polarizations: several chunks per worker, the last one short; P2
    # rows with no embedded carpet, and rows failing before the Hilbert step
    args = ("sweep", "--e", "0..2", "--a", "1..3", "--db", "1..3", "--d", "1..12",
            "--extra", "-2..1")
    outputs = {fmt: run(*args, "--format", fmt) for fmt in ("text", "json", "csv")}
    for fmt, sequential in outputs.items():
        assert sequential[0] == 0
        for jobs in ("2", "3"):
            assert run(*args, "--format", fmt, "--jobs", jobs) == sequential
    errors = [row.get("error", "") for row in json.loads(outputs["json"][1])["rows"]]
    assert len(errors) == 156
    assert sum(e.startswith("no embedded carpet exists") for e in errors) == 4
    assert sum(e.startswith("ambient dimension") for e in errors) == 78


def test_determinism():
    args = ("coh", "F3", "4,10", "--oracle")
    assert run(*args) == run(*args)  # verify-paper: acceptance criterion 9


def test_verify_paper_passes():
    code, text = run("verify-paper")
    assert code == 0
    lines = text.strip().splitlines()
    assert all("PASS" in line for line in lines[2:-1])
    assert "claims pass" in lines[-1]


def test_verify_paper_csv():
    code, text = run("verify-paper", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["claim", "subject", "computed", "expected", "status"]
    assert all(row[4] == "PASS" for row in rows[1:])


def test_battery_parts_split_the_groups():
    # the grid part first, then the oracle group alone; each group in one part
    grid_part, oracle_part = battery.PARTS
    assert oracle_part == ("oracle agreement",)
    assert grid_part == tuple(name for name, _ in battery.GROUPS if name not in oracle_part)


def _cpus(monkeypatch, count):
    """Let the CLI see `count` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_verify_paper_prints_the_same_bytes_forked_and_in_process(monkeypatch, counted_forks, fmt):
    _cpus(monkeypatch, 2)
    forked = run("verify-paper", "--format", fmt)
    assert forked[0] == 0 and len(counted_forks) == 1
    if fmt == "json":  # the claims are back in the battery's group order
        rows = json.loads(forked[1])["rows"]
        assert [row["claim"] for row in rows] == [c.claim_id for c in battery.run_all()]
    _cpus(monkeypatch, 1)
    assert run("verify-paper", "--format", fmt) == forked
    _cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    assert run("verify-paper", "--format", fmt) == forked
    assert len(counted_forks) == 1
    _no_child_left()


@pytest.mark.parametrize("affinity, cpu_count, children", [
    (1, 8, 0), (2, 1, 1), (64, 1, 1),  # the affinity mask, not the machine, decides
    (None, 1, 0), (None, None, 0), (None, 4, 1),  # no affinity call: os.cpu_count()
])
def test_verify_paper_forks_one_child_given_two_cpus(monkeypatch, counted_forks,
                                                     affinity, cpu_count, children):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        _cpus(monkeypatch, affinity)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert run("verify-paper")[0] == 0
    assert len(counted_forks) == children
    _no_child_left()


def test_verify_paper_child_that_exits_abruptly_is_a_computation_error(monkeypatch, capsys):
    parent = os.getpid()
    real_oracle = cech_oracle.coh_oracle

    def dying(surface, divisor):
        if os.getpid() != parent:
            os._exit(3)
        return real_oracle(surface, divisor)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(cech_oracle, "coh_oracle", dying)
    assert cli.main(["verify-paper"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: verify-paper worker 2 of 2 ended without sending its "
                            "results (exit status 3)\n")
    _no_child_left()


def _skew_canonical_class(monkeypatch):
    original = surfaces.canonical_class

    def skewed(surface):
        d = original(surface)
        return surfaces.DivisorClass(surface, d.coeffs[:-1] + (d.coeffs[-1] - 1,))

    monkeypatch.setattr(surfaces, "canonical_class", skewed)


def _skew_fiber_sums(monkeypatch):
    # Every summand O_{P^1}(b - k*e) of the pushforward one degree too high.
    original = line_cohomology._fiber_sums

    def skewed(e, a, b):
        return original(e, a, b + 1)

    monkeypatch.setattr(line_cohomology, "_fiber_sums", skewed)


@pytest.mark.parametrize("mutate", [_skew_canonical_class, _skew_fiber_sums])
def test_mutants_fail_the_same_claims_forked_as_in_process(monkeypatch, counted_forks, mutate):
    _cpus(monkeypatch, 2)
    mutate(monkeypatch)
    code, text = run("verify-paper", "--format", "json")
    assert code == 3 and len(counted_forks) == 1
    failed = [row["claim"] for row in json.loads(text)["rows"] if row["status"] == "FAIL"]
    assert "oracle-agreement" in failed or "oracle-agreement-error" in failed
    assert failed == _first_fail_ids()
    _no_child_left()


def _first_fail_ids():
    return [c.claim_id for c in battery.run_all() if not c.passed]


def test_mutated_canonical_class_fails(monkeypatch):
    _skew_canonical_class(monkeypatch)
    assert _first_fail_ids() == [
        *(f"canonical-square-F{e}" for e in range(7)), "canonical-square-P2",
        "canonical-class-F0", "canonical-class-F3", "canonical-class-P2",
        "anticanonical-double-bpf", "base-tangent-twist", "very-ample-section-counts",
        "oracle-agreement-error", "carpet-families-error", "hilbert-points-error",
        "double-cover-k3", "double-cover-k3-plane",
    ]
    code, _ = run("verify-paper")
    assert code == 3


# sha256 of the JSON sweep below: rows that are not very ample, rows with too
# small an N, planes without an embedded carpet, and SINGULAR rows on F_3
_SMALL_SWEEP_SHA256 = "0b231c998fdaf7f356374632455d6b0ec42bc18037fe280578dab0414e90d828"


def test_nothing_computed_under_a_mutation_outlives_its_command(monkeypatch):
    # verify-paper builds the contexts of F_0..F_6 and P^2 with a skewed K;
    # the next command, in the same process and in forked workers, must see
    # K as it is again
    _skew_canonical_class(monkeypatch)
    assert run("verify-paper")[0] == 3
    monkeypatch.undo()
    for jobs in ("1", "2"):
        code, text = run("sweep", "--e", "0..3", "--a", "1..2", "--db", "0..2",
                         "--extra", "-1..1", "--d", "1..4", "--format", "json", "--jobs", jobs)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == _SMALL_SWEEP_SHA256, jobs


def test_mutated_intersection_form_fails(monkeypatch):
    original = surfaces.intersect

    def skewed(surface, d1, d2):
        value = original(surface, d1, d2)
        if not surface.is_plane:
            value += d1.coeffs[0] * d2.coeffs[0]
        return value

    monkeypatch.setattr(surfaces, "intersect", skewed)
    assert _first_fail_ids() == [
        *(f"canonical-square-F{e}" for e in range(7)), "section-self-intersection",
        "oracle-agreement-error", "minimal-degree-unique-carpet",
    ]


def test_mutated_fiber_sums_fails(monkeypatch):
    _skew_fiber_sums(monkeypatch)
    assert _first_fail_ids() == [
        "fiber-tangent-twist", "base-tangent-twist", "canonical-cohomology",
        "very-ample-section-counts", "oracle-agreement", "riemann-roch",
        "carpet-families-error", "hilbert-points-error", "double-cover-k3",
        "les-honest-interval",
    ]


def test_raising_very_ample_test_fails_each_group_that_asks_it(monkeypatch):
    # the intersection-theory claims ask it directly, and the grid's
    # polarizations when they are built; each such group fails on its own
    def broken(surface, divisor):
        raise RuntimeError("very-ampleness test broken")

    monkeypatch.setattr(surfaces, "is_very_ample", broken)
    claims = [c for c in battery.run_all() if not c.passed]
    assert [c.claim_id for c in claims] == [
        "intersection-theory-error", "carpet-families-error", "hilbert-points-error",
    ]
    assert {c.computed for c in claims} == {"RuntimeError: very-ampleness test broken"}
