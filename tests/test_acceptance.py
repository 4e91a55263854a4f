"""Acceptance criteria, one test per criterion, exact tolerances throughout.

The grids and formulas live in `k3carpets.battery`, the claims behind
`verify-paper`; criteria 1-8 run the battery group that covers them and
check its claims by id.  The few checks the battery does not make run here
over the battery's own carpet grid.  Every dimension in scope is an integer
identity, so each check is equality with tolerance zero; the stated runtime
ceilings are asserted as well.
"""

import io
import time

import pytest

from k3carpets import battery, cli
from k3carpets.carpets import InvalidGeometryError, hilbert_report


def _report(number, elapsed, message):
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {message}")


def _passing(claims, *ids):
    """The claims with these ids, each asserted present and passing."""
    by_id = {c.claim_id: c for c in claims}
    for cid in ids:
        assert cid in by_id, cid
        assert by_id[cid].passed, (cid, by_id[cid].computed, by_id[cid].expected)
    return [by_id[cid] for cid in ids]


def test_criterion_1_embedded_formula_battery():
    start = time.monotonic()
    (claim,) = _passing(battery.carpet_claims(battery.CarpetGrid()),
                        "embedded-family-linear-form")
    elapsed = time.monotonic() - start
    assert claim.expected == "756/756 agree"  # 504 embeddings, 252 of them complete
    assert elapsed < 5.0
    _report(1, elapsed, "embedded-carpet dimension formulas on 504 embeddings")


def test_criterion_2_plane_battery():
    start = time.monotonic()
    (claim,) = _passing(battery.carpet_claims(battery.CarpetGrid()), "embedded-family-plane")
    elapsed = time.monotonic() - start
    assert claim.expected == "20/20 agree"
    assert elapsed < 1.0
    _report(2, elapsed, "plane carpet counts on 20 embeddings, zero iff d <= 2")


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    (claim,) = _passing(battery.oracle_claims(battery.CarpetGrid()), "oracle-agreement")
    elapsed = time.monotonic() - start
    assert claim.expected == "1759/1759 agree"
    assert elapsed < 60.0
    _report(3, elapsed, "closed forms equal the Cech oracle on all 1759 bundles")


def test_criterion_4_duality_and_riemann_roch():
    start = time.monotonic()
    claims = _passing(battery.oracle_claims(battery.CarpetGrid()),
                      "serre-duality", "riemann-roch")
    assert all(c.expected == "1759/1759 agree" for c in claims)
    _report(4, time.monotonic() - start,
            "Serre duality and Riemann-Roch hold on all 1759 bundles")


def test_criterion_5_abstract_carpet_dimensions():
    start = time.monotonic()
    _passing(battery.carpet_claims(battery.CarpetGrid()),
             "abstract-family-dim-hirzebruch", "abstract-family-dim-plane")
    _report(5, time.monotonic() - start,
            "tangent-twist h1 forced to 2 on every F_e (e <= 6) and 1 on P^2")


def test_criterion_6_hilbert_identity_and_verdicts():
    start = time.monotonic()
    grid = battery.CarpetGrid()
    claims = _passing(battery.hilbert_claims(grid), "hilbert-tangent-chi",
                      "hilbert-smooth-verdict", "hilbert-obstruction-e3")
    assert claims[0].expected == "520/520 agree"  # 504 on F_e, 16 on P^2
    # beyond the battery: the reported expected dimension, h1 = 1 on all of
    # F_3, and the refusal where no embedded carpet exists
    for emb, _ in grid.embeddings():
        s, d = emb.surface, emb.polarization
        if s.is_plane and d.degree <= 2:
            with pytest.raises(InvalidGeometryError, match="no embedded carpet"):
                hilbert_report(emb.line)
            continue
        rep = hilbert_report(emb.line)
        assert rep.expected_smooth_dim == rep.chi_normal_carpet, (str(s), d.coeffs)
        if not s.is_plane and s.e == 3:
            assert rep.h1_normal_carpet == (1, 1), d.coeffs
    _report(6, time.monotonic() - start,
            "chi(N_carpet) = (N+1)^2 + 18 and smoothness verdicts on 520 embeddings")


def test_criterion_7_double_cover():
    start = time.monotonic()
    _passing(battery.double_cover_claims(battery.CarpetGrid()), "double-cover-k3",
             "double-cover-k3-plane", "cover-deformation-unobstructed")
    _report(7, time.monotonic() - start,
            "double cover is K3 iff e <= 2 (always on P^2) with unobstructed cover")


def test_criterion_8_sequence_calculus_properties():
    start = time.monotonic()
    claims = _passing(battery.exact_seq_claims(battery.CarpetGrid()), "les-idempotence",
                      "les-split-additivity", "les-honest-interval", "les-middle-forcing",
                      "les-euler-twist-forcing")
    assert claims[1].expected == "600/600 agree"
    _report(8, time.monotonic() - start,
            "idempotence, split additivity (600 pairs), soundness, Euler-twist forcing")


def _run_cli(*argv):
    out = io.StringIO()
    saved, cli.sys.stdout = cli.sys.stdout, out
    try:
        code = cli.main(list(argv))
    finally:
        cli.sys.stdout = saved
    return code, out.getvalue()


def test_criterion_9_verify_paper():
    start = time.monotonic()
    code, first = _run_cli("verify-paper")
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < 120.0
    assert "FAIL" not in first

    code, second = _run_cli("verify-paper")
    assert code == 0 and second == first
    # mutation sensitivity: test_mutated_* in tests/test_cli.py
    _report(9, elapsed, "verify-paper green and deterministic")
