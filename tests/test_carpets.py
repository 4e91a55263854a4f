import gc
import io
import re
import weakref
from dataclasses import fields

import pytest

from k3carpets import battery, carpets, cli, surfaces
from k3carpets.carpets import (
    EmbeddingData,
    PolarizationData,
    SurfaceContext,
    abstract_carpet_dim,
    carpet_report,
    double_cover_k3_check,
    embedded_carpet_h0,
    hilbert_report,
)
from k3carpets.exact_seq import CohInterval, InconsistencyError, LesInstance, RankBound
from k3carpets.line_cohomology import coh
from k3carpets.surfaces import canonical_class, hirzebruch, projective_plane

P2 = projective_plane()


def polarization(surface, *coeffs):
    return PolarizationData(SurfaceContext.of(surface), surface.divisor(*coeffs))


def complete(surface, *coeffs, extra=0):
    return polarization(surface, *coeffs).complete_series(extra)


def test_embedding_validation():
    f2 = hirzebruch(2)
    with pytest.raises(ValueError, match="^polarization 1,2 on F2 is not very ample$"):
        polarization(f2, 1, 2)
    with pytest.raises(ValueError, match="^polarization 0,1 on F2 is not very ample$"):
        polarization(f2, 0, 1)  # fiber class
    with pytest.raises(ValueError, match=re.escape("N = 4 too small: N + 1 must be >= h0 = 6")):
        EmbeddingData(polarization(P2, 2), 4)
    emb = complete(f2, 1, 3)
    assert emb.n_plus_1 == emb.h0 == coh(f2, f2.divisor(1, 3)).h0 == 6
    assert (emb.surface, emb.polarization) == (f2, f2.divisor(1, 3))
    # an embedding is its polarization's data plus N; S, L and h^0(L) are
    # read there, so they cannot disagree with it
    assert [f.name for f in fields(EmbeddingData)] == ["line", "ambient_n"]


@pytest.mark.parametrize("e", range(8))
def test_abstract_dimension_hirzebruch(e):
    assert abstract_carpet_dim(hirzebruch(e)) == 2


def test_abstract_dimension_plane():
    assert abstract_carpet_dim(P2) == 1


@pytest.mark.parametrize("e", [*range(1, 13), 100, 10**6])
def test_tangent_cohomology_is_forced_by_vector_field_lifting(e):
    # h^*(T_{F_e}) = (e + 5, e - 1, 0): forced by propagate with r_3 = 0
    assert SurfaceContext.of(hirzebruch(e)).tangent == CohInterval.exact(e + 5, e - 1, 0)


def test_tangent_cohomology_of_f0_and_the_plane():
    assert SurfaceContext.of(hirzebruch(0)).tangent == CohInterval.exact(6, 0, 0)
    assert SurfaceContext.of(P2).tangent == CohInterval.exact(8, 0, 0)


@pytest.mark.parametrize("e", [*range(8), 100, 10**6])
def test_atiyah_extension_is_forced_by_the_pairing(e):
    # 0 -> K -> E -> T_S ⊗ K -> 0 with H^1(T_S ⊗ K) -> H^2(K) of rank 1:
    # h^*(E) = (0, h1(T_S ⊗ K) - 1, 0), so h0(N ⊗ K) = (N+1) h0(L+K) + 1
    assert SurfaceContext.of(hirzebruch(e)).atiyah == CohInterval.exact(0, 1, 0)


def test_atiyah_extension_of_the_plane_is_the_euler_sequence():
    # on P^2 the rule's E must be the Euler sequence's O(-2)^3
    assert SurfaceContext.of(P2).atiyah == CohInterval.exact(0, 0, 0)


def test_minimal_degree_unique_carpet():
    for e, b in [(0, 1), (1, 2), (2, 4)]:
        s = hirzebruch(e)
        for extra in (0, 7):
            emb = complete(s, 1, b, extra=extra)
            assert embedded_carpet_h0(emb) == 1
    rep = carpet_report(complete(hirzebruch(0), 1, 1))
    assert rep.minimal_degree_case and rep.embedded_moduli_dim == 0
    assert rep.exists_embedded


def test_minimal_degree_reads_the_intersection_form_as_it_is(monkeypatch):
    # a polarization seen before must not keep its earlier verdict once the
    # intersection form changes: here F_e's form skewed by a1 * a2
    f0 = hirzebruch(0)
    assert carpet_report(complete(f0, 1, 1)).minimal_degree_case
    original = surfaces.intersect

    def skewed(surface, d1, d2):
        value = original(surface, d1, d2)
        if not surface.is_plane:
            value += d1.coeffs[0] * d2.coeffs[0]
        return value

    monkeypatch.setattr(surfaces, "intersect", skewed)
    assert not carpet_report(complete(f0, 1, 1)).minimal_degree_case


def test_minimal_degree_is_degree_equal_to_codimension_plus_one():
    # on F_0, (a, 1) is the scroll (1, a) with the rulings swapped; on P^2
    # the plane itself and the Veronese surface have minimal degree
    for a in range(1, 7):
        for emb in (complete(hirzebruch(0), a, 1), complete(hirzebruch(0), 1, a)):
            rep = carpet_report(emb)
            assert rep.minimal_degree_case and rep.embedded_h0 == 1
    for d in range(1, 9):
        rep = carpet_report(complete(P2, d))
        assert rep.minimal_degree_case == (d <= 2)
        assert rep.exists_embedded == (d > 2)
    assert not carpet_report(complete(hirzebruch(0), 2, 2)).minimal_degree_case
    assert not carpet_report(complete(hirzebruch(1), 2, 3)).minimal_degree_case


def test_embedded_counts_frozen_cases():
    f2 = hirzebruch(2)
    assert embedded_carpet_h0(complete(f2, 2, 5)) == 25
    assert embedded_carpet_h0(complete(f2, 2, 5, extra=5)) == 35
    f1 = hirzebruch(1)
    assert embedded_carpet_h0(complete(f1, 2, 4)) == 25
    assert embedded_carpet_h0(complete(P2, 3)) == 10
    assert embedded_carpet_h0(complete(P2, 4)) == 45
    assert embedded_carpet_h0(complete(P2, 1)) == 0
    assert embedded_carpet_h0(complete(P2, 2)) == 0


def test_embedded_count_closed_forms():
    for e in range(5):
        s = hirzebruch(e)
        for a in range(1, 5):
            for b in range(a * e + 1, a * e + 5):
                for extra in (0, 3):
                    emb = complete(s, a, b, extra=extra)
                    np1 = emb.n_plus_1
                    want = np1 * (a - 1) * (2 * b - 2 - a * e) // 2 + 1
                    assert embedded_carpet_h0(emb) == want
                    if extra == 0:
                        quartic = (a * a - 1) * ((2 * b - a * e) ** 2 - 4) // 4 + 1
                        assert want == quartic


def test_embedded_count_plane_closed_forms():
    for d in range(1, 9):
        for extra in (0, 5):
            emb = complete(P2, d, extra=extra)
            got = embedded_carpet_h0(emb)
            assert got == emb.n_plus_1 * (d - 1) * (d - 2) // 2
            assert (got == 0) == (d <= 2)
        # complete-series specialization collapses to one quartic in d
        assert embedded_carpet_h0(complete(P2, d)) == (d + 2) * (d + 1) * (d - 1) * (d - 2) // 4


def test_carpet_report_fields():
    rep = carpet_report(complete(hirzebruch(2), 2, 5))
    assert abstract_carpet_dim(hirzebruch(2)) == 2
    assert rep.embedded_h0 == 25
    assert rep.embedded_moduli_dim == 24
    assert rep.exists_embedded and not rep.minimal_degree_case
    rep = carpet_report(complete(P2, 2))
    assert abstract_carpet_dim(P2) == 1
    assert not rep.exists_embedded and rep.embedded_h0 == 0


@pytest.mark.parametrize("e", range(7))
def test_double_cover(e):
    rep = double_cover_k3_check(hirzebruch(e))
    assert rep.cover_chi == 2
    assert rep.cover_h1 == 0
    assert rep.branch_bpf == (e <= 2)
    assert rep.is_k3_cover == (e <= 2)
    expected_h1 = coh(hirzebruch(e), -2 * canonical_class(hirzebruch(e))).h1
    assert rep.h1_N_pi == expected_h1
    if rep.is_k3_cover:
        assert rep.h1_N_pi == 0


def test_double_cover_plane():
    rep = double_cover_k3_check(P2)
    assert rep.is_k3_cover
    assert rep.h1_N_pi == 0
    assert rep.cover_K_trivial


def test_hilbert_smooth_cases():
    for e, ab in [(0, (1, 1)), (1, (2, 4)), (2, (2, 5))]:
        rep = hilbert_report(polarization(hirzebruch(e), *ab))
        np1 = rep.hilbert_ambient_n + 1
        assert rep.smooth
        assert rep.chi_normal_carpet == rep.expected_smooth_dim == np1 * np1 + 18
        assert rep.h1_normal_carpet == (0, 0)
        assert rep.h0_normal_carpet == (rep.expected_smooth_dim,) * 2


def test_hilbert_ambient_is_carpet_complete():
    # the Hilbert chain runs at N + 1 = h0(L) + h0(L + K), the dimension of
    # the complete series on the carpet, not at h0(L) = 12
    f2 = hirzebruch(2)
    d = f2.divisor(2, 5)
    rep = hilbert_report(polarization(f2, 2, 5))
    want = coh(f2, d).h0 + coh(f2, d + canonical_class(f2)).h0
    assert rep.hilbert_ambient_n + 1 == want == 14
    assert rep.chi_normal_carpet == 14 * 14 + 18


def test_hilbert_singular_f3():
    rep = hilbert_report(polarization(hirzebruch(3), 2, 8))
    assert not rep.smooth
    assert rep.h1_K2inv == 1 and rep.h1_Kinv == 0
    assert rep.h1_normal_carpet == (1, 1)  # forced exactly
    assert rep.chi_normal_carpet == rep.expected_smooth_dim
    assert rep.h0_normal_carpet == (rep.expected_smooth_dim + 1,) * 2


def test_hilbert_interval_for_large_e():
    # both obstruction witnesses are nonzero, so only an interval is honest
    rep = hilbert_report(polarization(hirzebruch(4), 2, 9))
    assert not rep.smooth
    assert (rep.h1_Kinv, rep.h1_K2inv) == (1, 3)
    assert rep.h1_normal_carpet == (3, 4)
    rep = hilbert_report(polarization(hirzebruch(6), 3, 19))
    assert (rep.h1_Kinv, rep.h1_K2inv) == (3, 8)
    assert rep.h1_normal_carpet == (8, 11)
    assert rep.chi_normal_carpet == rep.expected_smooth_dim


def test_hilbert_plane_always_smooth():
    for d in range(3, 7):
        rep = hilbert_report(polarization(P2, d))
        np1 = rep.hilbert_ambient_n + 1
        assert np1 == (d + 2) * (d + 1) // 2 + (d - 1) * (d - 2) // 2
        assert rep.smooth
        assert rep.chi_normal_carpet == np1 * np1 + 18


def test_hilbert_surface_normal_bookkeeping():
    # h0 of the surface normal bundle is (N+1) h0(L) - 7 on F_e, - 9 on P^2
    f2 = hirzebruch(2)
    rep = hilbert_report(polarization(f2, 2, 5))
    np1 = rep.hilbert_ambient_n + 1
    assert rep.h0_normal_surface == np1 * coh(f2, f2.divisor(2, 5)).h0 - 7
    rep = hilbert_report(polarization(P2, 3))
    np1 = rep.hilbert_ambient_n + 1
    assert rep.h0_normal_surface == np1 * coh(P2, P2.divisor(3)).h0 - 9


def test_hilbert_requires_existing_carpet():
    with pytest.raises(ValueError, match="no embedded carpet"):
        hilbert_report(polarization(P2, 2))
    with pytest.raises(ValueError, match="no embedded carpet"):
        hilbert_report(polarization(P2, 1))


def test_hilbert_command_does_not_depend_on_N(capsys):
    # the report is read from the polarization; the input embedding's N is
    # only printed, after its check against h0(L)
    cases = [("F0", "1,1", 3, "SMOOTH", 0), ("F3", "2,8", 17, "SINGULAR", 1),
             ("P2", "3", 9, "SMOOTH", 0)]
    for surface, divisor, n_min, verdict, h1 in cases:
        outputs = []
        for n, option in ((n_min, []), (n_min, ["--N", str(n_min)]), (100, ["--N", "100"])):
            assert cli.main(["hilbert", surface, divisor, *option]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert f"ambient_n               : {n}" in lines
            outputs.append([line for line in lines if not line.startswith("ambient_n ")])
        assert outputs[0] == outputs[1] == outputs[2], surface
        assert f"verdict                 : {verdict}" in outputs[0]
        assert f"h1_normal_carpet_lo     : {h1}" in outputs[0]
        assert f"h1_normal_carpet_hi     : {h1}" in outputs[0]


def test_a_polarization_is_freed_without_the_cycle_collector():
    # the Hilbert report a polarization holds refers back to no embedding,
    # so no reference cycle keeps the polarization's data alive
    line = polarization(hirzebruch(3), 2, 8)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert not line.hilbert.smooth
        ref = weakref.ref(line)
        del line
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_embedding_rejects_a_non_integer_ambient_dimension():
    f2 = hirzebruch(2)
    for bad in (11.0, "11", True, None):
        message = f"ambient dimension N must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            EmbeddingData(polarization(f2, 2, 5), bad)
    assert EmbeddingData(polarization(f2, 2, 5), 11).n_plus_1 == 12


# Every consistency check of `carpets`, each hit by perturbing one derived
# term: `carpets.propagate` feeds the single-sequence reads, `carpets.chain`
# the surface's terms and the Hilbert table.

def _widened(iv):
    return CohInterval(iv.lo, tuple(h + 1 for h in iv.hi))


def _shifted(iv):
    chi = None if iv.chi is None else iv.chi + 1
    return CohInterval((iv.lo[0] + 1, *iv.lo[1:]), (iv.hi[0] + 1, *iv.hi[1:]), chi)


def _with_h1(iv):
    return CohInterval.exact(iv.lo[0], 1, 0)


def _perturb_propagate(monkeypatch, name, change):
    real = carpets.propagate

    def perturbed(seq):
        out = real(seq)
        terms = (change(t) if n == name else t for n, t in zip(out.names, (out.a, out.b, out.c)))
        return LesInstance(*terms, out.names, out.label, out.ranks)

    monkeypatch.setattr(carpets, "propagate", perturbed)


def _perturb_chain(monkeypatch, name, change):
    real = carpets.chain

    def perturbed(seqs):
        table = real(seqs)
        if name in table:
            table[name] = change(table[name])
        return table

    monkeypatch.setattr(carpets, "chain", perturbed)


@pytest.mark.parametrize("surface", [P2, hirzebruch(0), hirzebruch(3)])
@pytest.mark.parametrize("name, phrase", [("T_S", "tangent-bundle cohomology"),
                                          ("T⊗K", "tangent-twist cohomology"),
                                          ("E", "Atiyah extension")])
@pytest.mark.parametrize("change, verb", [(_widened, "not forced"), (_shifted, r"is \(")])
def test_surface_term_checks(monkeypatch, surface, name, phrase, change, verb):
    # each term the surface chain derives is pinned to its closed form
    _perturb_chain(monkeypatch, name, change)
    with pytest.raises(InconsistencyError, match=f"^{phrase} {verb}"):
        SurfaceContext.of(surface).terms


def _with_pairing(monkeypatch, surface, rank):
    """The surface's sequences with the Atiyah pairing bound r_6 = `rank`."""
    bound = (RankBound(6, rank, rank, "Atiyah pairing"),)
    rows = carpets._SURFACE_SEQUENCES[surface.kind]
    monkeypatch.setitem(carpets._SURFACE_SEQUENCES, surface.kind, tuple(
        (label, names, bound if label == "atiyah-extension" else ranks)
        for label, names, ranks in rows))


@pytest.mark.parametrize("rank", [0, 2])
def test_wrong_atiyah_pairing_on_the_plane_is_an_inconsistency(monkeypatch, rank):
    # on P^2, E is the twisted Euler sequence's O(-2)^3, which leaves the
    # Atiyah extension no connecting rank r_6 but 1
    _with_pairing(monkeypatch, P2, rank)
    with pytest.raises(InconsistencyError, match="^sequence 'atiyah-extension': "):
        SurfaceContext.of(P2).atiyah


def test_wrong_atiyah_pairing_on_f_e_fails_the_closed_form(monkeypatch):
    # without the pairing E keeps h^1(T_S ⊗ K) = 2 and gains h^2(K) = 1
    _with_pairing(monkeypatch, hirzebruch(3), 0)
    with pytest.raises(InconsistencyError,
                       match=re.escape("Atiyah extension is (0, 2, 1), expected (0, 1, 0)")):
        SurfaceContext.of(hirzebruch(3)).atiyah


@pytest.mark.parametrize("surface", [P2, hirzebruch(3)])
def test_unforced_atiyah_extension_is_an_inconsistency(monkeypatch, surface):
    _perturb_chain(monkeypatch, "E", _widened)
    with pytest.raises(InconsistencyError, match="^Atiyah extension not forced"):
        embedded_carpet_h0(complete(surface, *((4,) if surface.is_plane else (2, 8))))


@pytest.mark.parametrize("emb, name", [
    (complete(P2, 4), "N⊗K"), (complete(hirzebruch(2), 2, 5), "N⊗K"),
])
def test_twisted_normal_bundle_checks(monkeypatch, emb, name):
    with monkeypatch.context() as m:
        _perturb_propagate(m, name, _widened)
        with pytest.raises(InconsistencyError, match="^twisted normal-bundle cohomology"):
            embedded_carpet_h0(emb)
    _perturb_propagate(monkeypatch, name, _with_h1)
    with pytest.raises(InconsistencyError, match="twisted normal"):
        embedded_carpet_h0(emb)


def test_minimal_degree_check(monkeypatch):
    _perturb_propagate(monkeypatch, "N⊗K", lambda iv: CohInterval.exact(2, 0, 0))
    with pytest.raises(InconsistencyError, match="^minimal-degree embedding"):
        carpet_report(complete(hirzebruch(0), 1, 1))


@pytest.mark.parametrize("surface", [P2, hirzebruch(4)])
def test_unforced_branch_restriction_is_an_inconsistency(monkeypatch, surface):
    _perturb_propagate(monkeypatch, "-2K|_C", _widened)
    with pytest.raises(InconsistencyError, match="^h1 of the branch restriction"):
        double_cover_k3_check(surface)


_HILBERT_CASES = [polarization(hirzebruch(0), 1, 1), polarization(hirzebruch(3), 2, 8),
                  polarization(P2, 3)]


_CLOSED_FORM_TERMS = [
    ("H", "Hom-sheaf cohomology"),
    ("H⊗K", "twisted Hom-sheaf cohomology"),
    ("Nc_O", "carpet-normal restriction"),
    ("Nc_K", "twisted carpet-normal restriction"),
]


@pytest.mark.parametrize("line", _HILBERT_CASES)
@pytest.mark.parametrize("name, change, phrase", [
    ("N_S", _widened, "^surface normal-bundle cohomology"),
    ("N_S", _with_h1, "surface normal"),  # h1 and h2 of N_S must vanish
    *((name, change, "^" + phrase)
      for name, phrase in _CLOSED_FORM_TERMS for change in (_widened, _shifted)),
])
def test_hilbert_closed_form_checks(monkeypatch, line, name, change, phrase):
    _perturb_chain(monkeypatch, name, change)
    with pytest.raises(InconsistencyError, match=phrase):
        hilbert_report(line)


@pytest.mark.parametrize("line", _HILBERT_CASES)
def test_hilbert_carpet_normal_checks(monkeypatch, line):
    with monkeypatch.context() as m:
        _perturb_chain(m, "Nc", _shifted)
        with pytest.raises(InconsistencyError, match="^chi of the carpet normal bundle"):
            hilbert_report(line)
    _perturb_chain(monkeypatch, "Nc", lambda iv: CohInterval(iv.lo, (*iv.hi[:2], 1), iv.chi))
    with pytest.raises(InconsistencyError, match="^h2 of the carpet normal bundle"):
        hilbert_report(line)


@pytest.mark.parametrize("line", [_HILBERT_CASES[0], _HILBERT_CASES[2]])
def test_hilbert_smooth_verdict_checks(monkeypatch, line):
    expected = hilbert_report(line).expected_smooth_dim
    with monkeypatch.context() as m:
        _perturb_chain(m, "Nc", lambda iv: CohInterval.exact(expected + 1, 1, 0))
        with pytest.raises(InconsistencyError, match="^chain verdict singular disagrees"):
            hilbert_report(line)
    _perturb_chain(monkeypatch, "Nc",
                   lambda iv: CohInterval((expected - 1, 0, 0), (expected, 0, 0), expected))
    with pytest.raises(InconsistencyError, match="^smooth verdict but h0"):
        hilbert_report(line)


def test_hilbert_singular_verdict_checks(monkeypatch):
    line = _HILBERT_CASES[1]  # F_3 (2,8): h1 = 1
    expected = hilbert_report(line).expected_smooth_dim
    _perturb_chain(monkeypatch, "Nc", lambda iv: CohInterval.exact(expected, 0, 0))
    with pytest.raises(InconsistencyError, match="^chain verdict smooth disagrees"):
        hilbert_report(line)


@pytest.mark.parametrize("line", _HILBERT_CASES)
def test_hilbert_undecided_h1_is_an_inconsistency(monkeypatch, line):
    expected = hilbert_report(line).expected_smooth_dim
    _perturb_chain(monkeypatch, "Nc",
                   lambda iv: CohInterval((expected, 0, 0), (expected + 1, 1, 0), expected))
    with pytest.raises(InconsistencyError, match="^h1 of the carpet normal bundle decides no"):
        hilbert_report(line)


def test_every_term_carpets_feeds_the_calculus_is_pinned_or_unknown(monkeypatch):
    # no number may rest on a declared, half-known term: each input term of
    # a sequence is either a known endpoint or a term left to the calculus
    unknown = CohInterval.unknown()
    inputs = []

    def record(seqs):
        for seq in seqs:
            inputs.extend((seq.label, *term) for term in zip(seq.names, (seq.a, seq.b, seq.c)))

    real_propagate, real_chain = carpets.propagate, carpets.chain
    monkeypatch.setattr(carpets, "propagate", lambda seq: record([seq]) or real_propagate(seq))
    monkeypatch.setattr(carpets, "chain", lambda seqs: record(seqs) or real_chain(seqs))
    assert all(c.passed for c in battery.run_all())
    tokens = "--e 0..3 --a 1..2 --db 0..2 --extra -1..1 --d 1..4".split()
    assert cli.cmd_sweep(tokens, io.StringIO()) == 0
    # every sequence carpets propagates is a row of its two tables or one of
    # its two single-sequence reads, and each of them runs here
    tables = {label for rows in carpets._SURFACE_SEQUENCES.values() for label, _, _ in rows}
    tables |= {label for label, _ in carpets._HILBERT_SEQUENCES}
    assert {i[0] for i in inputs} == tables | {"normal-bundle-twist", "branch-curve-restriction"}
    assert [i for i in inputs if not (i[2].is_forced_all() or i[2] == unknown)] == []


def _complete_series_reports():
    for e in range(13):
        yield from ((hirzebruch(e), a, a * e + db) for a in range(1, 5) for db in range(1, 5))
    for e in (20, 100, 1000, 10**6):
        yield from ((hirzebruch(e), a, a * e + db) for a in range(1, 3) for db in range(1, 3))
    yield from ((P2, d) for d in range(3, 40))


def test_chain_decides_every_complete_series_verdict():
    # smooth iff the chain forces h1(N_carpet) = 0, singular iff it forces
    # h1 >= 1; the paper's verdict is smooth iff S = P^2 or e <= 2
    cases = list(_complete_series_reports())
    assert len(cases) == 261
    for surface, *coeffs in cases:
        rep = hilbert_report(polarization(surface, *coeffs))
        lo, hi = rep.h1_normal_carpet
        assert rep.smooth == (surface.is_plane or surface.e <= 2), (surface, coeffs)
        assert hi == 0 if rep.smooth else lo >= 1, (surface, coeffs, lo, hi)


def test_carpet_locus_has_constant_codimension():
    # the carpets fill no component of the Hilbert scheme: their locus has
    # dimension h0(N_S) + h0(N_S ⊗ K_S) - 1, a constant 25 (F_e) or 28 (P^2)
    # below chi(N_carpet) = (N+1)^2 + 18, with the closed forms
    # h0(N_S) = (N+1) h0(L) - 1 - chi(T_S) and h0(N ⊗ K) = (N+1) h0(L+K) + eps
    for surface, *coeffs in _complete_series_reports():
        line = polarization(surface, *coeffs)
        rep = hilbert_report(line)
        h0_l, h0_adj = line.coh.h0, line.adjoint.h0
        np1 = rep.hilbert_ambient_n + 1
        chi_t, eps, codim = (8, 0, 28) if surface.is_plane else (6, 1, 25)
        h0_twist = embedded_carpet_h0(line.complete_series(h0_adj))
        case = (surface, coeffs)
        assert np1 == h0_l + h0_adj, case
        assert rep.h0_normal_surface == np1 * h0_l - 1 - chi_t, case
        assert h0_twist == np1 * h0_adj + eps, case
        assert rep.expected_smooth_dim - (rep.h0_normal_surface + h0_twist - 1) == codim, case


def test_infinitely_many_embedded_carpets_unless_minimal_degree():
    # the paper: an embedding carries a positive-dimensional family of
    # embedded carpets iff it is not of minimal degree
    embeddings = [emb for emb, _ in battery.CarpetGrid().embeddings()]
    reports = [carpet_report(emb) for emb in embeddings]
    assert (len(reports), sum(rep.minimal_degree_case for rep in reports)) == (524, 98)
    for rep in reports:
        assert (rep.embedded_moduli_dim >= 1) == (not rep.minimal_degree_case), rep.embedding
