import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3carpets.cech_oracle import coh_oracle
from k3carpets.line_cohomology import CohVector, coh
from k3carpets.surfaces import (
    canonical_class,
    hirzebruch,
    is_base_point_free,
    is_very_ample,
    projective_plane,
    riemann_roch_chi,
)

P2 = projective_plane()


# Differential reference for `coh` on F_e: the pushforward along the ruling
# listed summand by summand and summed term by term.  Its work is linear in
# the C0-coefficient, so it is kept only here, to check the closed form.

def pushforward_degrees(e: int, a: int, b: int) -> list[int]:
    """P^1-degrees [b - k*e for k = 0..a] of the pushforward of O(a*C0 + b*f)."""
    if e < 0:
        raise ValueError(f"e must be >= 0, got {e}")
    if a < 0:
        raise ValueError(f"pushforward degrees need a >= 0, got a = {a}; dualize first")
    return [b - k * e for k in range(a + 1)]


def coh_p1(d: int) -> tuple[int, int]:
    """(h0, h1) of O_{P^1}(d)."""
    return (max(0, d + 1), max(0, -d - 1))


def _listed(surface, divisor) -> CohVector:
    a, b = divisor.coeffs
    if a >= 0:
        degs = pushforward_degrees(surface.e, a, b)
        # h2 = h0(K - D) = 0: the dual's C0-coefficient is -2 - a < 0.
        return CohVector(sum(coh_p1(d)[0] for d in degs), sum(coh_p1(d)[1] for d in degs), 0)
    if a == -1:
        return CohVector(0, 0, 0)
    return _listed(surface, canonical_class(surface) - divisor).reversed()


def test_pushforward_degrees():
    assert pushforward_degrees(1, 2, 3) == [3, 2, 1]
    assert pushforward_degrees(7, 0, -4) == [-4]
    assert pushforward_degrees(2, 4, 8) == [8, 6, 4, 2, 0]  # -2K on F_2


def test_pushforward_rejects_negative_a():
    with pytest.raises(ValueError):
        pushforward_degrees(2, -1, 5)


def test_coh_p1():
    assert coh_p1(-2) == (0, 1)
    assert coh_p1(0) == (1, 0)
    assert coh_p1(-1) == (0, 0)
    assert coh_p1(5) == (6, 0)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 12), st.integers(-40, 40), st.integers(-300, 300))
def test_coh_matches_listed_reference(e, a, b):
    s = hirzebruch(e)
    assert coh(s, s.divisor(a, b)) == _listed(s, s.divisor(a, b))


_T = 10**12


@pytest.mark.parametrize("e", [0, 1, 2, 5, 12])
@pytest.mark.parametrize("ab", [(_T, 5), (_T, -5), (-_T, 5), (-_T, -5), (5, _T), (5, -_T)])
def test_huge_coefficients_match_oracle_duality_and_riemann_roch(e, ab):
    # The list reference cannot reach these classes; the Cech oracle can.
    s = hirzebruch(e)
    d = s.divisor(*ab)
    v = coh(s, d)
    assert v == coh_oracle(s, d)
    assert v.reversed() == coh(s, canonical_class(s) - d)
    assert v.chi == riemann_roch_chi(s, d)


def test_cohvector_validation():
    with pytest.raises(ValueError):
        CohVector(1, -1, 0)
    v = CohVector(2, 1, 3)
    assert v.chi == 4
    assert v.reversed().as_tuple() == (3, 1, 2)
    assert (v + v).as_tuple() == (4, 2, 6)
    assert v.scaled(3).as_tuple() == (6, 3, 9)


@pytest.mark.parametrize("e", range(7))
def test_tangent_twist_values(e):
    s = hirzebruch(e)
    assert coh(s, s.divisor(0, -2)).as_tuple() == (0, 1, 0)
    assert coh(s, s.divisor(-2, -e)).as_tuple() == (0, 1, 0)
    assert coh(s, canonical_class(s)).as_tuple() == (0, 0, 1)


def test_very_ample_closed_forms():
    for e in range(5):
        s = hirzebruch(e)
        k = canonical_class(s)
        for a in range(1, 6):
            for b in range(a * e + 1, a * e + 5):
                d = s.divisor(a, b)
                assert coh(s, d).as_tuple() == ((a + 1) * (2 * b + 2 - a * e) // 2, 0, 0)
                adjoint = coh(s, d + k)
                assert adjoint.h0 == (a - 1) * (2 * b - 2 - a * e) // 2
                assert (adjoint.h1, adjoint.h2) == (0, 0)


def test_plane_values():
    assert coh(P2, P2.divisor(-3)).as_tuple() == (0, 0, 1)
    assert coh(P2, P2.divisor(0)).as_tuple() == (1, 0, 0)
    assert coh(P2, P2.divisor(-1)).as_tuple() == (0, 0, 0)
    assert coh(P2, P2.divisor(-2)).as_tuple() == (0, 0, 0)
    for d in range(0, 9):
        assert coh(P2, P2.divisor(d)).as_tuple() == (math.comb(d + 2, 2), 0, 0)
        assert coh(P2, P2.divisor(-d - 3)).as_tuple() == (0, 0, math.comb(d + 2, 2))


def test_known_h1_values():
    f3 = hirzebruch(3)
    assert coh(f3, -2 * canonical_class(f3)).as_tuple() == (26, 1, 0)
    f4 = hirzebruch(4)
    assert coh(f4, f4.divisor(4, 12)).h1 == 3
    assert coh(f4, -1 * canonical_class(f4)).h1 == 1


def _grid(surface):
    if surface.is_plane:
        return [surface.divisor(d) for d in range(-12, 13)]
    return [surface.divisor(a, b) for a in range(-6, 7) for b in range(-6, 7)]


@pytest.mark.parametrize("surface", [hirzebruch(0), hirzebruch(1), hirzebruch(3), hirzebruch(5), P2])
def test_serre_duality(surface):
    k = canonical_class(surface)
    for d in _grid(surface):
        assert coh(surface, d).reversed() == coh(surface, k - d)


@pytest.mark.parametrize("surface", [hirzebruch(0), hirzebruch(2), hirzebruch(4), P2])
def test_chi_equals_riemann_roch(surface):
    for d in _grid(surface):
        assert coh(surface, d).chi == riemann_roch_chi(surface, d)


def test_leray_h1_cross_check():
    # h1 recomputed by chi subtraction must agree with the summed form
    for e in range(5):
        s = hirzebruch(e)
        for a in range(0, 6):
            for b in range(-6, 7):
                d = s.divisor(a, b)
                v = coh(s, d)
                assert v.h1 == v.h0 + v.h2 - riemann_roch_chi(s, d)


def test_kodaira_vanishing_for_very_ample():
    for e in range(6):
        s = hirzebruch(e)
        for a in range(1, 5):
            for b in range(a * e + 1, a * e + 5):
                v = coh(s, s.divisor(a, b))
                assert (v.h1, v.h2) == (0, 0)
    for d in range(1, 10):
        v = coh(P2, P2.divisor(d))
        assert (v.h1, v.h2) == (0, 0)


def test_h0_monotone_under_base_point_free_twist():
    for surface in (hirzebruch(0), hirzebruch(2), P2):
        if surface.is_plane:
            twists = [surface.divisor(0), surface.divisor(1), surface.divisor(3)]
        else:
            e = surface.e
            twists = [surface.divisor(0, 1), surface.divisor(1, e), surface.divisor(2, 2 * e + 1)]
        assert all(is_base_point_free(surface, f) for f in twists)
        for d in _grid(surface):
            for f in twists:
                assert coh(surface, d).h0 <= coh(surface, d + f).h0


def test_very_ample_examples_match_spec_of_bundle():
    f2 = hirzebruch(2)
    assert is_very_ample(f2, f2.divisor(2, 5))
    assert coh(f2, f2.divisor(2, 5)).h0 == 12
