import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations
from operator import and_
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3carpets import battery, surfaces
from k3carpets import cech_oracle as co
from k3carpets.cech_oracle import (
    ToricDivisor,
    ToricFan,
    TruncationError,
    coh_oracle,
    divisor_to_toric,
    fan_for,
    graded_piece,
    hirzebruch_fan,
    p2_fan,
)
from k3carpets.line_cohomology import coh
from k3carpets.surfaces import canonical_class, hirzebruch, projective_plane, riemann_roch_chi

P2 = projective_plane()


def test_fan_validation():
    with pytest.raises(ValueError):
        ToricFan(((2, 0), (0, 1)), ((0, 1),))  # non-primitive ray
    with pytest.raises(ValueError):
        ToricFan(((1, 0), (-1, 0)), ((0, 1),))  # det 0, not smooth
    with pytest.raises(ValueError, match="distinct"):
        ToricFan(((1, 0), (0, 1), (1, 0)), ((0, 1),))
    fan = hirzebruch_fan(3)
    assert fan.rays == ((1, 0), (0, 1), (-1, 3), (0, -1))
    assert p2_fan().rays == ((1, 0), (0, 1), (-1, -1))


def test_oracle_refuses_ray_with_wide_x_component():
    # smooth and complete, but the ray (2, 1) breaks the slab count's premise
    fan = ToricFan(
        ((1, 0), (2, 1), (1, 1), (0, 1), (-1, -1)),
        ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)),
    )
    with pytest.raises(ValueError, match=r"ray \(2, 1\)"):
        co._classify_rays(fan, ToricDivisor((1, 0, 0, 0, 0)))
    with pytest.raises(ValueError, match="coefficients"):
        co._classify_rays(hirzebruch_fan(1), divisor_to_toric(P2, P2.divisor(1)))


def test_divisor_translation():
    f2 = hirzebruch(2)
    assert divisor_to_toric(f2, f2.divisor(1, 0)).coeffs == (0, 1, 0, 0)
    assert divisor_to_toric(f2, f2.divisor(3, -4)).coeffs == (-4, 3, 0, 0)
    assert divisor_to_toric(P2, P2.divisor(7)).coeffs == (7, 0, 0)


def test_oracle_simple_values():
    assert coh_oracle(P2, P2.divisor(1)).as_tuple() == (3, 0, 0)
    assert coh_oracle(P2, P2.divisor(-3)).as_tuple() == (0, 0, 1)
    for e in (0, 1, 4):
        s = hirzebruch(e)
        assert coh_oracle(s, s.divisor(0, -2)).as_tuple() == (0, 1, 0)
        assert coh_oracle(s, canonical_class(s)).as_tuple() == (0, 0, 1)


def test_oracle_h1_of_double_anticanonical_f3():
    f3 = hirzebruch(3)
    got = coh_oracle(f3, f3.divisor(4, 10))
    assert got.h1 == 1
    assert got == coh(f3, f3.divisor(4, 10))


def test_graded_piece_examples():
    f1 = hirzebruch(1)
    fan = fan_for(f1)
    t = divisor_to_toric(f1, f1.divisor(2, 3))
    # character deep inside the section polytope of a generated class
    assert graded_piece(fan, t, (-1, -1)).as_tuple() == (1, 0, 0)
    # character admitted by no chart and outside every bounded cell
    assert graded_piece(fan, t, (50, 50)).as_tuple() == (0, 0, 0)


def test_canonical_h2_character_is_unique():
    # frozen by enumerating the box: our representative of K on F_1 has its
    # single h2 contribution at m = (2, 1); the all-(-1) representative at (0, 0)
    f1 = hirzebruch(1)
    fan = fan_for(f1)
    t = divisor_to_toric(f1, canonical_class(f1))
    assert t.coeffs == (-3, -2, 0, 0)
    box = co.default_box(f1, t)
    hits = [
        (x, y)
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
        if graded_piece(fan, t, (x, y)).h2
    ]
    assert hits == [(2, 1)]
    hits = [
        (x, y)
        for x in range(-6, 7)
        for y in range(-6, 7)
        if graded_piece(fan, ToricDivisor((-1, -1, -1, -1)), (x, y)).h2
    ]
    assert hits == [(0, 0)]


@pytest.mark.parametrize("e", range(4))
def test_oracle_matches_closed_forms_small_grid(e):
    s = hirzebruch(e)
    for a in range(-4, 5):
        for b in range(-4, 5):
            d = s.divisor(a, b)
            assert coh_oracle(s, d) == coh(s, d), (e, a, b)


def test_oracle_matches_closed_forms_plane():
    for deg in range(-8, 9):
        d = P2.divisor(deg)
        assert coh_oracle(P2, d) == coh(P2, d)


def test_oracle_chi_is_riemann_roch():
    # validates the divisor translation convention independently of `coh`
    for e in (0, 2, 5):
        s = hirzebruch(e)
        for a in (-5, -1, 0, 3):
            for b in (-5, 0, 4):
                d = s.divisor(a, b)
                assert coh_oracle(s, d).chi == riemann_roch_chi(s, d)


def test_oracle_deep_negative_twist():
    # h1 support here reaches |m1| = 35, far beyond the coefficient sum
    f5 = hirzebruch(5)
    assert coh_oracle(f5, f5.divisor(-8, 0)).as_tuple() == (0, 147, 0)


def _box_totals(fan, t, box):
    return co._box_totals(fan, co._classify_rays(fan, t), box)


def _pattern_counts(fan, t, box):
    return co._pattern_counts(co._classify_rays(fan, t), box)


def test_linear_equivalence_invariance():
    f2 = hirzebruch(2)
    fan = fan_for(f2)
    t = divisor_to_toric(f2, f2.divisor(2, -3))
    base = _box_totals(fan, t, 30)
    for m0 in [(1, 0), (0, 1), (-2, 3)]:
        shifted = ToricDivisor(
            tuple(a + u[0] * m0[0] + u[1] * m0[1] for u, a in zip(fan.rays, t.coeffs))
        )
        assert _box_totals(fan, shifted, 30) == base


def _reflected(fan):
    """The fan under the lattice reflection (x, y) -> (x, -y), ray for ray."""
    return ToricFan(tuple((x, -y) for x, y in fan.rays), fan.max_cones)


def test_section_ray_orientation_is_immaterial():
    # the reflection swaps which of (0, 1), (0, -1) plays the section ray
    for e in (0, 1, 3):
        s = hirzebruch(e)
        up = hirzebruch_fan(e)
        down = _reflected(up)
        for a in (-3, 0, 1, 2):
            for b in (-3, 0, 2):
                t = divisor_to_toric(s, s.divisor(a, b))
                for box in (co.default_box(s, t), co.default_box(s, t) + 3):
                    assert _box_totals(up, t, box) == _box_totals(down, t, box)


def _cycle_cohomology(cones, mask):
    """(h0, h1, h2) of one pattern by CLS Thm 9.1.3: h^p is the rank of the
    reduced H^(p-1) of the unsatisfied rays on the fan's cycle, read off
    the cones alone."""
    rays = {rho for cone in cones for rho in cone}
    off = {rho for rho in rays if not mask >> rho & 1}
    if not off:
        return (1, 0, 0)
    if off == rays:
        return (0, 0, 1)
    # the unsatisfied rays form runs (arcs) of the cycle; each cone with both
    # rays unsatisfied joins two of them
    joins = sum(1 for i, j in cones if i in off and j in off)
    return (0, len(off) - joins - 1, 0)


def _reference_pattern_cohomology(cone_key, mask):
    """Cohomology ranks of the Cech complex for one pattern, one rank per
    degree 0..(#charts - 1), built and ranked for that mask alone: the
    reference for the oracle's table of all masks."""
    ncharts = len(cone_key)
    cone_masks = [sum(1 << rho for rho in cone) for cone in cone_key]
    admissible = [
        [
            subset
            for subset in combinations(range(ncharts), size)
            if reduce(and_, (cone_masks[i] for i in subset)) & ~mask == 0
        ]
        for size in range(1, ncharts + 1)
    ]
    index = [{s: i for i, s in enumerate(level)} for level in admissible]

    ranks_d = []
    for p in range(ncharts - 1):
        rows = []
        for subset in admissible[p + 1]:
            row = [0] * len(admissible[p])
            for t in range(len(subset)):
                face = subset[:t] + subset[t + 1 :]
                j = index[p].get(face)
                if j is not None:
                    row[j] = -1 if t % 2 else 1
            rows.append(row)
        if admissible[p] and rows:
            ranks_d.append(co._rank(rows))
        else:
            ranks_d.append(0)
    ranks_d.append(0)  # no differential out of the top degree

    hs = []
    for p in range(ncharts):
        dim = len(admissible[p])
        incoming = ranks_d[p - 1] if p > 0 else 0
        hs.append(dim - ranks_d[p] - incoming)
    assert all(h >= 0 for h in hs), (bin(mask), hs)
    return tuple(hs)


# every cone structure of the oracle's fans, each fan also reflected
_TABLE_FANS = [p2_fan(), *(hirzebruch_fan(e) for e in range(6))]
_TABLE_FANS += [_reflected(fan) for fan in _TABLE_FANS]


def test_pattern_table_matches_cycle_cohomology():
    for fan in _TABLE_FANS:
        for mask in range(1 << len(fan.rays)):
            hs = _reference_pattern_cohomology(fan.max_cones, mask)
            assert hs[:3] == _cycle_cohomology(fan.max_cones, mask), (fan, bin(mask))
            assert not any(hs[3:])
            assert fan.mask_cohomology[mask] == hs[:3], (fan, bin(mask))


def test_h0_equals_polytope_point_count():
    for surface in (hirzebruch(2), P2):
        fan = fan_for(surface)
        classes = (
            [surface.divisor(a, b) for a in (-2, 0, 1, 3) for b in (-2, 1, 4)]
            if not surface.is_plane
            else [surface.divisor(d) for d in (-4, -1, 0, 2, 5)]
        )
        for d in classes:
            t = divisor_to_toric(surface, d)
            box = co.default_box(surface, t)
            count = 0
            for x in range(-box, box + 1):
                for y in range(-box, box + 1):
                    if all(
                        u[0] * x + u[1] * y >= -a for u, a in zip(fan.rays, t.coeffs)
                    ):
                        count += 1
            assert coh_oracle(surface, d).h0 == count, d


def test_default_box_is_set_by_the_farthest_vertex():
    f5 = hirzebruch(5)
    # (40, 8), where the lines of rays (0, 1) and (-1, 5) meet
    assert co.default_box(f5, divisor_to_toric(f5, f5.divisor(-8, 0))) == 40
    # (12, 0), where the lines of rays (0, 1) and (-1, -1) meet
    assert co.default_box(P2, divisor_to_toric(P2, P2.divisor(-12))) == 12
    # (6, 0), where the lines of rays (0, 1) and (-1, 5) meet, is farther
    # out than the fractional vertex (0, -6/5) of rays (1, 0) and (-1, 5)
    assert co.default_box(f5, ToricDivisor((0, 0, 6, 0))) == 6
    # here (0, -6/5) is the farthest, and its coordinate is rounded up
    assert co.default_box(f5, ToricDivisor((0, 1, 6, -1))) == 2


def test_recount_misses_what_the_certificate_catches():
    # the box and box + 3 counts agree on (0, 0, 0) here; the answer is
    # (0, 22, 2), and the derived box reaches the vertex (18, 6)
    f3 = hirzebruch(3)
    fan, t = fan_for(f3), divisor_to_toric(f3, f3.divisor(-6, -6))
    assert _box_totals(fan, t, 0) == _box_totals(fan, t, 3) == (0, 0, 0)
    assert coh(f3, f3.divisor(-6, -6)).as_tuple() == (0, 22, 2)
    assert co.default_box(f3, t) == 18
    assert coh_oracle(f3, f3.divisor(-6, -6)).as_tuple() == (0, 22, 2)


def _oracle_large_bundles(seed, count=120, max_coeff=1000):
    """Bundles like the benchmark's large oracle queries: P^2 and F_0..F_12,
    coefficient magnitudes log-uniform in [1, max_coeff], random signs."""
    rng = random.Random(seed)
    surfaces = [P2, *(hirzebruch(e) for e in range(13))]
    out = []
    for i in range(count):
        s = surfaces[i % len(surfaces)]
        coeffs = [
            rng.choice((-1, 1)) * round(math.exp(rng.random() * math.log(max_coeff)))
            for _ in range(s.picard_rank)
        ]
        out.append((s, s.divisor(*coeffs)))
    return out


_BUNDLE_SETS = [
    pytest.param(list(battery.oracle_grid()), id="battery-grid"),
    pytest.param(_oracle_large_bundles(1), id="oracle-large-seed-1"),
    pytest.param(_oracle_large_bundles(7919), id="oracle-large-seed-7919"),
]


def _arrangement_vertices(fan, t):
    """Each point where two lines <m, u_rho> = -a_rho meet, as fractions."""
    for (u, a), (v, b) in combinations(zip(fan.rays, t.coeffs), 2):
        det = u[0] * v[1] - u[1] * v[0]
        if det:
            m = (Fraction(b * u[1] - a * v[1], det), Fraction(a * v[0] - b * u[0], det))
            assert u[0] * m[0] + u[1] * m[1] == -a and v[0] * m[0] + v[1] * m[1] == -b
            yield m


@pytest.mark.parametrize("bundles", _BUNDLE_SETS)
def test_default_box_is_the_smallest_holding_every_vertex(bundles):
    for s, d in bundles:
        fan, t = fan_for(s), divisor_to_toric(s, d)
        box = co.default_box(s, t)
        farthest = max(max(abs(x), abs(y)) for x, y in _arrangement_vertices(fan, t))
        assert box - 1 < farthest <= box, (s, d)


@pytest.mark.parametrize("bundles", _BUNDLE_SETS)
def test_certified_pass_matches_recount_and_closed_form(bundles):
    # the box + 3 recount is kept here as a reference count
    for s, d in bundles:
        fan, t = fan_for(s), divisor_to_toric(s, d)
        box = co.default_box(s, t)
        co._certify(fan, t, s, d)
        once = coh_oracle(s, d).as_tuple()
        assert once == _box_totals(fan, t, box + 3) == coh(s, d).as_tuple(), (s, d)


def test_oracle_counts_the_box_once(monkeypatch):
    boxes = []
    real = co._box_totals

    def counted(fan, rays, box):
        boxes.append(box)
        return real(fan, rays, box)

    monkeypatch.setattr(co, "_box_totals", counted)
    f5 = hirzebruch(5)
    assert coh_oracle(f5, f5.divisor(-8, 0)).as_tuple() == (0, 147, 0)
    assert boxes == [co.default_box(f5, divisor_to_toric(f5, f5.divisor(-8, 0)))]


# every surface of the oracle's benchmark queries, and so of its fans
_ORACLE_SURFACES = [P2, *(hirzebruch(e) for e in range(13))]


def _real_mask_table(fan):
    return tuple(_reference_pattern_cohomology(fan.max_cones, mask)[:3]
                 for mask in range(1 << len(fan.rays)))


def test_mask_table_matches_pattern_cohomology():
    for surface in _ORACLE_SURFACES:
        fan = fan_for(surface)
        assert fan.mask_cohomology == _real_mask_table(fan), surface


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_ORACLE_SURFACES), st.data())
def test_pair_table_box_holds_the_farthest_vertex(surface, data):
    # every coefficient free, so that every ray pair of the fan sets a vertex
    fan = fan_for(surface)
    coeffs = data.draw(st.lists(st.integers(-1000, 1000), min_size=len(fan.rays),
                                max_size=len(fan.rays)))
    t = ToricDivisor(tuple(coeffs))
    assert len(fan.ray_pairs) == sum(1 for _ in _arrangement_vertices(fan, t))
    farthest = max(max(abs(x), abs(y)) for x, y in _arrangement_vertices(fan, t))
    box = co.default_box(surface, t)
    assert box - 1 < farthest <= box


def test_certified_call_formats_neither_divisor_nor_surface(monkeypatch):
    # a deterministic guard on per-call work: the certificate names the
    # bundle only in the error it raises
    formatted = []

    def counted(self):
        formatted.append(self)
        return "?"

    monkeypatch.setattr(surfaces.SurfaceModel, "__str__", counted)
    monkeypatch.setattr(surfaces.DivisorClass, "__str__", counted)
    for s, d in battery.oracle_grid():
        coh_oracle(s, d)
    assert formatted == []
    f3 = hirzebruch(3)
    monkeypatch.setitem(vars(fan_for(f3)), "at_infinity", ((0, 2, 0b0101, True),))
    with pytest.raises(TruncationError, match=r"for \? on \?$"):
        coh_oracle(f3, f3.divisor(1, 1))
    assert len(formatted) == 2


@pytest.fixture
def fake_cohomology(monkeypatch):
    """Gives one pattern mask the cohomology (0, 1, 0).  The fans of
    `fan_for`, which hold their pattern tables and their patterns at
    infinity, are dropped before and after, and the fans built after the
    test must hold the real tables: no table built under the fake outlives
    the test."""
    real = co._pattern_cohomology
    fan_for.cache_clear()

    def fake(fake_mask):
        monkeypatch.setattr(
            co, "_pattern_cohomology",
            lambda cones, nrays: tuple((0, 1, 0) if mask == fake_mask else hs
                                       for mask, hs in enumerate(real(cones, nrays))),
        )

    yield fake
    monkeypatch.undo()
    fan_for.cache_clear()
    for surface in _ORACLE_SURFACES:
        fan = fan_for(surface)
        assert fan.mask_cohomology == _real_mask_table(fan), surface


def test_sector_pattern_with_cohomology_is_refused(fake_cohomology):
    # on F_2 the direction (1, 1) lies in the open sector between the
    # critical directions (2, 1) and (0, 1); rays (1, 0), (0, 1), (-1, 2) are
    # positive on it
    fake_cohomology(0b0111)
    with pytest.raises(TruncationError, match="pattern at infinity 0b111 in the sector "
                       r"between directions \(2, 1\) and \(0, 1\) has cohomology \(0, 1, 0\)"):
        coh_oracle(F2, F2.divisor(1, 1))


@pytest.mark.parametrize("mask, realized_at", [(0b0010, (-2, -7)), (0b0111, (0, 5))])
def test_critical_pattern_is_checked_where_a_character_realizes_it(
    fake_cohomology, mask, realized_at
):
    # on F_0 at the critical direction (0, 1), the rays (1, 0) and (-1, 0)
    # are perpendicular to it, and the divisor (0, b) asks x >= -b and x <= 0
    # of them: both unsatisfied (0b0010) needs b <= -2, both satisfied
    # (0b0111) needs b >= 0
    f0 = hirzebruch(0)
    fake_cohomology(mask)
    assert coh_oracle(f0, f0.divisor(0, -1)).as_tuple() == (0, 0, 0)
    # that count read the fake: the fan's table was built under it
    assert fan_for(f0).mask_cohomology[mask] == (0, 1, 0)
    for b in realized_at:
        with pytest.raises(TruncationError, match=f"pattern at infinity {mask:#b} has cohomology"):
            coh_oracle(f0, f0.divisor(0, b))


def test_directions_sort_counterclockwise():
    order = [(1, 0), (3, 1), (1, 1), (0, 1), (-1, 2), (-1, 0), (-2, -1), (0, -1), (1, -5)]
    shuffled = order[:]
    random.Random(3).shuffle(shuffled)
    assert sorted(shuffled, key=co.cmp_to_key(co._counterclockwise)) == order


def test_integer_rank():
    assert co._rank([[2, 4], [1, 2]]) == 1
    assert co._rank([[2, 1], [1, 2]]) == 2
    assert co._rank([[0, 0], [0, 0]]) == 0
    assert co._rank([[0, 3, 6], [0, 2, 4], [5, 0, 1]]) == 2


def test_one_fan_per_surface():
    assert fan_for(hirzebruch(4)) is fan_for(hirzebruch(4))
    assert fan_for(P2) is fan_for(projective_plane())
    assert fan_for(hirzebruch(4)) == hirzebruch_fan(4)


def test_degree_three_cohomology_always_vanishes():
    # exercised over every pattern the canonical divisor reaches
    f3 = hirzebruch(3)
    fan = fan_for(f3)
    t = divisor_to_toric(f3, canonical_class(f3))
    seen = set()
    for x in range(-8, 9):
        for y in range(-8, 9):
            bits = tuple(
                u[0] * x + u[1] * y >= -a for u, a in zip(fan.rays, t.coeffs)
            )
            seen.add(bits)
            graded_piece(fan, t, (x, y))  # raises if any rank beyond degree 2 shows up
    assert len(seen) > 4


def _per_character_counts(fan, t, box):
    """Pattern masks of every character of the box, straight from the rays."""
    return Counter(
        sum(
            1 << rho
            for rho, (u, a) in enumerate(zip(fan.rays, t.coeffs))
            if u[0] * x + u[1] * y >= -a
        )
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
    )


@st.composite
def _fan_and_divisor(draw):
    e = draw(st.one_of(st.none(), st.integers(0, 8)))
    if e is None:
        surface, fan = P2, p2_fan()
    else:
        surface, fan = hirzebruch(e), hirzebruch_fan(e)
        if draw(st.booleans()):
            fan = _reflected(fan)
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=len(fan.rays), max_size=len(fan.rays)))
    return surface, fan, ToricDivisor(tuple(coeffs))


F2 = hirzebruch(2)  # mask bits: 1 = (1, 0), 2 = (0, 1), 4 = (-1, 2), 8 = (0, -1)

# (surface, divisor, box) at the boundaries of a row's bit flips; each is
# one more input to the per-character comparison below, whose boxes 0..12
# include its box
_ROW_EDGE_CASES = [
    # lower threshold of (1, 0) at x = -box on the row y = 0
    (F2, ToricDivisor((4, 0, 0, 0)), 4),
    # lower threshold of (1, 0) at x = box
    (F2, ToricDivisor((-4, 0, 0, 0)), 4),
    # upper cut of (-1, 2) with c = box on the row y = 0: no flip
    (F2, ToricDivisor((0, 0, 4, 0)), 4),
    # upper cut of (-1, 2) with c = -box - 1: no flip, never satisfied
    (F2, ToricDivisor((0, 0, -5, 0)), 4),
    # lower cut of (1, 0) and upper cut of (-1, 2) both at x = 1 on the row y = 0
    (F2, ToricDivisor((-1, 0, 0, 0)), 3),
    # on P^2, (1, 0) and (-1, -1) flip at the same x on the one-row slab y = 1
    (P2, ToricDivisor((0, 0, 0)), 5),
    # box = 0
    (F2, ToricDivisor((0, 0, 0, 0)), 0),
    (P2, ToricDivisor((-1, 2, 0)), 0),
]


def test_row_edge_cases_reach_their_boundaries():
    # each case above puts its flips where its comment says
    rays = [co._classify_rays(fan_for(s), t) for s, t, _ in _ROW_EDGE_CASES]
    row = co._row_segments
    assert row(rays[0], 4, 0) == ([0b1111, 0b1011], [5, 4])  # bit 1 on from the start
    assert row(rays[1], 4, 0) == ([0b1110, 0b1010, 0b1011], [5, 3, 1])  # bit 1 on at x = 4
    assert row(rays[2], 4, 0) == ([0b1110, 0b1111], [4, 5])  # bit 4 never flips
    assert row(rays[3], 4, 0) == ([0b1010, 0b1011], [4, 5])  # bit 4 never set
    assert row(rays[4], 3, 0) == ([0b1110, 0b1011], [4, 3])  # bits 1 and 4 flip at x = 1
    assert row(rays[5], 5, 1) == ([0b110, 0b011], [5, 6])  # bits 1 and 4 flip at x = 0
    edges = co._slab_edges(rays[5], 5)
    assert [1, 2] == [y for y in edges if 0 < y < 3]
    assert row(rays[6], 0, 0) == ([0b1111], [1])
    assert row(rays[7], 0, 0) == ([0b110], [1])


def test_slab_check_fires_on_merged_slabs(monkeypatch):
    # F_2 with a = 3 on (0, 1): the row y = -3 turns the section ray on, so
    # edges -4 and -3 start slabs with different mask sequences; dropping
    # the edge -3 merges them and the head/tail comparison must object
    fan, t = fan_for(F2), ToricDivisor((0, 3, 0, 0))
    rays = co._classify_rays(fan, t)
    edges = co._slab_edges(rays, 4)
    assert -3 in edges
    assert co._row_segments(rays, 4, -4)[0] != co._row_segments(rays, 4, -3)[0]
    monkeypatch.setattr(co, "_slab_edges", lambda *args: [y for y in edges if y != -3])
    with pytest.raises(ArithmeticError, match="rows -4 and .* of one slab differ"):
        co._pattern_counts(rays, 4)


def _with_row_edge_cases(test):
    for surface, t, _ in _ROW_EDGE_CASES:
        test = example((surface, fan_for(surface), t))(test)
    return test


@settings(max_examples=60, deadline=None)
@given(_fan_and_divisor())
@_with_row_edge_cases
def test_slab_counts_match_per_character_count(case):
    surface, fan, t = case
    for box in [*range(13), co.default_box(surface, t)]:
        assert _pattern_counts(fan, t, box) == _per_character_counts(fan, t, box), box


def test_row_evaluations_do_not_depend_on_box(monkeypatch):
    # a slanted cut can cross a box edge just inside or just outside the
    # default box, so that count may differ from the huge-box one by a
    # single-row slab; both stay under one bound set by the rays
    rows = []
    segments = co._row_segments

    def counted(rays, box, y):
        rows.append(y)
        return segments(rays, box, y)

    monkeypatch.setattr(co, "_row_segments", counted)
    f1, f3, f8 = hirzebruch(1), hirzebruch(3), hirzebruch(8)
    cases = [(P2, P2.divisor(7)), (P2, P2.divisor(-12)), (f1, f1.divisor(3, -2)),
             (f3, f3.divisor(-4, 9)), (f3, f3.divisor(2, -5)), (f8, f8.divisor(-3, -30))]
    for surface, d in cases:
        fan, t = fan_for(surface), divisor_to_toric(surface, d)
        per_box = []
        for box in (co.default_box(surface, t), 10**6, 10**9, 10**12):
            rows.clear()
            _pattern_counts(fan, t, box)
            per_box.append(len(rows))
        assert max(per_box) <= 20 and per_box[1] == per_box[2] == per_box[3], (d, per_box)


def _reference_patterns_at_infinity(fan):
    """The certificate's fan part as first written: every critical
    direction sorted counterclockwise, and each pattern read off the sum of
    two directions.  The reference for `co._patterns_at_infinity`."""

    def positive(d):
        return sum(1 << rho for rho, u in enumerate(fan.rays) if u[0] * d[0] + u[1] * d[1] > 0)

    dirs = sorted({d for p, q in fan.rays for d in ((-q, p), (q, -p))},
                  key=co.cmp_to_key(co._counterclockwise))
    always, conditional = [], []
    for d, after in zip(dirs, dirs[1:] + dirs[:1]):
        always.append((positive((d[0] + after[0], d[1] + after[1])), d, after))
        base = positive(d)
        perp = [rho for rho, u in enumerate(fan.rays) if u[0] * d[0] + u[1] * d[1] == 0]
        always += [(base | 1 << rho, d, None) for rho in perp]
        if len(perp) == 1:
            always.append((base, d, None))
        else:
            rho, sigma = perp
            both = base | 1 << rho | 1 << sigma
            conditional += [(rho, sigma, both, True), (rho, sigma, base, False)]
    table = fan.mask_cohomology
    for mask, d, after in always:
        if any(table[mask]):
            where = (f"at direction {d}" if after is None
                     else f"in the sector between directions {d} and {after}")
            raise TruncationError(
                f"pattern at infinity {mask:#b} {where} has cohomology {table[mask]}, "
                f"for the fan with rays {fan.rays}"
            )
    return tuple(c for c in conditional if any(table[c[2]]))


def _reference_classify_rays(fan, t):
    """`_classify_rays` as first written, every ray classified per call."""
    for u in fan.rays:
        if u[0] not in (-1, 0, 1):
            raise ValueError(f"ray {u} has x-component {u[0]}")
    co._check_coeff_count(fan, t)
    fixed, cuts = [], []
    for rho, ((ux, uy), a) in enumerate(zip(fan.rays, t.coeffs)):
        if ux == 0:
            fixed.append((1 << rho, uy, a))
        elif ux > 0:
            cuts.append((1 << rho, -uy, -a, False))
        else:
            cuts.append((1 << rho, uy, a + 1, True))
    return tuple(fixed), tuple(cuts)


# P^2 and F_0..F_40, each also reflected
_REFERENCE_FANS = [p2_fan(), *(hirzebruch_fan(e) for e in range(41))]
_REFERENCE_FANS += [_reflected(fan) for fan in _REFERENCE_FANS]


def test_shared_tables_certificates_and_ray_classes_match_references():
    reference_tables = {}
    rng = random.Random(5)
    for fan in [*_REFERENCE_FANS, *_TABLE_FANS]:
        key = (fan.max_cones, len(fan.rays))
        if key not in reference_tables:
            reference_tables[key] = _real_mask_table(fan)
        assert fan.mask_cohomology == reference_tables[key], fan
        assert fan.mask_cohomology is co._pattern_cohomology(*key)
        assert fan.at_infinity == co._patterns_at_infinity(fan) \
            == _reference_patterns_at_infinity(fan) == (), fan
        for _ in range(20):
            t = ToricDivisor(tuple(rng.randint(-50, 50) for _ in fan.rays))
            assert co._classify_rays(fan, t) == _reference_classify_rays(fan, t), (fan, t)


def _outcome(find, fan):
    try:
        return find(fan)
    except TruncationError as err:
        return str(err)


def test_certificate_matches_reference_under_every_faked_mask():
    # one mask at a time given cohomology: the same patterns are returned,
    # or the same pattern is refused first, with the same message
    fans = [p2_fan(), *(hirzebruch_fan(e) for e in range(9))]
    refused = 0
    for fan in [*fans, *map(_reflected, fans)]:
        real = fan.mask_cohomology
        for fake in range(len(real)):
            faked = ToricFan(fan.rays, fan.max_cones)
            vars(faked)["mask_cohomology"] = tuple(
                (0, 1, 0) if mask == fake else hs for mask, hs in enumerate(real))
            got = _outcome(co._patterns_at_infinity, faked)
            assert got == _outcome(_reference_patterns_at_infinity, faked), (fan, bin(fake))
            refused += isinstance(got, str)
    assert refused > 0


def test_graded_piece_reads_the_shared_table():
    f1, f7 = fan_for(hirzebruch(1)), fan_for(hirzebruch(7))
    assert f1.mask_cohomology is f7.mask_cohomology
    assert hirzebruch_fan(3).mask_cohomology is _reflected(hirzebruch_fan(3)).mask_cohomology
    # a fan whose table names each mask: graded_piece answers from it
    fan = hirzebruch_fan(2)
    vars(fan)["mask_cohomology"] = tuple((mask, 0, 0) for mask in range(16))
    t = ToricDivisor((0, 0, 0, 0))
    for m in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (5, -3)]:
        mask = sum(1 << rho for rho, u in enumerate(fan.rays) if u[0] * m[0] + u[1] * m[1] >= 0)
        assert graded_piece(fan, t, m).as_tuple() == (mask, 0, 0), m


def test_fans_of_a_ranked_cone_structure_rank_nothing(monkeypatch):
    # a deterministic guard on per-fan work: once one F_e fan has its
    # table, no other F_e fan ranks a matrix, however new
    fan_for(hirzebruch(0)).mask_cohomology
    ranked = []
    real = co._rank
    monkeypatch.setattr(co, "_rank", lambda rows: ranked.append(rows) or real(rows))
    fan_for.cache_clear()
    for e in range(1, 41):
        s = hirzebruch(e)
        fan = fan_for(s)
        assert fan.mask_cohomology and fan.at_infinity == ()
        assert coh_oracle(s, s.divisor(1, -2)) == coh(s, s.divisor(1, -2))
    assert ranked == []


def test_import_builds_no_fan_and_no_table():
    # the per-fan and per-cone-structure work stays out of every cold start
    src = str(Path(co.__file__).resolve().parent.parent)
    code = ("import k3carpets.cli\nfrom k3carpets import cech_oracle as co\n"
            "print(co.fan_for.cache_info().currsize, co._pattern_cohomology.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.split() == ["0", "0"]


def test_ray_check_once_per_fan_and_count_check_once_per_call(monkeypatch):
    ray_checks, count_checks = [], []
    real_classes, real_count = ToricFan.ray_classes.func, co._check_coeff_count

    def classes(fan):
        ray_checks.append(fan)
        return real_classes(fan)

    counted = cached_property(classes)
    counted.__set_name__(ToricFan, "ray_classes")
    monkeypatch.setattr(ToricFan, "ray_classes", counted)
    monkeypatch.setattr(co, "_check_coeff_count",
                        lambda fan, t: count_checks.append(t) or real_count(fan, t))
    fan_for.cache_clear()
    grid = list(battery.oracle_grid())
    for s, d in grid:
        coh_oracle(s, d)
    assert len(count_checks) == len(grid)
    assert len(ray_checks) == len({s for s, _ in grid}) == len(set(ray_checks))
    fan_for.cache_clear()


def test_fan_cache_is_bounded_and_an_evicted_fan_comes_back_equal():
    fan_for.cache_clear()
    f2 = hirzebruch(2)
    first = fan_for(f2)
    answer = coh_oracle(f2, f2.divisor(-3, 5))
    for e in range(1000, 2000):
        fan_for(hirzebruch(e))
    size = fan_for.cache_info().maxsize
    assert size is not None and fan_for.cache_info().currsize <= size
    again = fan_for(f2)
    assert again is not first and again == first
    assert again.mask_cohomology is first.mask_cohomology
    assert again.at_infinity == first.at_infinity and again.ray_pairs == first.ray_pairs
    assert coh_oracle(f2, f2.divisor(-3, 5)) == answer
    fan_for.cache_clear()
