"""One-shot verification battery behind the `verify-paper` command.

Each claim records a checked mathematical statement with the computed and
expected values; sweep-style statements are aggregated into a single claim
whose computed value is a mismatch count.  The battery is deterministic
(fixed grids, fixed RNG seed) and uses only the public module operations,
looked up through their modules so that deliberately corrupting a single
constant (canonical class, intersection form, the fiber sums of
`line_cohomology`) makes the affected claims fail.

`run_all` hands one `CarpetGrid` to every group, so a run computes each
surface fact and Hilbert report once.  `cohomology_claims` keeps its own
loop: reading the grid there would keep it alive through the oracle group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from . import carpets, cech_oracle, line_cohomology, surfaces
from .exact_seq import CohInterval, LesInstance, propagate

ORACLE_E_RANGE = range(0, 6)
ORACLE_AB_SPAN = 8
ORACLE_P2_SPAN = 12

CARPET_E_RANGE = range(0, 7)
CARPET_A_RANGE = range(1, 7)
CARPET_B_OFFSETS = range(1, 7)
CARPET_EXTRAS = (0, 5)
P2_D_RANGE = range(1, 11)


@dataclass(frozen=True)
class Claim:
    claim_id: str
    subject: str
    computed: str
    expected: str

    @property
    def passed(self) -> bool:
        return self.computed == self.expected


def _claim(claim_id: str, subject: str, computed, expected) -> Claim:
    return Claim(claim_id, subject, str(computed), str(expected))


def _mismatch_claim(claim_id: str, subject: str, checked: int, mismatches: list) -> Claim:
    computed = f"{checked - len(mismatches)}/{checked} agree"
    if mismatches:
        computed += f"; first mismatch {mismatches[0]}"
    return _claim(claim_id, subject, computed, f"{checked}/{checked} agree")


def fe_polarizations():
    """The F_e grid: a*C0 + b*f with b = a*e + db.  Yields (surface, divisor)."""
    for e in CARPET_E_RANGE:
        s = surfaces.hirzebruch(e)
        for a in CARPET_A_RANGE:
            for off in CARPET_B_OFFSETS:
                yield s, s.divisor(a, a * e + off)


class CarpetGrid:
    """A context per surface, F_0..F_6 then P^2, and a `PolarizationData` per
    class, F_e then P^2, each built when first read: a failed build fails
    the group that reads it.  `run_all` drops the grid when it returns."""

    @cached_property
    def contexts(self) -> dict[surfaces.SurfaceModel, carpets.SurfaceContext]:
        return {s: carpets.SurfaceContext.of(s)
                for s in (*map(surfaces.hirzebruch, CARPET_E_RANGE), surfaces.projective_plane())}

    @cached_property
    def lines(self) -> dict[surfaces.DivisorClass, carpets.PolarizationData]:
        p2 = surfaces.projective_plane()
        classes = (*(d for _, d in fe_polarizations()), *map(p2.divisor, P2_D_RANGE))
        return {d: carpets.PolarizationData(self.contexts[d.surface], d) for d in classes}

    def embeddings(self):
        """Each class embedded by its complete series, and by that series
        followed by `extra` more ambient dimensions.  Yields (embedding, extra)."""
        return ((line.complete_series(extra), extra)
                for line in self.lines.values() for extra in CARPET_EXTRAS)


def oracle_grid():
    """Every bundle the closed forms are compared on: a box of classes on
    F_0..F_5 and a range of degrees on P^2.  Yields (surface, divisor)."""
    for e in ORACLE_E_RANGE:
        s = surfaces.hirzebruch(e)
        for a in range(-ORACLE_AB_SPAN, ORACLE_AB_SPAN + 1):
            for b in range(-ORACLE_AB_SPAN, ORACLE_AB_SPAN + 1):
                yield s, s.divisor(a, b)
    p2 = surfaces.projective_plane()
    for d in range(-ORACLE_P2_SPAN, ORACLE_P2_SPAN + 1):
        yield p2, p2.divisor(d)


def surface_claims(grid: CarpetGrid) -> list[Claim]:
    out = []
    p2 = surfaces.projective_plane()
    for e in CARPET_E_RANGE:
        s = surfaces.hirzebruch(e)
        k = surfaces.canonical_class(s)
        out.append(_claim(f"canonical-square-F{e}", f"K.K on F_{e}", surfaces.intersect(s, k, k), 8))
    k2 = surfaces.canonical_class(p2)
    out.append(_claim("canonical-square-P2", "K.K on P^2", surfaces.intersect(p2, k2, k2), 9))
    f0, f3 = surfaces.hirzebruch(0), surfaces.hirzebruch(3)
    out.append(_claim("canonical-class-F0", "canonical class of F_0",
                      surfaces.canonical_class(f0).coeffs, (-2, -2)))
    out.append(_claim("canonical-class-F3", "canonical class of F_3",
                      surfaces.canonical_class(f3).coeffs, (-2, -5)))
    out.append(_claim("canonical-class-P2", "canonical class of P^2",
                      surfaces.canonical_class(p2).coeffs, (-3,)))
    f2 = surfaces.hirzebruch(2)
    out.append(_claim("section-self-intersection", "C0.C0 on F_2",
                      surfaces.intersect(f2, f2.divisor(1, 0), f2.divisor(1, 0)), -2))
    out.append(_claim("very-ample-threshold", "very-ampleness of (1,3) and (1,2) on F_2",
                      (surfaces.is_very_ample(f2, f2.divisor(1, 3)),
                       surfaces.is_very_ample(f2, f2.divisor(1, 2))),
                      (True, False)))
    bpf = tuple(
        surfaces.is_base_point_free(
            surfaces.hirzebruch(e), -2 * surfaces.canonical_class(surfaces.hirzebruch(e))
        )
        for e in CARPET_E_RANGE
    )
    out.append(_claim("anticanonical-double-bpf", "|-2K| base point free on F_e, e = 0..6",
                      bpf, tuple(e <= 2 for e in CARPET_E_RANGE)))
    return out


def cohomology_claims(grid: CarpetGrid) -> list[Claim]:
    out = []
    p2 = surfaces.projective_plane()
    vals = tuple(
        line_cohomology.coh(surfaces.hirzebruch(e), surfaces.hirzebruch(e).divisor(0, -2)).as_tuple()
        for e in CARPET_E_RANGE
    )
    out.append(_claim("fiber-tangent-twist", "cohomology of O(-2f) on F_e, e = 0..6",
                      vals, ((0, 1, 0),) * len(CARPET_E_RANGE)))
    vals = tuple(
        line_cohomology.coh(surfaces.hirzebruch(e), surfaces.hirzebruch(e).divisor(-2, -e)).as_tuple()
        for e in CARPET_E_RANGE
    )
    out.append(_claim("base-tangent-twist", "cohomology of O(-2C0 - ef) on F_e, e = 0..6",
                      vals, ((0, 1, 0),) * len(CARPET_E_RANGE)))
    vals = tuple(
        line_cohomology.coh(surfaces.hirzebruch(e), surfaces.canonical_class(surfaces.hirzebruch(e))).as_tuple()
        for e in CARPET_E_RANGE
    )
    out.append(_claim("canonical-cohomology", "cohomology of K on F_e, e = 0..6",
                      vals, ((0, 0, 1),) * len(CARPET_E_RANGE)))

    mismatches = []
    checked = 0
    for s, d in fe_polarizations():
        (a, b), e = d.coeffs, s.e
        checked += 1
        got = line_cohomology.coh(s, d).as_tuple()
        want = ((a + 1) * (2 * b + 2 - a * e) // 2, 0, 0)
        if got != want:
            mismatches.append((str(s), (a, b), got, want))
        checked += 1
        got = line_cohomology.coh(s, d + surfaces.canonical_class(s)).h0
        want_adj = (a - 1) * (2 * b - 2 - a * e) // 2
        if got != want_adj:
            mismatches.append((str(s), (a, b), "adjoint", got, want_adj))
    out.append(_mismatch_claim("very-ample-section-counts",
                               "closed-form h0 for very ample classes and their adjoints",
                               checked, mismatches))
    out.append(_claim("serre-dual-structure-sheaf", "cohomology of O(-3) on P^2",
                      line_cohomology.coh(p2, p2.divisor(-3)).as_tuple(), (0, 0, 1)))
    return out


def oracle_claims(grid: CarpetGrid) -> list[Claim]:
    agree, duality, rr = [], [], []
    checked = 0
    for s, d in oracle_grid():
        checked += 1
        closed = line_cohomology.coh(s, d)
        k = surfaces.canonical_class(s)
        try:
            brute = cech_oracle.coh_oracle(s, d)
            if closed.as_tuple() != brute.as_tuple():
                agree.append((str(s), d.coeffs, closed.as_tuple(), brute.as_tuple()))
        except cech_oracle.TruncationError as err:
            agree.append((str(s), d.coeffs, "truncation", str(err)))
        dual = line_cohomology.coh(s, k - d)
        if closed.reversed().as_tuple() != dual.as_tuple():
            duality.append((str(s), d.coeffs))
        if closed.chi != surfaces.riemann_roch_chi(s, d):
            rr.append((str(s), d.coeffs))
    out = [
        _mismatch_claim("oracle-agreement",
                        f"closed forms match the Cech oracle on {checked} bundles",
                        checked, agree),
        _mismatch_claim("serre-duality", "reversal under D -> K - D on the same grid",
                        checked, duality),
        _mismatch_claim("riemann-roch", "chi matches Riemann-Roch on the same grid",
                        checked, rr),
    ]
    return out


def carpet_claims(grid: CarpetGrid) -> list[Claim]:
    *fe, plane = grid.contexts.values()
    out = [_claim("abstract-family-dim-hirzebruch",
                  "abstract carpet family dimension on F_e, e = 0..6",
                  tuple(c.abstract_dim for c in fe), (2,) * len(CARPET_E_RANGE)),
           _claim("abstract-family-dim-plane", "abstract carpet family dimension on P^2",
                  plane.abstract_dim, 1)]

    mismatches = []
    checked = 0
    for emb, extra in grid.embeddings():
        s, np1 = emb.surface, emb.n_plus_1
        if s.is_plane:
            continue
        (a, b), e = emb.polarization.coeffs, s.e
        checked += 1
        got = carpets.embedded_carpet_h0(emb)
        want = np1 * (a - 1) * (2 * b - 2 - a * e) // 2 + 1
        if got != want:
            mismatches.append((str(s), (a, b), np1, got, want))
        if extra == 0:
            checked += 1
            quartic = (a * a - 1) * ((2 * b - a * e) ** 2 - 4) // 4 + 1
            if got != quartic:
                mismatches.append((str(s), (a, b), "complete", got, quartic))
    out.append(_mismatch_claim("embedded-family-linear-form",
                               "embedded carpet h0 matches the linear and quartic closed forms",
                               checked, mismatches))

    mismatches = []
    checked = 0
    for emb, _ in grid.embeddings():
        if not emb.surface.is_plane:
            continue
        deg, np1 = emb.polarization.degree, emb.n_plus_1
        checked += 1
        got = carpets.embedded_carpet_h0(emb)
        want = np1 * (deg - 1) * (deg - 2) // 2
        if got != want or (got == 0) != (deg <= 2):
            mismatches.append((deg, np1, got, want))
    out.append(_mismatch_claim("embedded-family-plane",
                               "embedded carpet h0 on d-uple planes; zero exactly for d <= 2",
                               checked, mismatches))

    f0 = surfaces.hirzebruch(0)
    rep = carpets.carpet_report(grid.lines[f0.divisor(1, 1)].complete_series())
    out.append(_claim("minimal-degree-unique-carpet",
                      "minimal-degree scroll carries a unique embedded carpet",
                      (rep.embedded_h0, rep.minimal_degree_case, rep.exists_embedded),
                      (1, True, True)))
    return out


def hilbert_claims(grid: CarpetGrid) -> list[Claim]:
    out = []
    chi_bad, verdict_bad = [], []
    checked = 0
    for emb, _ in grid.embeddings():
        s, d = emb.surface, emb.polarization
        if s.is_plane and d.degree <= 2:
            continue  # the Veronese and the plane carry no embedded carpet
        checked += 1
        rep = emb.line.hilbert  # one report per polarization, shared by its extras
        np1 = rep.hilbert_ambient_n + 1
        if rep.chi_normal_carpet != np1 * np1 + 18:
            chi_bad.append((str(s), d.coeffs, rep.chi_normal_carpet))
        if rep.smooth != (s.is_plane or s.e <= 2):
            verdict_bad.append((str(s), d.coeffs, rep.smooth))
    out.append(_mismatch_claim("hilbert-tangent-chi",
                               "chi of the carpet normal bundle equals (N+1)^2 + 18",
                               checked, chi_bad))
    out.append(_mismatch_claim("hilbert-smooth-verdict",
                               "Hilbert point smooth iff e <= 2 on F_e and always on P^2",
                               checked, verdict_bad))

    f3 = surfaces.hirzebruch(3)
    rep = grid.lines[f3.divisor(2, 8)].hilbert
    out.append(_claim("hilbert-obstruction-e3",
                      "on F_3 the chain forces h1 of the carpet normal bundle to 1",
                      (rep.smooth, rep.h1_normal_carpet), (False, (1, 1))))
    return out


def double_cover_claims(grid: CarpetGrid) -> list[Claim]:
    *fe, plane = [context.double_cover for context in grid.contexts.values()]
    h1s = (*(rep.h1_N_pi for rep in fe if rep.is_k3_cover), plane.h1_N_pi)
    return [
        _claim("double-cover-k3", "branched double cover of F_e is K3 iff e <= 2",
               tuple(rep.is_k3_cover for rep in fe), tuple(e <= 2 for e in CARPET_E_RANGE)),
        _claim("double-cover-k3-plane", "sextic double cover of P^2 is K3",
               plane.is_k3_cover, True),
        _claim("cover-deformation-unobstructed",
               "h1 of the cover normal sheaf is 0 whenever the cover exists",
               h1s, (0,) * len(h1s)),
    ]


def _random_divisor(rng: random.Random, s: surfaces.SurfaceModel) -> surfaces.DivisorClass:
    span = ORACLE_AB_SPAN
    if s.is_plane:
        return s.divisor(rng.randint(-span, span))
    return s.divisor(rng.randint(-span, span), rng.randint(-span, span))


def exact_seq_claims(grid: CarpetGrid) -> list[Claim]:
    out = []
    one = CohInterval.exact(0, 1, 0)
    forced = propagate(LesInstance(one, CohInterval.unknown(), one)).b
    out.append(_claim("les-middle-forcing",
                      "two h1 = 1 endpoints force the middle term to (0, 2, 0)",
                      (forced.is_forced_all(), forced.lo), (True, (0, 2, 0))))

    s, (a, b), np1 = surfaces.hirzebruch(2), (2, 5), 12
    adj = line_cohomology.coh(s, s.divisor(a, b) + surfaces.canonical_class(s))
    seq = LesInstance(
        CohInterval.exact(0, 0, 1),
        CohInterval.from_vector(adj.scaled(np1)),
        CohInterval.unknown(),
        label="twisted-ambient-euler",
    )
    res = propagate(seq).c
    out.append(_claim("les-euler-twist-forcing",
                      "twisted Euler sequence forces the restricted ambient tangent twist",
                      (res.is_forced_all(), res.lo),
                      (True, (np1 * adj.h0, 1, 0))))

    # the tangent sequence of F_3 without the vector-field-lifting bound
    # that `SurfaceContext.tangent` adds: a check of the calculus alone,
    # which leaves T_S an honest interval
    f3 = surfaces.hirzebruch(3)
    seq = LesInstance(
        CohInterval.from_vector(line_cohomology.coh(f3, f3.divisor(2, 3))),
        CohInterval.unknown(),
        CohInterval.from_vector(line_cohomology.coh(f3, f3.divisor(0, 2))),
        label="tangent-fibration-F3",
    )
    res = propagate(seq)
    again = propagate(res)
    out.append(_claim("les-honest-interval",
                      "tangent bundle of F_3 stays an interval with chi forced",
                      (res.b.lo, res.b.hi, res.b.chi), ((6, 0, 0), (8, 2, 0), 6)))
    out.append(_claim("les-idempotence", "propagating twice changes nothing",
                      (again.a, again.b, again.c) == (res.a, res.b, res.c), True))

    rng = random.Random(1789)
    cases = 0
    bad = []
    for s in (surfaces.hirzebruch(0), surfaces.hirzebruch(3), surfaces.projective_plane()):
        for _ in range(200):
            cases += 1
            x = line_cohomology.coh(s, _random_divisor(rng, s))
            y = line_cohomology.coh(s, _random_divisor(rng, s))
            total = x + y
            res = propagate(LesInstance(
                CohInterval.from_vector(x), CohInterval.unknown(), CohInterval.from_vector(y)
            ))
            ok = all(
                res.b.lo[i] <= total.as_tuple()[i]
                and (res.b.hi[i] is None or total.as_tuple()[i] <= res.b.hi[i])
                for i in range(3)
            ) and res.b.chi == total.chi
            # No connecting map can be nonzero when the staggered products
            # vanish, so the middle term must then be pinned to the sum.
            if x.h1 * y.h0 == 0 and x.h2 * y.h1 == 0:
                ok = ok and res.b.is_forced_all() and res.b.forced_values() == total.as_tuple()
            if not ok:
                bad.append((str(s), x.as_tuple(), y.as_tuple()))
    out.append(_mismatch_claim("les-split-additivity",
                               "split direct sums: chi forced, sum contained, pinned when unobstructed",
                               cases, bad))
    return out


GROUPS = (
    ("intersection theory", surface_claims),
    ("line-bundle cohomology", cohomology_claims),
    ("oracle agreement", oracle_claims),
    ("carpet families", carpet_claims),
    ("hilbert points", hilbert_claims),
    ("double covers", double_cover_claims),
    ("sequence calculus", exact_seq_claims),
)


def run_all() -> list[Claim]:
    claims: list[Claim] = []
    grid = CarpetGrid()
    for name, group in GROUPS:
        try:
            claims.extend(group(grid))
        except Exception as err:  # a corrupted computation must surface as FAIL
            claims.append(
                _claim(
                    f"{name.replace(' ', '-')}-error",
                    f"{name} checks ran to completion",
                    f"{type(err).__name__}: {err}",
                    "completed",
                )
            )
    return claims
