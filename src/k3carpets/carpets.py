"""Dimension reports for K3 double structures on P^2 and F_e.

A K3 carpet on a regular surface S is a double structure with conormal
bundle K_S; abstract nonsplit carpets are classified by P(H^1(T_S ⊗ K_S))
and the carpets embedded in P^N extending a fixed embedding of S by
P(H^0(N_{S/P^N} ⊗ K_S)).  This module assembles those dimensions, the
double-cover K3 test for |-2K_S|, and the Hilbert-scheme tangent report
for the carpet, entirely from the line-bundle cohomology modules and the
long-exact-sequence calculus.  The Hilbert verdict is read off the
chain's h^1 of the carpet normal bundle.

The data sit on three levels, one object each, built by the caller for
one command run:
- `SurfaceContext`, one per surface: K, `ends`, the cohomology of each
  named line-bundle term the sequences start from (O, K, K^-1, K^-2 and
  the kind's own), computed once when the context is built, `terms`, the
  surface's own sequences chained once off `ends`, which hold h^*(T_S)
  (`tangent`), h^*(E) of the Atiyah extension (`atiyah`) and the abstract
  carpet dimension (`abstract_dim`), and the double-cover K3 test.
- `PolarizationData`, one per very ample class L: coh(L), coh(L + K_S),
  whether L embeds S with minimal degree, and the Hilbert report, which
  every embedding by L shares.
- `EmbeddingData`, one per embedding into P^N: a `PolarizationData` and N,
  with only N + 1 >= h^0(L) checked there.
The surface's terms, its double-cover test and everything on a
`PolarizationData` are computed when first read and then held by their
object (`functools.cached_property`): a query computes only what it
reads, and a computation that raised is run again by the next reader.
`hilbert_report` takes a `PolarizationData`, because the Hilbert point of
the carpet embedded by the complete linear series depends on L alone.
No module keeps a cache, so every run sees the modules as they are.

Each sequence is data: a label, three term names and its rank bounds;
the known line-bundle endpoints are looked up by name, so each is written
once per surface or per report.  Each derived term is checked once, where
it is computed: `_forced` raises `InconsistencyError` unless the term is
pinned and equal to its closed form.  Per surface one chain runs the
tangent sequence (the Euler sequence on P^2, that of the ruling on F_e),
its K_S-twist, and the Atiyah extension 0 -> K_S -> E -> T_S ⊗ K_S -> 0
of L (Atiyah, Trans. AMS 1957).  Two named rank bounds pin what exactness
leaves open.  On F_e every vector field of P^1 lifts, which pins T_S.  The
Atiyah extension, the K_S-twisted Euler sequence pulled back along T_S,
has a nonzero connecting map, the Serre pairing with c_1(L); that pins
E, so N_{S/P^N} ⊗ K_S is (L + K_S)^(N+1) / E.  On P^2, E is the twisted
Euler sequence's O(-2)^3, against which the chain checks the pairing.
The Hilbert report starts from the pinned T_S and chains the same seven
sequences on P^2 and F_e.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import line_cohomology as lc
from . import surfaces
from .exact_seq import CohInterval, InconsistencyError, LesInstance, RankBound, chain, propagate
from .line_cohomology import CohVector


class InvalidGeometryError(ValueError):
    """The input describes no embedding, or no embedded carpet, to report on."""


# The errors a computation can end in, which a sweep row reports as its own.
COMPUTATION_ERRORS = (ValueError, RuntimeError, ArithmeticError)
ECHO_CHARS = 32


def echo(token: str, quote: bool = True) -> str:
    """`token` as a message shows it: quoted unless `quote` is false, and
    past ECHO_CHARS characters cut to a quoted prefix and its length."""
    if len(token) > ECHO_CHARS:
        return f"{token[:ECHO_CHARS]!r}... ({len(token)} characters)"
    return repr(token) if quote else token


@dataclass(frozen=True, eq=False)  # held by identity, never compared
class SurfaceContext:
    """What every polarization of one surface reads.  `of` computes K and
    `ends`, the cohomology of each named line-bundle term the sequences
    start from: O, K, K^-1, K^-2 and those of `_SURFACE_ENDS`.  The
    surface's own sequences (`terms`) and its double-cover test are
    computed when first read."""

    surface: surfaces.SurfaceModel
    canonical: surfaces.DivisorClass
    ends: dict[str, CohInterval]

    @classmethod
    def of(cls, surface: surfaces.SurfaceModel) -> "SurfaceContext":
        k = surfaces.canonical_class(surface)
        named = {"O": (0 * k, 1), "K": (k, 1), "K_inv": (-1 * k, 1), "K_inv2": (-2 * k, 1),
                 **_SURFACE_ENDS[surface.kind](surface)}
        return cls(surface, k, {name: _exact(lc.coh(surface, divisor).scaled(copies))
                                for name, (divisor, copies) in named.items()})

    @cached_property
    def terms(self) -> dict[str, CohInterval]:
        """Every term of the surface's sequences, by name, after one chain
        of them; T_S, T⊗K and E must be pinned to their closed forms."""
        table = chain([_sequence(label, names, self.ends, ranks)
                       for label, names, ranks in _SURFACE_SEQUENCES[self.surface.kind]])
        for name, (what, expected) in _closed_forms(self.surface).items():
            _forced(table[name], what, expected)
        return table

    @property
    def tangent(self) -> CohInterval:
        """h^*(T_S)."""
        return self.terms["T_S"]

    @property
    def atiyah(self) -> CohInterval:
        """h^*(E) of the Atiyah extension, the same for every very ample L."""
        return self.terms["E"]

    @property
    def abstract_dim(self) -> int:
        """Dimension h1(T_S ⊗ K_S) of the space classifying abstract carpets."""
        return self.terms["T⊗K"].lo[1]

    @cached_property
    def double_cover(self) -> "DoubleCoverReport":
        """K3 test for the double cover branched along a smooth member of |-2K_S|.

        The cover's invariants come from the trace decomposition of its
        structure sheaf as O_S + K_S; triviality of its canonical bundle is
        forced by the branch formula and recorded rather than computed.
        """
        surface, o, k = self.surface, self.ends["O"], self.ends["K"]
        branch_bpf = surfaces.is_base_point_free(surface, -2 * self.canonical)
        cover_chi, cover_h1 = o.chi + k.chi, o.lo[1] + k.lo[1]
        restricted = propagate(_sequence(
            "branch-curve-restriction", ("O", "K_inv2", "-2K|_C"), self.ends)).c
        if not restricted.is_forced(1):
            raise InconsistencyError(
                f"h1 of the branch restriction not forced on {surface}: {restricted}"
            )
        return DoubleCoverReport(
            surface=surface,
            branch_bpf=branch_bpf,
            cover_chi=cover_chi,
            cover_h1=cover_h1,
            cover_K_trivial=True,
            h1_N_pi=restricted.lo[1],
            is_k3_cover=branch_bpf and cover_h1 == 0 and cover_chi == 2,
        )


@dataclass(frozen=True, eq=False)  # held by identity, never compared
class PolarizationData:
    """A very ample class L on the context's surface.  Its data are
    computed when first read: coh(L), the adjoint coh(L + K_S), whether L
    embeds S with minimal degree (degree = codimension + 1, iff
    L^2 = h^0(L) - 2), and the Hilbert report of the carpet it embeds."""

    context: SurfaceContext
    divisor: surfaces.DivisorClass

    def __post_init__(self):
        surface = self.context.surface
        surfaces._check_on(surface, self.divisor)
        if not surfaces.is_very_ample(surface, self.divisor):
            raise InvalidGeometryError(f"polarization {echo(str(self.divisor), quote=False)} on "
                                       f"{echo(str(surface), quote=False)} is not very ample")

    @cached_property
    def coh(self) -> CohVector:
        return lc.coh(self.context.surface, self.divisor)

    @cached_property
    def adjoint(self) -> CohVector:
        return lc.coh(self.context.surface, self.divisor + self.context.canonical)

    @cached_property
    def minimal_degree(self) -> bool:
        surface = self.context.surface
        return surfaces.intersect(surface, self.divisor, self.divisor) == self.coh.h0 - 2

    @cached_property
    def hilbert(self) -> "HilbertReport":
        """The report does not depend on N, so every embedding by L shares it."""
        return hilbert_report(self)

    def complete_series(self, extra: int = 0) -> "EmbeddingData":
        """Embedding by the full linear series, composed with a linear
        embedding into `extra` more ambient dimensions."""
        return EmbeddingData(self, self.coh.h0 - 1 + extra)


@dataclass(frozen=True)
class EmbeddingData:
    """An embedding of S into P^N by the very ample class of `line`;
    only N + 1 >= h^0(L) is checked here."""

    line: PolarizationData
    ambient_n: int

    def __post_init__(self):
        if not isinstance(self.ambient_n, int) or isinstance(self.ambient_n, bool):
            raise ValueError(f"ambient dimension N must be an integer, got {self.ambient_n!r}")
        if self.ambient_n + 1 < self.h0:
            raise InvalidGeometryError(
                f"ambient dimension N = {echo(str(self.ambient_n), quote=False)} too small: "
                f"N + 1 must be >= h0 = {echo(str(self.h0), quote=False)}"
            )

    @property
    def surface(self) -> surfaces.SurfaceModel:
        return self.line.context.surface

    @property
    def polarization(self) -> surfaces.DivisorClass:
        return self.line.divisor

    @property
    def h0(self) -> int:
        """h^0(L), computed once by the polarization."""
        return self.line.coh.h0

    @property
    def n_plus_1(self) -> int:
        return self.ambient_n + 1


@dataclass(frozen=True)
class CarpetReport:
    """The K3 carpets embedded along one embedding of S; the abstract carpets,
    a fact about S alone, are counted by `abstract_carpet_dim`."""

    embedding: EmbeddingData
    embedded_h0: int  # = h0(N_{S/P^N} ⊗ K_S)
    embedded_moduli_dim: int  # = embedded_h0 - 1
    exists_embedded: bool
    minimal_degree_case: bool


@dataclass(frozen=True)
class DoubleCoverReport:
    """Invariants of the double cover of S branched along a curve in |-2K_S|."""

    surface: surfaces.SurfaceModel
    branch_bpf: bool
    cover_chi: int
    cover_h1: int
    cover_K_trivial: bool  # recorded from the branch formula, not computed
    h1_N_pi: int  # h1 of the restriction of -2K_S to the branch curve
    is_k3_cover: bool


@dataclass(frozen=True)
class HilbertReport:
    """Hilbert-scheme tangent data of the carpet embedded by the complete
    linear series of its own very ample bundle, in ambient dimension
    `hilbert_ambient_n`; a fact about the polarization alone."""

    hilbert_ambient_n: int
    h0_normal_surface: int
    chi_normal_carpet: int
    expected_smooth_dim: int  # (N+1)^2 + 18 at N = hilbert_ambient_n
    h1_Kinv: int
    h1_K2inv: int
    h0_normal_carpet: tuple[int, int]
    h1_normal_carpet: tuple[int, int]
    smooth: bool


_UNKNOWN = CohInterval.unknown()
# on F_e every vector field of the base lifts: H^0(T_base) -> H^1(T_rel) is zero
# (Aut(F_e) -> Aut(P^1) is onto; Kodaira and Spencer, Ann. of Math. 1958);
# without it the calculus leaves T_S the interval [(6, 0, 0), (e + 5, e - 1, 0)]
_VECTOR_FIELD_LIFTING = (RankBound(3, 0, 0, "vector-field lifting"),)
# c_1(L) != 0 pairs perfectly with H^1(T_S ⊗ K): H^1(T_S ⊗ K) -> H^2(K) is onto
_ATIYAH_PAIRING = (RankBound(6, 1, 1, "Atiyah pairing"),)
_exact = CohInterval.from_vector

# The sequences each kind of surface derives T_S, T_S ⊗ K and E from.
_SURFACE_SEQUENCES = {
    surfaces.SurfaceKind.PROJECTIVE_PLANE: (
        ("surface-euler", ("O", "L(1)^3", "T_S"), ()),
        ("euler-twist", ("K", "E", "T⊗K"), ()),
        ("atiyah-extension", ("K", "E", "T⊗K"), _ATIYAH_PAIRING),
    ),
    surfaces.SurfaceKind.HIRZEBRUCH: (
        ("tangent-fibration", ("T_rel", "T_S", "T_base"), _VECTOR_FIELD_LIFTING),
        ("tangent-fibration-twist", ("T_rel⊗K", "T⊗K", "T_base⊗K"), ()),
        ("atiyah-extension", ("K", "E", "T⊗K"), _ATIYAH_PAIRING),
    ),
}
# Their line-bundle terms beyond O, K, K^-1 and K^-2, each a divisor and a copy
# count; `SurfaceContext.of` computes the cohomology of all of them once.
_SURFACE_ENDS = {
    surfaces.SurfaceKind.PROJECTIVE_PLANE: lambda s: {
        "L(1)^3": (s.divisor(1), 3), "E": (s.divisor(-2), 3)},
    surfaces.SurfaceKind.HIRZEBRUCH: lambda s: {
        "T_rel": (s.divisor(2, s.e), 1), "T_base": (s.divisor(0, 2), 1),
        "T_rel⊗K": (s.divisor(0, -2), 1), "T_base⊗K": (s.divisor(-2, -s.e), 1)},
}


def _closed_forms(surface: surfaces.SurfaceModel) -> dict[str, tuple[str, tuple[int, int, int]]]:
    """What each term the surface chain derives is called in messages and
    must equal: h^*(T_S) with h^0 = dim Aut(S); h^*(T_S ⊗ K) = (0, rho, 0)
    by Serre duality, rho the Picard rank; and E, one less in h^1."""
    rho, e = surface.picard_rank, surface.e
    tangent = (8, 0, 0) if surface.is_plane else (max(e + 5, 6), max(e - 1, 0), 0)
    return {"T_S": ("tangent-bundle cohomology", tangent),
            "T⊗K": ("tangent-twist cohomology", (0, rho, 0)),
            "E": ("Atiyah extension", (0, rho - 1, 0))}


def _sequence(
    label: str, names: tuple[str, str, str], known: dict[str, CohInterval],
    ranks: tuple[RankBound, ...] = (),
) -> LesInstance:
    """The sequence 0 -> A -> B -> C -> 0 over the named terms, each known
    from `known` or else unknown, with the bounds `ranks` on single ranks."""
    return LesInstance(*(known.get(n, _UNKNOWN) for n in names), names, label, ranks)


def _forced(iv: CohInterval, what: str, expected: tuple[int, int, int]) -> tuple[int, int, int]:
    """The pinned (h0, h1, h2) of a derived term, which must equal its closed
    form `expected`; anything else means a broken endpoint."""
    if not iv.is_forced_all():
        raise InconsistencyError(f"{what} not forced: {iv}")
    if iv.lo != expected:
        raise InconsistencyError(f"{what} is {iv.lo}, expected {expected}")
    return iv.lo


def abstract_carpet_dim(surface: surfaces.SurfaceModel) -> int:
    """Dimension h1(T_S ⊗ K_S) of the space classifying abstract carpets."""
    return SurfaceContext.of(surface).abstract_dim


def _normal_twist_cohomology(line: PolarizationData, n_plus_1: int) -> CohVector:
    """(h0, h1, h2) of N_{S/P^N} ⊗ K_S, the quotient of (L + K_S)^(N+1) by E."""
    out = propagate(_sequence("normal-bundle-twist", ("E", "(L+K)^(N+1)", "N⊗K"), {
        "E": line.context.atiyah, "(L+K)^(N+1)": _exact(line.adjoint.scaled(n_plus_1)),
    })).c
    return CohVector(*_forced(out, "twisted normal-bundle cohomology", (out.lo[0], 0, 0)))


def embedded_carpet_h0(embedding: EmbeddingData) -> int:
    """h0(N_{S/P^N} ⊗ K_S): the embedded carpets form an open subset of the
    projectivization of this space."""
    return _normal_twist_cohomology(embedding.line, embedding.n_plus_1).h0


def carpet_report(embedding: EmbeddingData) -> CarpetReport:
    """The embedded carpets of one embedding."""
    line = embedding.line
    h0 = embedded_carpet_h0(embedding)
    if line.minimal_degree and h0 != (0 if embedding.surface.is_plane else 1):
        raise InconsistencyError(
            f"minimal-degree embedding should carry a unique carpet on F_e and "
            f"none on P^2, got h0 = {h0}"
        )
    return CarpetReport(
        embedding=embedding,
        embedded_h0=h0,
        embedded_moduli_dim=h0 - 1,
        exists_embedded=h0 > 0,
        minimal_degree_case=line.minimal_degree,
    )


def double_cover_k3_check(surface: surfaces.SurfaceModel) -> DoubleCoverReport:
    """K3 test for the double cover branched along a smooth member of |-2K_S|."""
    return SurfaceContext.of(surface).double_cover


# The sequences tying the carpet normal bundle to line-bundle endpoints and
# the surface's T_S.  H is the sheaf
# Hom(I_carpet/I_S^2, O_S); Nc the normal bundle of the embedded carpet, and
# Nc_O, Nc_K its restriction to S twisted by O resp. K; K_inv and K_inv2 are
# K^-1 and K^-2.
_HILBERT_SEQUENCES = (
    ("ambient-euler", ("O", "L^(N+1)", "T_amb")),
    ("normal-bundle", ("T_S", "T_amb", "N_S")),
    ("conormal-quotient", ("K_inv", "N_S", "H")),
    ("conormal-quotient-twist", ("O", "N⊗K", "H⊗K")),
    ("carpet-normal-restriction", ("H", "Nc_O", "K_inv2")),
    ("carpet-normal-restriction-twist", ("H⊗K", "Nc_K", "K_inv")),
    ("carpet-normal-filtration", ("Nc_K", "Nc", "Nc_O")),
)


def hilbert_report(line: PolarizationData) -> HilbertReport:
    """Tangent-space report for the carpet's Hilbert point.

    The Hilbert question concerns the carpet embedded by the complete
    linear series of its own very ample bundle; restricting that series to
    S splits off h^0 of the adjoint class, so the relevant ambient
    dimension is N + 1 = h^0(L) + h^0(L + K_S), read from the polarization
    alone: an embedding's N only parametrizes the carpet count of
    `carpet_report`.
    """
    context = line.context
    n_plus_1 = line.coh.h0 + line.adjoint.h0
    normal_twist = _normal_twist_cohomology(line, n_plus_1)
    if normal_twist.h0 == 0:
        raise InvalidGeometryError(
            f"no embedded carpet exists for {line.divisor} on {context.surface} "
            "(the twisted normal bundle has no sections)"
        )

    h0_kinv, h1_kinv, _ = context.ends["K_inv"].lo
    h0_k2inv, h1_k2inv, _ = context.ends["K_inv2"].lo
    known = {**context.ends, "T_S": context.tangent,
             "L^(N+1)": _exact(line.coh.scaled(n_plus_1)), "N⊗K": _exact(normal_twist)}
    table = chain([_sequence(label, names, known) for label, names in _HILBERT_SEQUENCES])

    # every forced intermediate is checked against its closed form
    n_s = table["N_S"]
    h0_n_s = _forced(n_s, "surface normal-bundle cohomology", (n_s.lo[0], 0, 0))[0]
    h0_hom = h0_n_s - h0_kinv + h1_kinv
    _forced(table["H"], "Hom-sheaf cohomology", (h0_hom, 0, 0))
    _forced(table["H⊗K"], "twisted Hom-sheaf cohomology", (normal_twist.h0 - 1, 0, 0))
    _forced(table["Nc_O"], "carpet-normal restriction", (h0_hom + h0_k2inv, h1_k2inv, 0))
    _forced(table["Nc_K"], "twisted carpet-normal restriction",
            (normal_twist.h0 - 1 + h0_kinv, h1_kinv, 0))

    nc = table["Nc"]
    expected = n_plus_1 * n_plus_1 + 18
    if nc.chi != expected:
        raise InconsistencyError(
            f"chi of the carpet normal bundle is {nc.chi}, expected {expected}"
        )
    if nc.hi[2] != 0:
        raise InconsistencyError(f"h2 of the carpet normal bundle not forced to 0: {nc}")

    # the chain decides the verdict, smooth iff h1 = 0 and singular iff
    # h1 >= 1; the closed form h1(K^-1) = h1(K^-2) = 0 is its cross-check
    smooth = nc.hi[1] == 0
    if not smooth and nc.lo[1] == 0:
        raise InconsistencyError(f"h1 of the carpet normal bundle decides no verdict: {nc}")
    if smooth != (h1_kinv == 0 and h1_k2inv == 0):
        raise InconsistencyError(
            f"chain verdict {'smooth' if smooth else 'singular'} disagrees with "
            f"h1(K^-1) = {h1_kinv}, h1(K^-2) = {h1_k2inv}"
        )
    if smooth and (nc.lo[0], nc.hi[0]) != (expected, expected):
        raise InconsistencyError(
            f"smooth verdict but h0 {(nc.lo[0], nc.hi[0])} != {expected}"
        )

    return HilbertReport(
        hilbert_ambient_n=n_plus_1 - 1,
        h0_normal_surface=h0_n_s,
        chi_normal_carpet=nc.chi,
        expected_smooth_dim=expected,
        h1_Kinv=h1_kinv,
        h1_K2inv=h1_k2inv,
        h0_normal_carpet=(nc.lo[0], nc.hi[0]),
        h1_normal_carpet=(nc.lo[1], nc.hi[1]),
        smooth=smooth,
    )
