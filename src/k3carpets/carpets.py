"""Dimension reports for K3 double structures on P^2 and F_e.

A K3 carpet on a regular surface S is a double structure with conormal
bundle K_S; abstract nonsplit carpets are classified by P(H^1(T_S ⊗ K_S))
and the carpets embedded in P^N extending a fixed embedding of S by
P(H^0(N_{S/P^N} ⊗ K_S)).  This module assembles those dimensions, the
double-cover K3 test for |-2K_S|, and the Hilbert-scheme tangent report
for the carpet, entirely from the line-bundle cohomology modules and the
long-exact-sequence calculus.

One step is not derivable inside the calculus: on F_e the pushforward of
N_{S/P^N} ⊗ K_S to P^1 sits in a short exact sequence over the pushforward
of (O_S(1) ⊗ K_S)^(N+1) with quotient O_{P^1}, and that sequence is taken
as a declared input.  Reports carry an `assumed_splitting` flag wherever
it enters.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import line_cohomology as lc
from . import surfaces
from .exact_seq import CohInterval, InconsistencyError, LesInstance, chain, propagate
from .line_cohomology import CohVector


class InvalidGeometryError(ValueError):
    """The input describes no embedding, or no embedded carpet, to report on."""


@dataclass(frozen=True)
class EmbeddingData:
    """An embedding of S into P^N by a very ample class, N+1 >= h^0."""

    surface: surfaces.SurfaceModel
    polarization: surfaces.DivisorClass
    ambient_n: int

    def __post_init__(self):
        surfaces._check_on(self.surface, self.polarization)
        if not surfaces.is_very_ample(self.surface, self.polarization):
            raise InvalidGeometryError(
                f"polarization {self.polarization} on {self.surface} is not very ample"
            )
        h0 = lc.coh(self.surface, self.polarization).h0
        if self.ambient_n + 1 < h0:
            raise InvalidGeometryError(
                f"ambient dimension N = {self.ambient_n} too small: "
                f"N + 1 must be >= h0 = {h0}"
            )

    @classmethod
    def complete_series(
        cls,
        surface: surfaces.SurfaceModel,
        polarization: surfaces.DivisorClass,
        extra: int = 0,
    ) -> "EmbeddingData":
        """Embedding by the full linear series of the polarization, composed
        with a linear embedding into `extra` more ambient dimensions."""
        h0 = lc.coh(surface, polarization).h0
        return cls(surface, polarization, h0 - 1 + extra)

    @property
    def n_plus_1(self) -> int:
        return self.ambient_n + 1


@dataclass(frozen=True)
class CarpetReport:
    """Family dimensions of abstract and embedded K3 carpets on one surface."""

    embedding: EmbeddingData
    abstract_family_dim: int  # = h1(T_S ⊗ K_S)
    embedded_h0: int  # = h0(N_{S/P^N} ⊗ K_S)
    embedded_moduli_dim: int  # = embedded_h0 - 1
    exists_embedded: bool
    minimal_degree_case: bool
    assumed_splitting: bool


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
    linear series of its own very ample bundle (ambient dimension
    `hilbert_ambient_n`; the input embedding of S is echoed for context)."""

    embedding: EmbeddingData
    hilbert_ambient_n: int
    h0_normal_surface: int
    chi_normal_carpet: int
    expected_smooth_dim: int  # (N+1)^2 + 18 at N = hilbert_ambient_n
    h1_Kinv: int
    h1_K2inv: int
    h0_normal_carpet: tuple[int, int]
    h1_normal_carpet: tuple[int, int]
    smooth: bool
    assumed_splitting: bool


def abstract_carpet_dim(surface: surfaces.SurfaceModel) -> int:
    """Dimension h1(T_S ⊗ K_S) of the space classifying abstract carpets.

    Derived by exact-sequence propagation with line-bundle endpoints: on
    F_e from the fibration tangent sequence twisted by K, on P^2 from the
    twisted Euler sequence.  The result must come out forced.
    """
    if surface.is_plane:
        seq = LesInstance(
            CohInterval.from_vector(lc.coh(surface, surface.divisor(-3))),
            CohInterval.from_vector(lc.coh(surface, surface.divisor(-2)).scaled(3)),
            CohInterval.unknown(),
            names=("K", "L(-2)^3", "T⊗K"),
            label="euler-twist",
        )
        out = propagate(seq).c
    else:
        e = surface.e
        seq = LesInstance(
            CohInterval.from_vector(lc.coh(surface, surface.divisor(0, -2))),
            CohInterval.unknown(),
            CohInterval.from_vector(lc.coh(surface, surface.divisor(-2, -e))),
            names=("T_rel⊗K", "T⊗K", "T_base⊗K"),
            label="tangent-fibration-twist",
        )
        out = propagate(seq).b
    if not out.is_forced_all():
        raise InconsistencyError(
            f"tangent-twist cohomology not forced on {surface}: {out}; "
            "an endpoint computation is broken"
        )
    return out.forced_values()[1]


def _normal_twist_cohomology(
    surface: surfaces.SurfaceModel,
    polarization: surfaces.DivisorClass,
    n_plus_1: int,
) -> tuple[CohVector, bool]:
    """(h0, h1, h2) of N_{S/P^N} ⊗ K_S and whether the splitting input was used."""
    k = surfaces.canonical_class(surface)
    if surface.is_plane:
        d = polarization.degree
        seq = LesInstance(
            CohInterval.from_vector(lc.coh(surface, surface.divisor(-2)).scaled(3)),
            CohInterval.from_vector(
                lc.coh(surface, surface.divisor(d - 3)).scaled(n_plus_1)
            ),
            CohInterval.unknown(),
            names=("L(-2)^3", "L(d-3)^(N+1)", "N⊗K"),
            label="normal-bundle-twist",
        )
        out = propagate(seq).c
        used_splitting = False
    else:
        adjoint = lc.coh(surface, polarization + k)
        seq = LesInstance(
            CohInterval.from_vector(adjoint.scaled(n_plus_1)),
            CohInterval((0, 0, 0), (None, None, 0)),
            CohInterval.exact(1, 0, 0),
            names=("push_adjoint^(N+1)", "push_N⊗K", "O_base"),
            label="normal-twist-pushforward",
        )
        out = propagate(seq).b
        used_splitting = True
    if not out.is_forced_all():
        raise InconsistencyError(
            f"twisted normal-bundle cohomology not forced for {polarization} "
            f"on {surface}: {out}"
        )
    vec = CohVector(*out.forced_values())
    if vec.h1 != 0 or vec.h2 != 0:
        raise InconsistencyError(
            f"h1/h2 of the twisted normal bundle should vanish, got {vec.as_tuple()}"
        )
    return vec, used_splitting


def embedded_carpet_h0(embedding: EmbeddingData) -> int:
    """h0(N_{S/P^N} ⊗ K_S): the embedded carpets form an open subset of the
    projectivization of this space."""
    vec, _ = _normal_twist_cohomology(
        embedding.surface, embedding.polarization, embedding.n_plus_1
    )
    return vec.h0


def carpet_report(embedding: EmbeddingData, abstract_dim: int | None = None) -> CarpetReport:
    """`abstract_dim`, if given, is the surface's `abstract_carpet_dim`."""
    surface = embedding.surface
    vec, used_splitting = _normal_twist_cohomology(
        surface, embedding.polarization, embedding.n_plus_1
    )
    minimal_degree = (not surface.is_plane) and embedding.polarization.a == 1
    report = CarpetReport(
        embedding=embedding,
        abstract_family_dim=abstract_carpet_dim(surface) if abstract_dim is None else abstract_dim,
        embedded_h0=vec.h0,
        embedded_moduli_dim=vec.h0 - 1,
        exists_embedded=vec.h0 > 0,
        minimal_degree_case=minimal_degree,
        assumed_splitting=used_splitting,
    )
    if report.minimal_degree_case and report.embedded_moduli_dim != 0:
        raise InconsistencyError(
            f"minimal-degree embedding should carry a unique carpet, got "
            f"h0 = {report.embedded_h0}"
        )
    return report


def double_cover_k3_check(surface: surfaces.SurfaceModel) -> DoubleCoverReport:
    """K3 test for the double cover branched along a smooth member of |-2K_S|.

    The cover's invariants come from the trace decomposition of its
    structure sheaf as O_S + K_S; triviality of its canonical bundle is
    forced by the branch formula and recorded rather than computed.
    """
    k = surfaces.canonical_class(surface)
    minus_2k = -2 * k
    branch_bpf = surfaces.is_base_point_free(surface, minus_2k)
    o_coh = lc.coh(surface, 0 * k)
    k_coh = lc.coh(surface, k)
    cover_chi = o_coh.chi + k_coh.chi
    cover_h1 = o_coh.h1 + k_coh.h1

    seq = LesInstance(
        CohInterval.from_vector(o_coh),
        CohInterval.from_vector(lc.coh(surface, minus_2k)),
        CohInterval.unknown(),
        names=("O", "-2K", "-2K|_C"),
        label="branch-curve-restriction",
    )
    restricted = propagate(seq).c
    if not restricted.is_forced(1):
        raise InconsistencyError(
            f"h1 of the branch restriction not forced on {surface}: {restricted}"
        )
    h1_n_pi = restricted.lo[1]

    return DoubleCoverReport(
        surface=surface,
        branch_bpf=branch_bpf,
        cover_chi=cover_chi,
        cover_h1=cover_h1,
        cover_K_trivial=True,
        h1_N_pi=h1_n_pi,
        is_k3_cover=branch_bpf and cover_h1 == 0 and cover_chi == 2,
    )


def _hilbert_chain(
    surface: surfaces.SurfaceModel,
    polarization: surfaces.DivisorClass,
    n_plus_1: int,
    normal_twist: CohVector,
    kinv: CohVector,
    k2inv: CohVector,
) -> dict[str, CohInterval]:
    """The sequences tying the carpet normal bundle to line-bundle endpoints.

    H denotes the sheaf Hom(I_carpet/I_S^2, O_S); Nc the normal bundle of
    the embedded carpet, restricted to S and twisted by O resp. K; `kinv`
    and `k2inv` are the cohomology of K^-1 and K^-2.
    """
    exact = CohInterval.from_vector
    o_iv = exact(lc.coh(surface, 0 * surfaces.canonical_class(surface)))
    l_sum = exact(lc.coh(surface, polarization).scaled(n_plus_1))

    seqs = [
        LesInstance(
            o_iv, l_sum, CohInterval.unknown(),
            names=("O", "L^(N+1)", "T_amb"), label="ambient-euler",
        ),
        LesInstance(
            CohInterval.unknown(), CohInterval.unknown(), CohInterval.unknown(),
            names=("T_S", "T_amb", "N_S"), label="normal-bundle",
        ),
        LesInstance(
            exact(kinv), CohInterval.unknown(), CohInterval.unknown(),
            names=("K_inv", "N_S", "H"), label="conormal-quotient",
        ),
        LesInstance(
            o_iv, exact(normal_twist), CohInterval.unknown(),
            names=("O", "N⊗K", "H⊗K"), label="conormal-quotient-twist",
        ),
        LesInstance(
            CohInterval.unknown(), CohInterval.unknown(), exact(k2inv),
            names=("H", "Nc_O", "K_inv2"), label="carpet-normal-restriction",
        ),
        LesInstance(
            CohInterval.unknown(), CohInterval.unknown(), exact(kinv),
            names=("H⊗K", "Nc_K", "K_inv"), label="carpet-normal-restriction-twist",
        ),
        LesInstance(
            CohInterval.unknown(), CohInterval.unknown(), CohInterval.unknown(),
            names=("Nc_K", "Nc", "Nc_O"), label="carpet-normal-filtration",
        ),
    ]
    if surface.is_plane:
        seqs.insert(
            0,
            LesInstance(
                o_iv,
                exact(lc.coh(surface, surface.divisor(1)).scaled(3)),
                CohInterval.unknown(),
                names=("O", "L(1)^3", "T_S"),
                label="surface-euler",
            ),
        )
    else:
        e = surface.e
        seqs.insert(
            0,
            LesInstance(
                exact(lc.coh(surface, surface.divisor(2, e))),
                CohInterval.unknown(),
                exact(lc.coh(surface, surface.divisor(0, 2))),
                names=("T_rel", "T_S", "T_base"),
                label="tangent-fibration",
            ),
        )
    return chain(seqs)


def hilbert_report(embedding: EmbeddingData) -> HilbertReport:
    """Tangent-space report for the carpet's Hilbert point.

    The Hilbert question concerns the carpet embedded by the complete
    linear series of its own very ample bundle; restricting that series to
    S splits off h^0 of the adjoint class, so the relevant ambient
    dimension is N + 1 = h^0(L) + h^0(L + K_S) and is recomputed here from
    the polarization (the input embedding's N only parametrizes where the
    carpet-counting of `carpet_report` happens).
    """
    surface = embedding.surface
    pol = embedding.polarization
    k = surfaces.canonical_class(surface)

    n_plus_1 = lc.coh(surface, pol).h0 + lc.coh(surface, pol + k).h0
    normal_twist, used_splitting = _normal_twist_cohomology(surface, pol, n_plus_1)
    if normal_twist.h0 == 0:
        raise InvalidGeometryError(
            f"no embedded carpet exists for {pol} on {surface} "
            "(the twisted normal bundle has no sections)"
        )

    kinv = lc.coh(surface, -1 * k)
    k2inv = lc.coh(surface, -2 * k)
    table = _hilbert_chain(surface, pol, n_plus_1, normal_twist, kinv, k2inv)

    n_s = table["N_S"]
    if not n_s.is_forced_all():
        raise InconsistencyError(f"surface normal-bundle cohomology not forced: {n_s}")
    if n_s.forced_values()[1:] != (0, 0):
        raise InconsistencyError(
            f"h1/h2 of the surface normal bundle should vanish, got {n_s}"
        )
    h0_n_s = n_s.forced_values()[0]

    # Cross-checks of every forced intermediate against its closed form.
    hom = table["H"]
    expected_hom = (h0_n_s - kinv.h0 + kinv.h1, 0, 0)
    if not hom.is_forced_all() or hom.forced_values() != expected_hom:
        raise InconsistencyError(f"Hom-sheaf cohomology {hom} != {expected_hom}")
    hom_k = table["H⊗K"]
    if not hom_k.is_forced_all() or hom_k.forced_values() != (normal_twist.h0 - 1, 0, 0):
        raise InconsistencyError(f"twisted Hom-sheaf cohomology {hom_k} is wrong")
    nc_o = table["Nc_O"]
    if not nc_o.is_forced_all() or nc_o.forced_values() != (
        expected_hom[0] + k2inv.h0, k2inv.h1, 0,
    ):
        raise InconsistencyError(f"carpet-normal restriction {nc_o} is wrong")
    nc_k = table["Nc_K"]
    if not nc_k.is_forced_all() or nc_k.forced_values() != (
        normal_twist.h0 - 1 + kinv.h0, kinv.h1, 0,
    ):
        raise InconsistencyError(f"twisted carpet-normal restriction {nc_k} is wrong")

    nc = table["Nc"]
    expected = n_plus_1 * n_plus_1 + 18
    if nc.chi != expected:
        raise InconsistencyError(
            f"chi of the carpet normal bundle is {nc.chi}, expected {expected}"
        )
    if nc.hi[2] != 0:
        raise InconsistencyError(f"h2 of the carpet normal bundle not forced to 0: {nc}")

    smooth = kinv.h1 == 0 and k2inv.h1 == 0
    report = HilbertReport(
        embedding=embedding,
        hilbert_ambient_n=n_plus_1 - 1,
        h0_normal_surface=h0_n_s,
        chi_normal_carpet=nc.chi,
        expected_smooth_dim=expected,
        h1_Kinv=kinv.h1,
        h1_K2inv=k2inv.h1,
        h0_normal_carpet=(nc.lo[0], nc.hi[0]),
        h1_normal_carpet=(nc.lo[1], nc.hi[1]),
        smooth=smooth,
        assumed_splitting=used_splitting,
    )
    if report.smooth and report.h1_normal_carpet != (0, 0):
        raise InconsistencyError(
            f"smooth verdict but h1 not forced to zero: {report.h1_normal_carpet}"
        )
    if report.smooth and report.h0_normal_carpet != (expected, expected):
        raise InconsistencyError(
            f"smooth verdict but h0 {report.h0_normal_carpet} != {expected}"
        )
    return report
