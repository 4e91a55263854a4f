"""Picard-lattice arithmetic for P^2 and the Hirzebruch surfaces F_e.

Conventions.  On F_e = P(O + O(-e)) -> P^1 (e >= 0) the Picard group is
free on the section class C0 (with C0^2 = -e) and the fiber class f; a
divisor class is stored as the integer pair (a, b) meaning a*C0 + b*f.
On P^2 a class is its degree d.  The intersection form is

    (a1*C0 + b1*f) . (a2*C0 + b2*f) = a1*b2 + a2*b1 - e*a1*a2,
    d1 . d2 = d1*d2  on P^2,

forced by C0^2 = -e, C0.f = 1, f^2 = 0.  The canonical class is
-2*C0 - (e+2)*f on F_e and -3 on P^2; both surfaces are regular and
rational, so chi(O) = 1.  All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class SurfaceMismatchError(ValueError):
    """A divisor class was used on a surface it does not live on."""


class SurfaceKind(enum.Enum):
    PROJECTIVE_PLANE = "P2"
    HIRZEBRUCH = "F"


@dataclass(frozen=True)
class SurfaceModel:
    """P^2 or F_e; `e` is meaningful only for the Hirzebruch kind."""

    kind: SurfaceKind
    e: int = 0

    def __post_init__(self):
        if not isinstance(self.e, int) or isinstance(self.e, bool):
            raise ValueError(f"e must be an integer, got {self.e!r}")
        if self.e < 0:
            raise ValueError(f"Hirzebruch parameter e must be >= 0, got {self.e}")
        if self.kind is SurfaceKind.PROJECTIVE_PLANE and self.e != 0:
            raise ValueError("P^2 carries no Hirzebruch parameter")

    @property
    def picard_rank(self) -> int:
        return 1 if self.kind is SurfaceKind.PROJECTIVE_PLANE else 2

    @property
    def is_plane(self) -> bool:
        return self.kind is SurfaceKind.PROJECTIVE_PLANE

    def divisor(self, *coeffs: int) -> "DivisorClass":
        return DivisorClass(self, tuple(coeffs))

    def __str__(self) -> str:
        return "P2" if self.is_plane else f"F{self.e}"


def projective_plane() -> SurfaceModel:
    return SurfaceModel(SurfaceKind.PROJECTIVE_PLANE)


def hirzebruch(e: int) -> SurfaceModel:
    return SurfaceModel(SurfaceKind.HIRZEBRUCH, e)


@dataclass(frozen=True)
class DivisorClass:
    """Element of the Picard lattice, stored as a raw integer vector."""

    surface: SurfaceModel
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.surface.picard_rank:
            raise SurfaceMismatchError(
                f"{self.surface} has Picard rank {self.surface.picard_rank}, "
                f"got coefficient vector {self.coeffs}"
            )
        for c in self.coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"divisor coefficients must be integers, got {c!r}")

    @property
    def degree(self) -> int:
        if not self.surface.is_plane:
            raise SurfaceMismatchError("degree is defined on P^2 classes only")
        return self.coeffs[0]

    def _check_same_surface(self, other: "DivisorClass") -> None:
        if self.surface != other.surface:
            raise SurfaceMismatchError(
                f"classes live on different surfaces: {self.surface} vs {other.surface}"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same_surface(other)
        return DivisorClass(
            self.surface, tuple(x + y for x, y in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same_surface(other)
        return DivisorClass(
            self.surface, tuple(x - y for x, y in zip(self.coeffs, other.coeffs))
        )

    def __rmul__(self, n: int) -> "DivisorClass":
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"divisor classes scale by integers only, got {n!r}")
        return DivisorClass(self.surface, tuple(n * x for x in self.coeffs))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs)


def _check_on(surface: SurfaceModel, *divisors: DivisorClass) -> None:
    for d in divisors:
        if d.surface != surface:
            raise SurfaceMismatchError(
                f"divisor {d} lives on {d.surface}, not on {surface}"
            )


def intersect(surface: SurfaceModel, d1: DivisorClass, d2: DivisorClass) -> int:
    """Intersection number of two divisor classes (symmetric, bilinear)."""
    _check_on(surface, d1, d2)
    if surface.is_plane:
        return d1.coeffs[0] * d2.coeffs[0]
    a1, b1 = d1.coeffs
    a2, b2 = d2.coeffs
    return a1 * b2 + a2 * b1 - surface.e * a1 * a2


def canonical_class(surface: SurfaceModel) -> DivisorClass:
    """-2*C0 - (e+2)*f on F_e; -3 on P^2."""
    if surface.is_plane:
        return surface.divisor(-3)
    return surface.divisor(-2, -(surface.e + 2))


def is_very_ample(surface: SurfaceModel, divisor: DivisorClass) -> bool:
    """On F_e: a >= 1 and b >= a*e + 1.  On P^2: d >= 1.

    Classes with a <= 0 are never very ample (they are fiber-supported or
    trivial in the ruling direction), so the a >= 1 clause is required.
    """
    _check_on(surface, divisor)
    if surface.is_plane:
        return divisor.degree >= 1
    a, b = divisor.coeffs
    return a >= 1 and b >= a * surface.e + 1


def is_base_point_free(surface: SurfaceModel, divisor: DivisorClass) -> bool:
    """On F_e: a >= 0 and b >= a*e.  On P^2: d >= 0."""
    _check_on(surface, divisor)
    if surface.is_plane:
        return divisor.degree >= 0
    a, b = divisor.coeffs
    return a >= 0 and b >= a * surface.e


def riemann_roch_chi(surface: SurfaceModel, divisor: DivisorClass) -> int:
    """chi(O(D)) = 1 + D.(D - K)/2, an exact integer on these surfaces."""
    _check_on(surface, divisor)
    k = canonical_class(surface)
    num = intersect(surface, divisor, divisor) - intersect(surface, divisor, k)
    if num % 2 != 0:
        raise ArithmeticError(
            f"D.(D-K) = {num} is odd for {divisor} on {surface}; "
            "the intersection form is corrupted"
        )
    return 1 + num // 2
