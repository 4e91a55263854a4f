"""Closed-form cohomology of line bundles on P^2 and F_e.

On F_e the computation runs along the ruling pi': F_e -> P^1.  For a >= 0
the pushforward of O(a*C0 + b*f) splits as the sum of O_{P^1}(b - k*e) for
k = 0..a, with vanishing R^1 pushforward, so h^0 and h^1 are sums of the
corresponding P^1 numbers and h^2 comes out of Serre duality.  The degrees
fall by e at each step, so each sum is a truncated arithmetic series and is
evaluated in closed form: the work does not depend on the size of a or b.
For a = -1 everything vanishes, and for a <= -2 the class is handled
through its Serre dual K - D (whose C0-coefficient is >= 0 again).  The
dual is taken on the integer coefficients of K and D; no class is built
for it.

On P^2 the numbers are binomial coefficients plus Serre duality.

These formulas share nothing with the Cech machinery in `cech_oracle`,
which recomputes the same numbers from scratch; agreement of the two
routes is the central correctness property of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import surfaces


@dataclass(frozen=True)
class CohVector:
    """Exact nonnegative (h0, h1, h2) with derived Euler characteristic."""

    h0: int
    h1: int
    h2: int

    def __post_init__(self):
        for h in (self.h0, self.h1, self.h2):
            if not isinstance(h, int) or isinstance(h, bool) or h < 0:
                raise ValueError(f"cohomology dimensions must be integers >= 0, got {h!r}")

    @property
    def chi(self) -> int:
        return self.h0 - self.h1 + self.h2

    def reversed(self) -> "CohVector":
        return CohVector(self.h2, self.h1, self.h0)

    def __add__(self, other: "CohVector") -> "CohVector":
        return CohVector(self.h0 + other.h0, self.h1 + other.h1, self.h2 + other.h2)

    def scaled(self, n: int) -> "CohVector":
        """Cohomology of the n-fold direct sum."""
        if n < 0:
            raise ValueError("direct-sum multiplicity must be >= 0")
        return CohVector(n * self.h0, n * self.h1, n * self.h2)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)


def _series(first: int, step: int, n: int) -> int:
    """Sum of the n-term arithmetic series first, first + step, ...; 0 if n <= 0."""
    if n <= 0:
        return 0
    return n * first + step * (n * (n - 1) // 2)


def _fiber_sums(e: int, a: int, b: int) -> tuple[int, int]:
    """Sum of h0, and of h1, of O_{P^1}(b - k*e) over k = 0..a.

    The range is empty for a < 0, matching the vanishing pushforward of a
    class of negative fiber degree; only the h0 sum is meaningful there.
    """
    if e == 0:
        n = max(0, a + 1)
        return (n * max(0, b + 1), n * max(0, -b - 1))
    # Degrees b - k*e >= 0 give h0 = b - k*e + 1, for k = 0..min(a, b // e).
    h0 = _series(b + 1, -e, min(a, b // e) + 1) if b >= 0 else 0
    # Degrees b - k*e <= -2 give h1 = k*e - b - 1, from the first such k on.
    first = max(0, -(-(b + 2) // e))
    h1 = _series(first * e - b - 1, e, a - first + 1)
    return (h0, h1)


def coh(surface: surfaces.SurfaceModel, divisor: surfaces.DivisorClass) -> CohVector:
    """Exact (h0, h1, h2) of the line bundle O(divisor)."""
    surfaces._check_on(surface, divisor)
    if surface.is_plane:
        d = divisor.degree
        h0 = math.comb(d + 2, 2) if d >= 0 else 0
        h2 = math.comb(-d - 1, 2) if -d - 3 >= 0 else 0
        return CohVector(h0, 0, h2)

    a, b = divisor.coeffs
    e = surface.e
    if a == -1:
        # Both pushforwards vanish; spelled out because the dual has a = -1
        # as well.
        return CohVector(0, 0, 0)
    # Serre duality: h^i(D) = h^(2-i)(K - D).  Of D and K - D, with
    # C0-coefficients a and -2 - a, the one with a <= -2 gives a computed
    # 0 (an empty sum) for its h0, not an assumed one.
    ka, kb = surfaces.canonical_class(surface).coeffs
    h0, h1 = _fiber_sums(e, a, b)
    h2, dual_h1 = _fiber_sums(e, ka - a, kb - b)
    return CohVector(h0, h1 if a >= 0 else dual_h1, h2)
