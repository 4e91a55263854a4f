"""Brute-force line-bundle cohomology on P^2 and F_e via graded Cech complexes.

The surfaces are realized as smooth complete toric surfaces:

  P^2 : rays (1,0), (0,1), (-1,-1), three maximal cones of consecutive rays.
  F_e : rays u1 = (1,0), u2 = (0,1), u3 = (-1,e), u4 = (0,-1), four
        maximal cones of consecutive rays.  u2 is the section with
        self-intersection -e, u4 the one with +e, u1 and u3 are fibers.

For a torus-invariant divisor T = sum a_rho * D_rho and a character m, the
sections of O(T) over the chart of a cone sigma are spanned by the m with
<m, u_rho> >= -a_rho for every ray of sigma; over an intersection of
charts only the common rays impose conditions (the full intersection is
the torus and imposes none).  The degree-m piece of cohomology is the
cohomology of the finite complex indexed by all nonempty chart subsets
with the standard alternating-sign differentials, and total cohomology is
the sum over all m in a large box.

That complex depends on m only through the pattern of ray inequalities m
satisfies, an integer bitmask whose bit rho is set iff
<m, u_rho> >= -a_rho, so the box is counted per pattern.  Every ray of
these fans has x-component in {-1, 0, 1}, so each ray is x-independent
or a cut: along a row m2 = y its bit flips once, between x - 1 and x at
an x affine in y.  A lower ray (x-component 1) is satisfied from its cut
on; an upper ray (-1) is satisfied up to its threshold, so its cut sits
one past it.  The box splits into a few y-slabs between the rows where
two cuts cross or an x-independent ray changes sign; inside a slab each
pattern's count per row is affine in y, so a slab's total is an
arithmetic series read off its first and last rows.  The work has a
bound set by the rays, not by the size of the box.

The box is derived, counted once, and certified rather than re-counted.
Every character outside it must carry no cohomology, which follows from
two facts.  The ray inequalities cut the plane along the lines
<m, u_rho> = -a_rho, and a pattern is constant on each face of that line
arrangement.  (a) The box is the smallest one that holds every vertex of
the arrangement (`default_box`), so it holds every bounded face (the hull
of its vertices), and a character outside it lies on an unbounded face
and keeps its pattern along a recession direction d of that face.  There
the bit of a ray not perpendicular to d is the sign of <d, u_rho>, and
the bits of the rays perpendicular to d follow from the character.
(b) Those patterns at infinity are one per open sector between
consecutive critical directions +-u_rho^perp, and at each critical
direction one per feasible choice of the perpendicular rays' bits.  Each
of them holds infinitely many characters, so on a complete toric surface,
whose cohomology is finite (Cox-Little-Schenck, Toric Varieties, ch. 9),
it must have zero cohomology, and `_certify` checks that in the fan's
pattern table rather than trusting it.

Built once when first read: per cone structure, the pattern table
(`_pattern_cohomology`), shared by every fan with those cones; per fan
(`fan_for` keeps 256), its ray pairs, ray classes and patterns at
infinity.  Per call: the intercepts, the box, its slabs, the certificate.

Everything here is integer arithmetic; no formula is shared with
`line_cohomology`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, cmp_to_key, lru_cache, reduce
from itertools import combinations
from operator import and_

from . import surfaces
from .line_cohomology import CohVector


class TruncationError(RuntimeError):
    """The box's count is not certified to be the whole answer: a pattern at
    infinity has nonzero cohomology, which only a broken fan or a wrong
    pattern rank can bring about."""


@dataclass(frozen=True)
class ToricFan:
    """A complete smooth fan in Z^2: primitive rays plus maximal cones, and
    what the oracle reads of them alone, built when first read."""

    rays: tuple[tuple[int, int], ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for u in self.rays:
            if len(u) != 2:
                raise ValueError(f"rays must be 2-vectors, got {u}")
            if math.gcd(u[0], u[1]) != 1:
                raise ValueError(f"ray {u} is not primitive")
        if len(set(self.rays)) != len(self.rays):
            raise ValueError(f"rays must be distinct, got {self.rays}")
        for cone in self.max_cones:
            if len(cone) != 2:
                raise ValueError(f"maximal cones must have two rays, got {cone}")
            i, j = cone
            if not (0 <= i < len(self.rays) and 0 <= j < len(self.rays)):
                raise ValueError(f"cone {cone} references a missing ray")
            u, v = self.rays[i], self.rays[j]
            if abs(u[0] * v[1] - u[1] * v[0]) != 1:
                raise ValueError(f"cone {cone} with rays {u}, {v} is not smooth")

    @cached_property
    def ray_pairs(self) -> tuple[tuple[int, int, int, int, int, int, int], ...]:
        """(i, j, x_i, y_i, x_j, y_j, |det|) for each pair i < j of rays
        (x_i, y_i), (x_j, y_j) that are not parallel."""
        return tuple([(i, j, x, y, u, v, abs(x * v - y * u))
                      for (i, (x, y)), (j, (u, v)) in combinations(enumerate(self.rays), 2)
                      if x * v != y * u])

    @cached_property
    def mask_cohomology(self) -> tuple[tuple[int, int, int], ...]:
        """(h0, h1, h2) of every pattern mask, by mask, shared by the fans
        with these cones."""
        return _pattern_cohomology(self.max_cones, len(self.rays))

    @cached_property
    def ray_classes(self) -> _RayClasses:
        """`_classify_rays` for the fan alone: each intercept's place holds its ray's rho."""
        fixed, cuts = [], []
        for rho, (ux, uy) in enumerate(self.rays):
            if ux not in (-1, 0, 1):
                raise ValueError(f"ray {(ux, uy)} has x-component {ux}; the oracle's box count "
                                 "needs every ray's x-component in {-1, 0, 1}")
            if ux == 0:
                fixed.append((1 << rho, uy, rho))
            else:
                cuts.append((1 << rho, uy if ux < 0 else -uy, rho, ux < 0))
        return tuple(fixed), tuple(cuts)

    @cached_property
    def at_infinity(self) -> tuple[_Conditional, ...]:
        """The fan's part of the certificate (`_patterns_at_infinity`)."""
        return _patterns_at_infinity(self)


@dataclass(frozen=True)
class ToricDivisor:
    """One integer coefficient per ray of the ambient fan."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        for c in self.coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"toric divisor coefficients must be integers, got {c!r}")


def p2_fan() -> ToricFan:
    return ToricFan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)))


def hirzebruch_fan(e: int) -> ToricFan:
    """Fan of F_e.  The ray at index 1, (0, 1), is the (-e)-section and the
    ray at index 0 a fiber."""
    if e < 0:
        raise ValueError(f"e must be >= 0, got {e}")
    return ToricFan(((1, 0), (0, 1), (-1, e), (0, -1)), ((0, 1), (1, 2), (2, 3), (3, 0)))


@lru_cache(maxsize=256)
def fan_for(surface: surfaces.SurfaceModel) -> ToricFan:
    """The fan of `surface`, built once per P^2 and per e while it is among
    the last 256 asked for; an evicted fan is built again, equal."""
    if surface.is_plane:
        return p2_fan()
    return hirzebruch_fan(surface.e)


def divisor_to_toric(
    surface: surfaces.SurfaceModel, divisor: surfaces.DivisorClass
) -> ToricDivisor:
    """Fixed linear-equivalence representative of a Picard class.

    On F_e, a*C0 + b*f gets coefficient a on the section ray (index 1) and
    b on the fiber ray (index 0); on P^2, degree d sits on the ray (1,0).
    The convention is validated by the Riemann-Roch and translation
    invariants, not trusted a priori.
    """
    surfaces._check_on(surface, divisor)
    if surface.is_plane:
        return ToricDivisor((divisor.degree, 0, 0))
    a, b = divisor.coeffs
    return ToricDivisor((b, a, 0, 0))


def _rank(rows: list[list[int]]) -> int:
    """Rank over Q by fraction-free integer elimination: each step takes a
    nonzero row as pivot, clears its first nonzero column from the other
    rows, and drops the rows that become zero."""
    rank, rows = 0, [row for row in rows if any(row)]
    while rows:
        pivot = rows.pop()
        col = next(c for c, x in enumerate(pivot) if x)
        p = pivot[col]
        rows = [[p * x - r[col] * y for x, y in zip(r, pivot)] if r[col] else r for r in rows]
        rows = [row for row in rows if any(row)]
        rank += 1
    return rank


@lru_cache(maxsize=256)
def _pattern_cohomology(cones: tuple[tuple[int, ...], ...],
                        nrays: int) -> tuple[tuple[int, int, int], ...]:
    """(h0, h1, h2) of the Cech complex of each mask of `nrays` rays, by
    mask, for every fan whose maximal cones are `cones`.

    Bit rho of a mask is set iff <m, u_rho> >= -a_rho holds; a chart subset
    is admissible iff every ray of its common face (the AND of its cones'
    ray masks) is satisfied.  The nerve (each chart subset, its face mask
    and its signed faces) is built once; each mask's complex is ranked on
    its admissible rows and columns.  Degrees >= 3 must come out 0 (the
    surface has cohomological dimension 2) and are checked, not assumed.
    """
    ray_masks = [sum(1 << rho for rho in cone) for cone in cones]
    levels = [list(combinations(range(len(cones)), size)) for size in range(1, len(cones) + 1)]
    faces = [[reduce(and_, [ray_masks[i] for i in s]) for s in level] for level in levels]
    coboundary = []  # [p][r][k]: the sign of face k of subset r of level p + 1
    for level, above in zip(levels, levels[1:]):
        index = {s: k for k, s in enumerate(level)}
        coboundary.append(rows := [[0] * len(level) for _ in above])
        for row, s in zip(rows, above):
            for t in range(len(s)):
                row[index[s[:t] + s[t + 1:]]] = -1 if t % 2 else 1
    ranked, table = {}, []  # ranked: by (degree, admissible columns, admissible rows)
    for mask in range(1 << nrays):
        admissible = [tuple([k for k, face in enumerate(level) if face & ~mask == 0])
                      for level in faces]
        ranks = [0]  # ranks[p]: the rank of the differential into degree p
        for p, signs in enumerate(coboundary):
            key = (p, admissible[p], admissible[p + 1])
            if key not in ranked:
                ranked[key] = _rank([[signs[r][k] for k in key[1]] for r in key[2]])
            ranks.append(ranked[key])
        ranks.append(0)  # no differential out of the top degree
        hs = [len(level) - ranks[p] - ranks[p + 1] for p, level in enumerate(admissible)]
        if any(h < 0 for h in hs):
            raise ArithmeticError(f"negative Cech rank for pattern {mask:#b}: {hs}")
        if any(hs[3:]):
            raise ArithmeticError(f"nonzero cohomology above degree 2 for pattern {mask:#b}: {hs}")
        table.append((*hs, 0, 0)[:3])
    return tuple(table)


def _check_coeff_count(fan: ToricFan, t: ToricDivisor) -> None:
    if len(t.coeffs) != len(fan.rays):
        raise ValueError(
            f"divisor has {len(t.coeffs)} coefficients for a fan with {len(fan.rays)} rays"
        )


def graded_piece(fan: ToricFan, t: ToricDivisor, m: tuple[int, int]) -> CohVector:
    """Contribution of the character m to the cohomology of O(T)."""
    _check_coeff_count(fan, t)
    mask = sum(1 << rho for rho, (u, a) in enumerate(zip(fan.rays, t.coeffs))
               if u[0] * m[0] + u[1] * m[1] >= -a)
    return CohVector(*fan.mask_cohomology[mask])


# An x-independent ray along a row m2 = y: (bit, slope, intercept), with
# the ray satisfied iff slope * y + intercept >= 0.
_Fixed = tuple[int, int, int]
# A ray with ux = +-1 along a row m2 = y: (bit, slope, intercept, upper),
# satisfied from x = slope * y + intercept on, or before it if upper.
_Cut = tuple[int, int, int, bool]
_RayClasses = tuple[tuple[_Fixed, ...], tuple[_Cut, ...]]


def _classify_rays(fan: ToricFan, t: ToricDivisor) -> _RayClasses:
    """Sort the rays of (fan, t) for the row-by-row box count.

    The inequality of ray rho on a row m2 = y reads ux * x + uy * y + a >= 0,
    so with ux in {-1, 0, 1} it holds always or never (ux = 0), from the
    cut x = -(uy * y + a) on (ux = 1), or up to x = uy * y + a (ux = -1),
    whose cut is one past that.  The rays' classes and slopes are the
    fan's (`ToricFan.ray_classes`); a call reads only the intercepts.
    """
    fixed, cuts = fan.ray_classes
    _check_coeff_count(fan, t)
    a = t.coeffs
    return (tuple([(bit, slope, a[rho]) for bit, slope, rho in fixed]),
            tuple([(bit, slope, a[rho] + 1 if upper else -a[rho], upper)
                   for bit, slope, rho, upper in cuts]))


def _row_segments(rays: _RayClasses, box: int, y: int) -> tuple[list[int], list[int]]:
    """The row m2 = y of the box, left to right, as constant-pattern runs:
    the runs' pattern masks and their lengths.

    The pattern at x = -box is read off the rays; every cut strictly inside
    the row flips its ray's bit, and a run ends at each distinct cut.
    """
    fixed, cuts = rays
    mask = 0
    flips = []  # (x, bit): bit changes between x - 1 and x
    for bit, slope, intercept in fixed:
        if slope * y + intercept >= 0:
            mask |= bit
    for bit, slope, intercept, upper in cuts:
        x = slope * y + intercept
        if (x <= -box) != upper:
            mask |= bit
        if -box < x <= box:
            flips.append((x, bit))
    flips.sort()
    masks, lengths = [], []
    start = -box
    for x, bit in flips:
        if x != start:
            masks.append(mask)
            lengths.append(x - start)
            start = x
        mask ^= bit
    masks.append(mask)
    lengths.append(box + 1 - start)
    return masks, lengths


def _slab_edges(rays: _RayClasses, box: int) -> list[int]:
    """Sorted row indices that start a slab, followed by box + 1.

    Every x-cut of a row is an affine function of y with integer
    coefficients (a ray's cut, or a box edge as a constant), and every
    x-independent ray is satisfied or not according to the sign of one.
    Between two consecutive edges no two cuts change their order (equal
    stays equal) and no such sign changes, so every row of a slab has the
    same (pattern, length) sequence with lengths affine in y.
    """
    fixed, cuts = rays
    lines = [(0, -box), (0, box + 1)] + [(slope, b) for _, slope, b, _ in cuts]
    signs = [(slope, b) for _, slope, b in fixed]
    signs += [(s1 - s2, b1 - b2) for (s1, b1), (s2, b2) in combinations(lines, 2)]
    edges = {-box, box + 1}
    for slope, intercept in signs:
        if slope < 0:
            slope, intercept = -slope, -intercept
        if slope:
            # the sign of slope*y + intercept changes around y = -intercept/slope:
            # a new slab starts at its ceiling and right after its floor
            edges.add(-(intercept // slope))
            edges.add(-intercept // slope + 1)
    return sorted(y for y in edges if -box <= y <= box + 1)


def _pattern_counts(rays: _RayClasses, box: int) -> dict[int, int]:
    """Count characters in the box |m1|,|m2| <= box per pattern mask.

    `rays` comes from `_classify_rays`.  The box is cut into the y-slabs of
    `_slab_edges`.  A slab's rows share one mask sequence whose run lengths
    are affine in y, so only its first and last rows are segmented and each
    pattern gets the arithmetic series (len_first + len_last) * rows / 2.
    The number of slabs has a bound set by the rays, not by the box.
    """
    counts: dict[int, int] = {}
    edges = _slab_edges(rays, box)
    for first, stop in zip(edges, edges[1:]):
        rows = stop - first
        masks, head = _row_segments(rays, box, first)
        if rows == 1:
            tail = head
        else:
            tail_masks, tail = _row_segments(rays, box, stop - 1)
            if masks != tail_masks:
                raise ArithmeticError(
                    f"rows {first} and {stop - 1} of one slab differ: "
                    f"{[bin(m) for m in masks]} vs {[bin(m) for m in tail_masks]}"
                )
        for mask, l0, l1 in zip(masks, head, tail):
            counts[mask] = counts.get(mask, 0) + (l0 + l1) * rows // 2
    return counts


def _box_totals(fan: ToricFan, rays: _RayClasses, box: int) -> tuple[int, int, int]:
    """(h0, h1, h2) summed over the box: each pattern's count times its
    cohomology in `fan.mask_cohomology`."""
    table = fan.mask_cohomology
    h0 = h1 = h2 = 0
    for mask, count in _pattern_counts(rays, box).items():
        a, b, c = table[mask]
        h0 += count * a
        h1 += count * b
        h2 += count * c
    return h0, h1, h2


def _counterclockwise(d: tuple[int, int], e: tuple[int, int]) -> int:
    """Order of two directions counterclockwise from the positive x-axis,
    by half-plane and then by the sign of their cross product."""
    lower_d = d[1] < 0 or (d[1] == 0 and d[0] < 0)
    lower_e = e[1] < 0 or (e[1] == 0 and e[0] < 0)
    if lower_d != lower_e:
        return lower_d - lower_e
    return e[0] * d[1] - e[1] * d[0]


# A pattern at infinity realized by some divisors only: (rho, sigma, mask,
# both), with u_sigma = -u_rho perpendicular to the direction and both bits
# set in mask (both) or both unset (not both).
_Conditional = tuple[int, int, int, bool]


def _patterns_at_infinity(fan: ToricFan) -> tuple[_Conditional, ...]:
    """The fan's part of the certificate (`ToricFan.at_infinity`).

    The critical directions +-u_rho^perp are sorted counterclockwise, the
    upper half-plane's and then their opposites, and each <d, u_rho> is
    computed once for d and -d.  At d, the rays with <d, u_rho> > 0 are
    satisfied, and the rays perpendicular to d are one ray w, or w and -w;
    with k = <m, w>, which takes every integer value, the bit of w asks for
    k >= -a_w and the bit of -w for k <= a_(-w).  A single bit, and two
    different bits, are realized whatever the divisor.  Both set needs
    a_w + a_(-w) >= 0, and both unset a_w + a_(-w) <= -2.  In the sector
    after d a ray has its sign at d, or at the next direction if it is
    perpendicular to d.

    Raises TruncationError if a pattern that every divisor realizes has
    nonzero cohomology.  Returns the patterns that only some divisors
    realize and that have nonzero cohomology, for `_certify` to test
    against the divisor; a correct fan has none.
    """
    upper = sorted({(-q, p) if p > 0 or (p == 0 and q < 0) else (q, -p) for p, q in fan.rays},
                   key=cmp_to_key(_counterclockwise))
    dirs, opposite = [], []  # (d, mask of <d, u_rho> > 0, perpendicular rays, their mask)
    for x, y in upper:
        positive = negative = on = 0
        perp = []
        for rho, (p, q) in enumerate(fan.rays):
            dot = p * x + q * y
            if dot > 0:
                positive |= 1 << rho
            elif dot < 0:
                negative |= 1 << rho
            else:
                on |= 1 << rho
                perp.append(rho)
        dirs.append(((x, y), positive, perp, on))
        opposite.append(((-x, -y), negative, perp, on))
    dirs += opposite
    always, conditional = [], []  # always: (mask, d, the next direction if in a sector)
    for (d, base, perp, on), (after, next_base, _, _) in zip(dirs, dirs[1:] + dirs[:1]):
        always.append((base | (on & next_base), d, after))
        for rho in perp:
            always.append((base | 1 << rho, d, None))
        if len(perp) == 1:
            always.append((base, d, None))
        else:
            rho, sigma = perp
            conditional += [(rho, sigma, base | on, True), (rho, sigma, base, False)]
    table = fan.mask_cohomology
    for mask, d, after in always:
        if any(table[mask]):
            where = (f"at direction {d}" if after is None
                     else f"in the sector between directions {d} and {after}")
            raise TruncationError(f"pattern at infinity {mask:#b} {where} has cohomology "
                                  f"{table[mask]}, for the fan with rays {fan.rays}")
    return tuple(c for c in conditional if any(table[c[2]]))


def _certify(fan: ToricFan, t: ToricDivisor, surface: surfaces.SurfaceModel,
             divisor: surfaces.DivisorClass) -> None:
    """Raise TruncationError, naming `divisor` on `surface`, unless every
    pattern at infinity that a character realizes has zero cohomology
    (`ToricFan.at_infinity`)."""
    for rho, sigma, mask, both in fan.at_infinity:
        total = t.coeffs[rho] + t.coeffs[sigma]
        if (total >= 0) if both else (total <= -2):
            raise TruncationError(f"pattern at infinity {mask:#b} has cohomology "
                                  f"{fan.mask_cohomology[mask]} for {divisor} on {surface}")


def default_box(surface: surfaces.SurfaceModel, t: ToricDivisor) -> int:
    """The smallest box |m1|, |m2| <= box that holds every vertex of the
    arrangement <m, u_rho> = -a_rho."""
    fan = fan_for(surface)
    _check_coeff_count(fan, t)
    return _vertex_box(fan, t.coeffs)


def _vertex_box(fan: ToricFan, coeffs: tuple[int, ...]) -> int:
    """Two lines of rays u, v with det = u x v != 0 meet at (x, y) / det by
    Cramer's rule, and the box is the ceiling of the largest
    max(|x|, |y|) / |det| over the ray pairs (`ToricFan.ray_pairs`)."""
    box = 0
    for i, j, xi, yi, xj, yj, det in fan.ray_pairs:
        a, b = coeffs[i], coeffs[j]
        x, y = abs(b * yi - a * yj), abs(a * xj - b * xi)
        side = -(-(x if x > y else y) // det)
        if side > box:
            box = side
    return box


def coh_oracle(surface: surfaces.SurfaceModel, divisor: surfaces.DivisorClass) -> CohVector:
    """Ground-truth (h0, h1, h2) by summing graded pieces over a box.

    The box is `default_box`'s, the coefficient count checked once (by
    `_classify_rays`); `_certify` raises TruncationError unless its count
    is the whole answer, and the box is then counted once.
    """
    fan = fan_for(surface)
    t = divisor_to_toric(surface, divisor)
    rays = _classify_rays(fan, t)
    _certify(fan, t, surface, divisor)
    return CohVector(*_box_totals(fan, rays, _vertex_box(fan, t.coeffs)))
