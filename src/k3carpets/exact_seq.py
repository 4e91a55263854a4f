"""Exact interval calculus for long exact cohomology sequences.

A short exact sequence of sheaves 0 -> A -> B -> C -> 0 on a surface gives
the nine-term long exact sequence

  0 -> H0A -> H0B -> H0C -> H1A -> H1B -> H1C -> H2A -> H2B -> H2C -> 0.

Writing r_k for the rank of the map into the k-th term (r_0 = r_9 = 0),
exactness is equivalent to

  t_k = r_k + r_{k+1},   r_k >= 0,

and this rank model is the single source of truth here.  Given per-degree
integer bounds on the nine dimensions (plus optional exact Euler
characteristics per term, and optional named bounds on single ranks,
`RankBound`), `propagate` computes the exact minimum and maximum of every
dimension over all nonnegative rank assignments.  One forward and one
backward pass along the path of ranks bound the ranks; a bound on a single
rank meets that rank in the forward pass.
Without a *watched* Euler characteristic (a fixed one on a term the input
does not pin) that is all: the sweep is exact on the path (Freuder 1982),
and an Euler characteristic is constant iff no free block of ranks linked
by forced dimensions moves it (the affine hull of a totally unimodular
polytope is cut out by its implicit equalities; Schrijver 1986, section
8.2).  Caps from watched ones repeat the sweep at most 9 times,
whatever the magnitudes.  The matrix of the nine dimensions and the three
Euler characteristics as functions of the ranks, with an identity row for
each bounded rank, is totally unimodular, so
over the chains through a fixed rank the running Euler characteristic of
the prefixes, or of the suffixes, fills an interval.  With one watched, a
table of those intervals in each direction decides every rank and every
pair of neighbouring ranks: at most 9 (R + 1)^2 pair tests for R the
largest rank bound, whatever the values the Euler characteristic can
take.  With two or more, a forward/backward DP whose state is the rank
and one running Euler characteristic carries only the interval of a
second: at most 9 (R + 1)^2 X edges, X <= 3 H + 1 the values a running
Euler characteristic can take and H the largest dimension bound.  Bounds
that collapse (lo == hi) are forced; anything wider is honest partial
knowledge.
`chain` runs several sequences that share named terms to a common fixed
point by passes in index order: a sequence is propagated again only when
one of its terms narrowed since its last run.  The table keeps the terms
`propagate` returns as they are, since each already is the meet with its
input.
"""

from __future__ import annotations

from dataclasses import dataclass

_DEGREE_NAMES = ("h0", "h1", "h2")

# Change in the running chi of terms A and C per unit of t_k = h^(k // 3)(term k % 3).
_CHI_STEPS = ((1, 0), (0, 0), (0, 1), (-1, 0), (0, 0), (0, -1), (1, 0), (0, 0), (0, 1))
# The chi of terms A, B and C on a complete chain, as coefficients of
# (chi_A, chi_C): chi_B = chi_A + chi_C by exactness.
_FORMS = ((1, 0), (1, 1), (0, 1))
# Change in the running chi of each form per unit of t_k.
_STEPS = {form: tuple(form[0] * da + form[1] * dc for da, dc in _CHI_STEPS) for form in _FORMS}


class InconsistencyError(ValueError):
    """No nonnegative rank assignment satisfies the given constraints."""


class UnboundedRankError(RuntimeError):
    """Two consecutive unbounded terms leave a connecting rank unbounded."""


def _integer(value) -> bool:
    """The one integer rule of bounds and ranks: an int or int subclass, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class CohInterval:
    """Per-degree bounds lo_i <= h^i <= hi_i (hi None = unbounded) plus an
    optional exact chi side-constraint."""

    lo: tuple[int, int, int] = (0, 0, 0)
    hi: tuple[int | None, int | None, int | None] = (None, None, None)
    chi: int | None = None

    def __post_init__(self):
        lo, hi, chi = self.lo, self.hi, self.chi
        if len(lo) != 3 or len(hi) != 3:
            raise ValueError(f"bounds must give h0, h1 and h2, got {len(lo)} lower"
                             f" and {len(hi)} upper")
        # each check lets a plain int through at its first test
        for lo_i, hi_i in zip(lo, hi):
            if type(lo_i) is not int and not _integer(lo_i) or lo_i < 0:
                raise ValueError(f"lower bounds must be integers >= 0, got {lo_i!r}")
            if hi_i is not None:
                if type(hi_i) is not int and not _integer(hi_i):
                    raise ValueError(f"upper bounds must be integers or None, got {hi_i!r}")
                if hi_i < lo_i:
                    raise ValueError(f"empty bound [{lo_i}, {hi_i}]")
        if type(lo) is not tuple or type(hi) is not tuple:
            # stored as tuples, so that `is_forced_all` can compare them whole
            object.__setattr__(self, "lo", tuple(lo))
            object.__setattr__(self, "hi", tuple(hi))
        if chi is None:
            return
        if type(chi) is not int and not _integer(chi):
            raise ValueError(f"chi must be an integer or None, got {chi!r}")
        if self.is_forced_all() and lo[0] - lo[1] + lo[2] != chi:
            raise ValueError(f"chi = {chi} contradicts pinned dimensions {lo}")

    @classmethod
    def exact(cls, h0: int, h1: int, h2: int) -> "CohInterval":
        return cls((h0, h1, h2), (h0, h1, h2), h0 - h1 + h2)

    @classmethod
    def from_vector(cls, v) -> "CohInterval":
        return cls.exact(v.h0, v.h1, v.h2)

    @classmethod
    def unknown(cls, chi: int | None = None) -> "CohInterval":
        return cls((0, 0, 0), (None, None, None), chi)

    def is_forced(self, i: int) -> bool:
        return self.hi[i] is not None and self.lo[i] == self.hi[i]

    def is_forced_all(self) -> bool:
        return self.lo == self.hi  # every lo_i is an int, so every hi_i is one too

    def forced_values(self) -> tuple[int, int, int]:
        if not self.is_forced_all():
            raise ValueError(f"interval {self} is not fully forced")
        return self.lo

    def meet(self, other: "CohInterval", what: str = "term") -> "CohInterval":
        """Intersection of two knowledge states about the same sheaf."""
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(
            b if a is None else a if b is None else min(a, b)
            for a, b in zip(self.hi, other.hi)
        )
        for i, (lo_i, hi_i) in enumerate(zip(lo, hi)):
            if hi_i is not None and lo_i > hi_i:
                raise InconsistencyError(
                    f"{what}: {_DEGREE_NAMES[i]} bounds [{self.lo[i]}, {self.hi[i]}]"
                    f" and [{other.lo[i]}, {other.hi[i]}] do not overlap"
                )
        if self.chi is not None and other.chi is not None and self.chi != other.chi:
            raise InconsistencyError(
                f"{what}: chi constraints {self.chi} and {other.chi} disagree"
            )
        chi = self.chi if self.chi is not None else other.chi
        if chi is not None and lo == hi and lo[0] - lo[1] + lo[2] != chi:
            raise InconsistencyError(f"{what}: chi = {chi} contradicts pinned dimensions {lo}")
        return CohInterval(lo, hi, chi)

    def __str__(self) -> str:
        parts = []
        for i in range(3):
            if self.is_forced(i):
                parts.append(f"{_DEGREE_NAMES[i]}={self.lo[i]}")
            else:
                top = "inf" if self.hi[i] is None else self.hi[i]
                parts.append(f"{_DEGREE_NAMES[i]}in[{self.lo[i]},{top}]")
        if self.chi is not None:
            parts.append(f"chi={self.chi}")
        return "(" + ", ".join(parts) + ")"


@dataclass(frozen=True)
class RankBound:
    """A named bound lo <= r_k <= hi (hi None = unbounded) on r_k, the rank
    of the map into the k-th term of the long exact sequence (1 <= k <= 8):
    a fact about one map that exactness alone does not give, such as a
    connecting map known to vanish."""

    k: int
    lo: int = 0
    hi: int | None = None
    name: str = ""

    def __post_init__(self):
        k, lo, hi = self.k, self.lo, self.hi
        if not _integer(k) or not 1 <= k <= 8:
            raise ValueError(f"a rank bound is on one of r_1..r_8, got r_{k!r}")
        if not _integer(lo) or lo < 0:
            raise ValueError(f"rank lower bounds must be integers >= 0, got {lo!r}")
        if hi is not None and (not _integer(hi) or hi < lo):
            raise ValueError(f"rank upper bounds must be integers >= {lo} or None, got {hi!r}")

    def __str__(self) -> str:
        return _span(f"r_{self.k}", self.lo, self.hi)


@dataclass(frozen=True)
class LesInstance:
    """One short exact sequence 0 -> A -> B -> C -> 0 with current knowledge.

    `names` identifies the three sheaves when several sequences are chained;
    `label` names the sequence itself in error messages; `ranks` holds
    bounds on single ranks beyond exactness.
    """

    a: CohInterval
    b: CohInterval
    c: CohInterval
    names: tuple[str, str, str] = ("A", "B", "C")
    label: str = ""
    ranks: tuple[RankBound, ...] = ()


def _span(what: str, lo: int, hi: int | None) -> str:
    """`what` = lo, `what` >= lo or lo <= `what` <= hi."""
    if hi is None:
        return f"{what} >= {lo}"
    return f"{what} = {lo}" if lo == hi else f"{lo} <= {what} <= {hi}"


def _term_bounds(seq: LesInstance):
    """Bounds for t_0..t_8 in long-exact-sequence order (H0A, H0B, ...), None if none."""
    (a, b, c), (x, y, z) = (seq.a.lo, seq.b.lo, seq.c.lo), (seq.a.hi, seq.b.hi, seq.c.hi)
    return ([a[0], b[0], c[0], a[1], b[1], c[1], a[2], b[2], c[2]],
            [x[0], y[0], z[0], x[1], y[1], z[1], x[2], y[2], z[2]])


_NO_LIMITS = ((0,) * 9, (None,) * 9)  # `_rank_limits(())`


def _rank_limits(ranks: tuple[RankBound, ...]):
    """The bounds that `ranks` give on r_1..r_9, met per rank: two
    sequences, entry k - 1 for r_k, 0 and None where there is none."""
    if not ranks:
        return _NO_LIMITS
    b_lo, b_hi = [0] * 9, [None] * 9
    for bound in ranks:
        k, top = bound.k - 1, b_hi[bound.k - 1]
        if bound.lo > b_lo[k]:
            b_lo[k] = bound.lo
        if bound.hi is not None and (top is None or bound.hi < top):
            b_hi[k] = bound.hi
    return b_lo, b_hi


def _sweep(lo, hi, limits):
    """Exact intervals [r_lo[k], r_hi[k]] of r_0..r_9 (None if unbounded)
    over the rank chains with lo_k <= r_k + r_{k+1} <= hi_k, chi ignored,
    capping each hi_k in place at r_hi[k] + r_hi[k+1]; if there is none,
    the lists stop at the first empty interval.  `limits`, from
    `_rank_limits`, bounds single ranks; the forward pass meets each rank
    with its bound.  On a path a forward pass (what r_0..r_{k-1}
    leave for r_k) and a backward pass (what of it r_{k+1}..r_9 can finish)
    are exact, the image of an interval being an interval: directional arc
    consistency (Dechter and Pearl 1987, "Network-based heuristics for
    constraint-satisfaction problems")."""
    r_lo, r_hi = [0], [0]
    low = high = 0
    for l, h, least, most in zip(lo, hi, *limits):
        if high is not None and l - high > least:
            least = l - high
        if h is not None and (most is None or h - low < most):
            most = h - low
        r_lo.append(least)
        r_hi.append(most)
        if most is not None and most < least:
            return r_lo, r_hi
        low, high = least, most
    r_hi[9] = 0
    if r_lo[9]:
        return r_lo, r_hi
    for k in range(8, -1, -1):
        l, h, high, up_lo, up_hi = lo[k], hi[k], r_hi[k], r_lo[k + 1], r_hi[k + 1]
        if up_hi is not None and l - up_hi > r_lo[k]:
            r_lo[k] = l - up_hi
        if h is not None and (high is None or h - up_lo < high):
            r_hi[k] = high = h - up_lo
        if high is not None and up_hi is not None and (h is None or high + up_hi < h):
            hi[k] = high + up_hi
    return r_lo, r_hi


def _infeasible(seq: LesInstance) -> InconsistencyError:
    """The error for an infeasible instance, naming a violated relation
    when chi additivity or the sweep of its own bounds shows one.  When that
    sweep is not empty the bounds alone admit rank chains, and it gives
    each rank its exact range over them: the error names a rank bound that
    misses its rank's range, or the rank bounds if only together they
    leave no chain.  Without a watched chi the sweep is exact, so else the
    error names the watched chi."""
    chis = (seq.a.chi, seq.b.chi, seq.c.chi)
    lo, hi = _term_bounds(seq)
    r_lo, r_hi = _sweep(lo, hi, _NO_LIMITS)
    k = len(r_hi) - 2  # the term the last swept rank leaves
    if None not in chis and chis[0] + chis[2] != chis[1]:
        why = (f"chi additivity: chi({seq.names[1]}) = {chis[1]} but "
               f"chi({seq.names[0]}) + chi({seq.names[2]}) = {chis[0] + chis[2]}")
    elif r_hi[-1] < 0:
        why = (f"exactness at {_DEGREE_NAMES[k // 3]}({seq.names[k % 3]}): the "
               f"incoming rank would have to be negative ({r_hi[-1]})")
    elif r_hi[-1] < r_lo[-1]:
        # without a negative rank the sweep stops only at r_9 = 0: r_hi[8] < lo[8]
        b, c = seq.names[1:]
        why = (f"exactness at h2({c}): h2({b}) -> h2({c}) must be onto, but its "
               f"rank is at most {r_hi[8]} while h2({c}) >= {lo[8]}")
    else:
        why = _rank_bound_conflict(seq, lo, hi, r_lo, r_hi)
        if why is None:
            why = "no rank chain within the bounds meets " + " and ".join(
                f"chi({name}) = {iv.chi}" for name, iv in zip(seq.names, (seq.a, seq.b, seq.c))
                if iv.chi is not None and not iv.is_forced_all())
    return InconsistencyError((f"sequence {seq.label!r}: " if seq.label else "") + why)


def _rank_bound_conflict(seq: LesInstance, lo, hi, r_lo, r_hi) -> str | None:
    """What the rank bounds violate, given the exact ranges r_lo..r_hi of
    the ranks over the chains within the term bounds: a rank bound that
    misses its rank's range, or else all of them if together they leave no
    chain; None if they leave one."""
    for bound in seq.ranks:
        k = bound.k
        if (bound.hi is not None and bound.hi < r_lo[k]
                or r_hi[k] is not None and bound.lo > r_hi[k]):
            return (f"the bounds leave only {_span(f'r_{k}', r_lo[k], r_hi[k])} for the rank "
                    f"of {_DEGREE_NAMES[(k - 1) // 3]}({seq.names[(k - 1) % 3]}) -> "
                    f"{_DEGREE_NAMES[k // 3]}({seq.names[k % 3]}), but the rank bound "
                    f"{bound.name!r} requires {bound}")
    r_lo, r_hi = _sweep(lo, hi, _rank_limits(seq.ranks))
    if r_hi[-1] < r_lo[-1]:
        return "no rank chain within the bounds meets the rank bounds " + " and ".join(
            f"{bound.name!r} ({bound})" for bound in seq.ranks)
    return None


def _watched_terms(seq: LesInstance) -> list[tuple[int, int]]:
    """(term, chi) for each *watched* chi, a fixed chi on a term the input
    does not pin: a pinned term has its chi on every chain within the
    bounds, so only a watched one constrains the ranks further."""
    return [(term, iv.chi) for term, iv in enumerate((seq.a, seq.b, seq.c))
            if iv.chi is not None and iv.lo != iv.hi]


def _rank_bounds(seq: LesInstance, capped: list[tuple[int, int]]):
    """Bounds (lo, hi, r_lo, r_hi) on the nine dimensions and the ranks
    r_0..r_9 that every feasible rank chain keeps, all finite; `capped`
    is `_watched_terms(seq)`.

    Sweeps the ranks, which cap the dimensions, then repeats {let each
    watched chi cap each degree of its term from the other two; sweep}
    only while some dimension goes from unbounded to bounded: at most 9
    sweeps whatever the magnitudes, as with all nine unbounded nothing
    bounds one.  So whether a rank stays unbounded (`UnboundedRankError`)
    depends only on which bounds are finite, which ranks `seq.ranks`
    bounds and which chi are fixed.  The chi caps only make the ranks
    finite; `propagate` applies chi exactly.  A pinned term is skipped: its
    chi caps each degree at its value."""
    chis = (seq.a.chi, seq.b.chi, seq.c.chi)
    if None not in chis and chis[0] + chis[2] != chis[1]:
        raise _infeasible(seq)
    lo, hi = _term_bounds(seq)
    limits = _rank_limits(seq.ranks)
    while True:
        r_lo, r_hi = _sweep(lo, hi, limits)
        if r_hi[-1] < r_lo[-1]:
            raise _infeasible(seq)
        bounded = False  # whether a chi cap bounds an unbounded dimension
        for term, chi in capped:
            for d, i in enumerate(range(term, 9, 3)):
                # t_d = s_d (chi - sum of s_e t_e), s = (1, -1, 1): a degree of
                # opposite sign counts at its top, one of equal sign at its bottom
                parts = [hi[term + 3 * e] if 1 in (d, e) else -lo[term + 3 * e]
                         for e in range(3) if e != d]
                cap = None if None in parts else sum(parts) + (-chi if d == 1 else chi)
                if cap is not None and (hi[i] is None or cap < hi[i]):
                    if cap < lo[i]:
                        raise _infeasible(seq)
                    bounded, hi[i] = bounded or hi[i] is None, cap
        if not bounded:
            break
    if None in r_hi:
        k = r_hi.index(None)
        raise UnboundedRankError(
            f"terms {_DEGREE_NAMES[(k - 1) // 3]}({seq.names[(k - 1) % 3]}) and "
            f"{_DEGREE_NAMES[k // 3]}({seq.names[k % 3]}) are both unbounded")
    return lo, hi, r_lo, r_hi


def propagate(seq: LesInstance) -> LesInstance:
    """Tighten every dimension of a long exact sequence to its exact range.

    Each dimension's returned range is the exact min/max over all rank
    chains r_1..r_8 compatible with the bounds, the rank bounds
    (`seq.ranks`) and the chi constraints, and a term whose Euler
    characteristic is constant over them gets its chi pinned; a term that
    comes out unchanged is returned as the input object, and only a term
    that changed is built anew (`chain` relies on both).  A fixed chi on a
    term the input does not pin is *watched*: it ties ranks far apart on
    the path of constraints t_k = r_k + r_{k+1}.

    Exactness rests on one fact: the 12 x 8 matrix whose rows are t_0..t_8
    and chi_A, chi_B, chi_C as functions of r_1..r_8 is totally unimodular,
    and stays so with the 8 identity rows r_k appended (Ghouila-Houri's
    column-bicolouring criterion, checked on all 255 column subsets by
    `test_rank_and_chi_matrix_is_totally_unimodular` in
    tests/test_exact_seq.py; appending a unit row keeps any matrix
    totally unimodular).  So bounds on the ranks and
    the t_k, fixed ranks and fixed values of up to two chi cut out integral
    polytopes (Hoffman and Kruskal 1956; Schrijver 1986, "Theory of linear
    and integer programming", section 19), and on their integer points a
    rank, a chi or a running chi over a prefix or a suffix of the path
    takes every integer value between its min and its max.  The steps
    below read the rank bounds only through the ranges r_lo..r_hi that
    `_rank_bounds` returns.  The work depends on how many chi are watched:

    - none, the path of every call from `sweep` and of all but one from
      `verify-paper`: `_rank_bounds`' one forward and one backward pass
      are exact on the path (Freuder 1982, "A sufficient condition for
      backtrack-free search"), so t_k ranges over
      [max(lo_k, r_lo[k] + r_lo[k+1]), min(hi_k, r_hi[k] + r_hi[k+1])];
      one pass over the nine bounds gives those t_k and the chain of least
      ranks, and `_constant_chis` reads the chi off the forced ranks and
      t_k (Schrijver 1986, section 8.2);
    - one: `_one_watched` keeps a rank, or an edge (r_k, r_{k+1}), iff the
      target lies in the sum of the running-chi intervals of the prefixes
      and the suffixes meeting there, and `_constant_chis` with the
      watched row decides the other two chi: at most 9 (R + 1)^2 edge
      tests, for R the largest rank bound, whatever the values the chi can
      take.  `_two_watched` with a zero form as its first chi gives the
      same answers but is slower, as its DP scans every edge where these
      scans stop at the first kept one.  On a 2-vCPU Xeon: 0.01 s against
      0.55-0.68 s on the instance of
      `test_one_watched_chi_with_wide_ranks_answers_promptly`, 0.6 ms
      against 5.5 ms on [0, 40]^3 with one watched chi, and 13% more time
      on `les-wide`'s one-watched items;
    - two or more: `_two_watched`, a DP over states (r_k, the first
      running chi), each carrying the interval of the second: at most
      9 (R + 1)^2 X edges, for X <= 3 H + 1 the values the first running
      chi can take and H the largest dimension bound."""
    capped = _watched_terms(seq)
    lo, hi, r_lo, r_hi = _rank_bounds(seq, capped)
    watched = {_FORMS[term]: chi for term, chi in capped} if capped else {}
    if len(watched) > 1:
        t_min, t_max = _two_watched(seq, lo, hi, r_lo, r_hi, watched)
    elif watched:
        r_lo, r_hi, t_min, t_max, ranks = _one_watched(seq, lo, hi, r_lo, r_hi, watched)
    else:
        # hi is capped by the sweep, which is exact: the greedy chain never sticks
        t_min, t_max, ranks, r, low = [], hi, [0], 0, 0
        for l, least in zip(lo, r_lo[1:]):
            bottom = low + least
            t_min.append(l if l > bottom else bottom)
            r = l - r if l - r > least else least
            ranks.append(r)
            low = least
    known = (watched if len(watched) > 1
             else _constant_chis(ranks, r_lo, r_hi, t_min, t_max, watched))
    a, b, c = map(known.get, _FORMS)
    if len(known) == 2:  # chi_B = chi_A + chi_C fixes the third
        a, b, c = (b - c if a is None else a, a + c if b is None else b,
                   b - a if c is None else c)
    a0, b0, c0, a1, b1, c1, a2, b2, c2 = t_min
    x0, y0, z0, x1, y1, z1, x2, y2, z2 = t_max
    return LesInstance(_narrowed(seq.a, (a0, a1, a2), (x0, x1, x2), a),
                       _narrowed(seq.b, (b0, b1, b2), (y0, y1, y2), b),
                       _narrowed(seq.c, (c0, c1, c2), (z0, z1, z2), c),
                       seq.names, seq.label, seq.ranks)


def _narrowed(iv: CohInterval, lo, hi, chi) -> CohInterval:
    """`iv` itself if it already has these bounds and chi, else a new term."""
    return iv if lo == iv.lo and hi == iv.hi and chi == iv.chi else CohInterval(lo, hi, chi)


def _constant_chis(ranks, r_lo, r_hi, t_min, t_max, watched) -> dict[tuple[int, int], int]:
    """The chi of each term, keyed by its form in `_FORMS`, that is
    constant over the rank chains within the bounds that meet the watched
    chi ({form: chi}, at most one), given exact ranges r_lo..r_hi and
    t_min..t_max over those chains and one of them, `ranks`.

    With the bounds tightened to those ranges the chains are the integer
    points of a polytope with a totally unimodular matrix (see
    `propagate`), so their affine hull is the polytope's, cut out by its
    implicit equalities (Schrijver 1986, section 8.2): the forced ranks,
    the forced t_k and the watched chi.  The first two leave one move per
    block r_s..r_e of free ranks linked by forced t_s..t_{e-1}: raise r_s,
    r_{s+2}, ... and lower r_{s+1}, r_{s+3}, ... by one.  This changes only
    t_{s-1} (by 1) and t_e (by (-1)^(e-s)), so (chi_A, chi_C) by some v_i.
    A form is constant iff it vanishes on the sums of lambda_i v_i on
    which the watched form w (0 if none) does: if the v_i span the plane
    only w does; if at most a line through v, f does iff f . v = 0 or
    w . v != 0.  A constant chi has its value at `ranks`."""
    known, x, y, k = dict(watched), 0, 0, 1  # (x, y): the first nonzero v_i
    while k < 9:
        if r_lo[k] < r_hi[k]:
            (da, dc), start = _CHI_STEPS[k - 1], k
            while r_lo[k + 1] < r_hi[k + 1] and t_min[k] == t_max[k]:
                k += 1
            sign = -1 if (k - start) % 2 else 1
            da, dc = da + sign * _CHI_STEPS[k][0], dc + sign * _CHI_STEPS[k][1]
            if x * dc != y * da:
                return known
            if not (x or y):
                x, y = da, dc
        k += 1
    wa, wc = next(iter(watched), (0, 0))
    chi_a = ranks[0] + ranks[1] - ranks[3] - ranks[4] + ranks[6] + ranks[7]  # t_0 - t_3 + t_6
    chi_c = ranks[2] + ranks[3] - ranks[5] - ranks[6] + ranks[8] + ranks[9]  # t_2 - t_5 + t_8
    for form in _FORMS:
        if form not in known and (wa * x + wc * y or form[0] * x + form[1] * y == 0):
            known[form] = form[0] * chi_a + form[1] * chi_c
    return known


def _suffix_ranges(seq, lo, hi, r_lo, r_hi, steps):
    """reach[k] = (first, low, high, down, up): what t_k..t_8 can still add
    to the running sum of steps[j] t_j from r_k = first + i lies in
    [low[i], high[i]], and the r_k with a completion are exactly
    first .. first + len(low) - 1.  down[i] and up[i] add steps[k-1] r_k,
    the share of r_k in the term of t_{k-1} (None at k = 0).

    The completions are the integer points of a polytope with a totally
    unimodular matrix (see `propagate`), so a linear min (max) over them
    is the LP's, convex (concave) in r, and the r with a completion form
    an interval.  An extreme over the window of r_{k+1} that t_k allows
    thus sits at the overall extreme clamped into it: O(R) work a step."""
    reach = [None] * 10
    first, low, high = 0, [0], [0]
    for k in range(8, -1, -1):
        # offsets q - first of r_{k+1} = q: 0 .. n, and t_k's window t_lo - r .. t_hi - r
        w, t_lo, t_hi, n = steps[k], lo[k] - first, hi[k] - first, len(low) - 1
        if w:
            down = [w * q + v for q, v in enumerate(low, first)]
            up = [w * q + v for q, v in enumerate(high, first)]
        else:
            down, up = low, high
        reach[k + 1] = (first, low, high, down, up)
        m = down.index(min(down)) if n else 0
        M = up.index(max(up)) if n else 0
        start, stop = t_lo - n, t_hi
        if start < r_lo[k]:
            start = r_lo[k]
        if stop > r_hi[k]:
            stop = r_hi[k]
        if start > stop:
            raise _infeasible(seq)
        low, high = [], []
        for r in range(start, stop + 1):
            a, b = t_lo - r, t_hi - r
            if a < 0:
                a = 0
            if b > n:
                b = n
            low.append(w * r + down[a if m < a else b if m > b else m])
            high.append(w * r + up[a if M < a else b if M > b else M])
        first = start
    reach[0] = (first, low, high, None, None)
    return reach


def _prefix_ranges(seq, lo, hi, r_lo, r_hi, steps):
    """reach[k] = (first, low, high, down, up): what t_0..t_{k-1} add to the
    running sum of steps[j] t_j on the way to r_k = first + i lies in
    [low[i], high[i]], and down[i] and up[i] add steps[k] r_k, the share of
    r_k in the term of t_k (None at k = 9): `_suffix_ranges` on the
    reversed path."""
    return _suffix_ranges(seq, lo[::-1], hi[::-1], r_lo[::-1], r_hi[::-1], steps[::-1])[::-1]


def _one_watched(seq, lo, hi, r_lo, r_hi, watched):
    """Exact ranges r_lo, r_hi, t_min and t_max over the rank chains that
    meet the one watched chi ({form: chi}), and one such chain.

    By total unimodularity (see `propagate`) the running chi over the
    prefixes ending at r_k = r fill an interval, `_prefix_ranges`; over
    the suffixes starting there another, `_suffix_ranges`; and the two are
    independent given r.  So r_k = r is on a chain meeting the target iff
    the target lies in the sum of the two, and the edge
    (r_k, r_{k+1}) = (r, q) iff it lies in
    prefix(r) + w_k (r + q) + suffix(q).  For a kept r the kept q form an
    interval (the values of r_{k+1} on a section of an integral polytope),
    so the least and the greatest t_k = r + q are each found by one scan
    from an end of the window of t_k that stops at the first kept q, or
    where it could no longer beat the best found so far: at most
    9 (R + 1)^2 edge tests, whatever the values the chi can take.  The
    chain is walked the same way, with the one prefix value it has."""
    ((form, target),) = watched.items()
    steps = _STEPS[form]
    before = _prefix_ranges(seq, lo, hi, r_lo, r_hi, steps)
    after = _suffix_ranges(seq, lo, hi, r_lo, r_hi, steps)
    r_lo, r_hi = [0], [0]
    for k in range(1, 9):
        p, p_low, p_high, _, _ = before[k]
        s, s_low, s_high, _, _ = after[k]
        kept = [r for r in range(max(p, s), min(p + len(p_low), s + len(s_low)))
                if p_low[r - p] + s_low[r - s] <= target <= p_high[r - p] + s_high[r - s]]
        if not kept:
            raise _infeasible(seq)
        r_lo.append(kept[0])
        r_hi.append(kept[-1])
    r_lo.append(0)
    r_hi.append(0)

    t_min, t_max, ranks, x = [], [], [0], 0
    for k in range(9):
        w, t_lo, t_hi, q_lo, q_hi = steps[k], lo[k], hi[k], r_lo[k + 1], r_hi[k + 1]
        # (r, q) is kept iff p_down[r - p] + down[q - s] <= target <= p_up[r - p] + up[q - s]
        p, _, _, p_down, p_up = before[k]
        s, _, _, down, up = after[k + 1]
        least, most = t_hi + 1, t_lo - 1
        for r in range(r_lo[k], r_hi[k] + 1):
            above, below = target - p_down[r - p], target - p_up[r - p]
            a, b = t_lo - r, t_hi - r  # the window of q, met with the kept ranks
            if a < q_lo:
                a = q_lo
            if b > q_hi:
                b = q_hi
            for j in range(a - s, (b if b < least - r else least - r - 1) - s + 1):
                if down[j] <= above and up[j] >= below:
                    least = r + s + j
                    break
            for j in range(b - s, (a if a > most - r else most - r + 1) - s - 1, -1):
                if down[j] <= above and up[j] >= below:
                    most = r + s + j
                    break
        t_min.append(least)
        t_max.append(most)
        r = ranks[k]
        left, j = target - x - w * r, (t_lo - r if t_lo - r > q_lo else q_lo) - s
        while not down[j] <= left <= up[j]:
            j += 1
        ranks.append(s + j)
        x += w * (r + s + j)
    return r_lo, r_hi, t_min, t_max, ranks


def _two_watched(seq, lo, hi, r_lo, r_hi, watched):
    """Exact t ranges over the rank chains that meet two or more watched
    chi ({form: chi}); the first two in A, B, C order fix the third.

    A forward pass over states (r_k, x), x the running value of the first
    watched chi, stores its edges; each state carries the [min, max] of
    the running second chi over the prefixes that reach it.  A state is
    dropped when the first chi is out of reach from it (`_suffix_ranges`),
    or when no value in its interval plus what the rest of the path can
    add to the second chi meets that target.  A backward pass over the
    stored edges carries the [min, max] of what the rest of the path adds
    to the second chi, and keeps an edge iff the target lies in the
    forward interval of its source + v_k t_k + the backward interval of
    its end.  Each interval lies inside the gap-free set (see `propagate`)
    of the values over all prefixes reaching its state, or all completions
    leaving it, and holds the value of every chain through the state that
    meets both targets, so the edge test is exact."""
    (f1, f2), (target, target2) = list(watched)[:2], list(watched.values())[:2]
    steps, steps2 = _STEPS[f1], _STEPS[f2]
    reach = _suffix_ranges(seq, lo, hi, r_lo, r_hi, steps)
    reach2 = _suffix_ranges(seq, lo, hi, r_lo, r_hi, steps2)

    # layers[k]: each kept state at r_k -> [min, max of the running second
    # chi, the states at r_{k-1} it is reached from]
    layers = [{(0, 0): [0, 0, None]}]
    for k in range(9):
        w, v = steps[k], steps2[k]
        # both tables have the r_{k+1} = first + j with a completion, j = 0 .. n
        first, _, _, down, up = reach[k + 1]
        _, low2, high2, _, _ = reach2[k + 1]
        t_lo, t_hi, n = lo[k] - first, hi[k] - first, len(down) - 1
        layer: dict[tuple[int, int], list] = {}
        for state, (y_lo, y_hi, _) in layers[-1].items():
            r, x = state
            left, a, b = target - x - w * r, t_lo - r, t_hi - r
            if a < 0:
                a = 0
            if b > n:
                b = n
            for j in range(a, b + 1):
                if down[j] <= left <= up[j]:  # the first chi is still within reach
                    t = r + first + j
                    dst, c, d = (first + j, x + w * t), y_lo + v * t, y_hi + v * t
                    entry = layer.get(dst)
                    if entry is None:
                        layer[dst] = [c, d, [state]]
                    else:
                        if c < entry[0]:
                            entry[0] = c
                        if d > entry[1]:
                            entry[1] = d
                        entry[2].append(state)
        layer = {dst: entry for dst, entry in layer.items()
                 if low2[(j := dst[0] - first)] + entry[0] <= target2 <= high2[j] + entry[1]}
        if not layer:
            raise _infeasible(seq)
        layers.append(layer)

    # at r_9 = 0 nothing is left to add: the one kept state meets the first
    # chi, and its interval holds the second
    back = {state: (0, 0) for state in layers[-1]}
    t_min, t_max = [0] * 9, [0] * 9
    for k in range(8, -1, -1):
        v, forward, into = steps2[k], layers[k], layers[k + 1]
        least, most, earlier = hi[k] + 1, lo[k] - 1, {}
        for dst, (z_lo, z_hi) in back.items():
            for src in into[dst][2]:
                t = src[0] + dst[0]
                a, b = v * t + z_lo, v * t + z_hi
                entry = forward[src]
                if entry[0] + a <= target2 <= entry[1] + b:
                    if t < least:
                        least = t
                    if t > most:
                        most = t
                    span = earlier.get(src)
                    if span is None:
                        earlier[src] = [a, b]
                    else:
                        if a < span[0]:
                            span[0] = a
                        if b > span[1]:
                            span[1] = b
        t_min[k], t_max[k] = least, most
        back = earlier
    return t_min, t_max


def chain(seqs: list[LesInstance]) -> dict[str, CohInterval]:
    """Propagate several sequences sharing named terms to a common fixed point.

    Returns the final knowledge per term name.  Passes over the sequences
    in index order, repeated until a pass runs none: a sequence runs when
    the terms the table holds for it differ from what its last run
    returned (its input, if it was stuck).  `propagate` only narrows, so
    monotone narrowing operators reach the same greatest fixed point in any
    fair order (Apt, "The essence of constraint propagation", TCS 1999),
    and a returned term already is the meet of its input with what the
    sequence implies, so it is stored as is; terms are met only where one
    name has two different values: when the table is built, and for a name
    that occurs twice in one sequence.  No pass cap is needed: `propagate`
    either raises or returns finite bounds, so every term that changes is
    bounded from then on and can only narrow a finite number of times.  A
    sequence whose ranks are unbounded is retried when a term of it
    narrows, and its `UnboundedRankError` is raised if it is still stuck at
    the end; inconsistencies are reported with the label of the offending
    sequence.
    """
    table: dict[str, CohInterval] = {}

    def meet(seq: LesInstance, name: str, iv: CohInterval) -> None:
        old = table.get(name, iv)
        if old is not iv:
            try:
                iv = old.meet(iv, what=f"term {name!r}")
            except InconsistencyError as err:
                raise InconsistencyError(f"sequence {seq.label!r}: {err}") from None
        table[name] = iv

    for seq in seqs:
        for name, iv in zip(seq.names, (seq.a, seq.b, seq.c)):
            meet(seq, name, iv)
    last: list[tuple | None] = [None] * len(seqs)  # the terms each sequence's last run returned
    stuck: dict[int, UnboundedRankError] = {}
    ran = True
    while ran:
        ran = False
        for i, seq in enumerate(seqs):
            terms = tuple(table[n] for n in seq.names)
            if terms == last[i]:
                continue
            ran = True
            out = LesInstance(*terms, seq.names, seq.label, seq.ranks)
            try:
                out = propagate(out)
            except UnboundedRankError as err:
                stuck[i] = err
            else:
                stuck.pop(i, None)
                for name, term, iv in zip(seq.names, terms, (out.a, out.b, out.c)):
                    if table[name] is term:
                        table[name] = iv
                    else:
                        meet(seq, name, iv)
            last[i] = (out.a, out.b, out.c)
    if stuck:
        raise stuck[max(stuck)]
    return table
