"""Exact interval calculus for long exact cohomology sequences.

A short exact sequence of sheaves 0 -> A -> B -> C -> 0 on a surface gives
the nine-term long exact sequence

  0 -> H0A -> H0B -> H0C -> H1A -> H1B -> H1C -> H2A -> H2B -> H2C -> 0.

Writing r_k for the rank of the map into the k-th term (r_0 = r_9 = 0),
exactness is equivalent to

  t_k = r_k + r_{k+1},   r_k >= 0,

and this rank model is the single source of truth here.  Given per-degree
integer bounds on the nine dimensions (plus optional exact Euler
characteristics per term), `propagate` computes the exact minimum and
maximum of every dimension over all nonnegative rank assignments.  A
forward and a backward sweep along the path of ranks, with caps from the
fixed Euler characteristics, bound the ranks.  Without a *watched* Euler
characteristic (a fixed one on a term the input does not pin) that sweep
is already exact on the path (Freuder 1982), and an Euler characteristic
is constant iff no free block of ranks linked by forced dimensions moves
it (the affine hull of a totally unimodular polytope is cut out by its
implicit equalities; Schrijver 1986, section 8.2): at most 9 sweeps,
whatever the magnitudes.  Otherwise a forward/backward DP over the rank
chain makes the ranges exact; its state is r_k and the running Euler
characteristic of the one watched term, or of two terms when two or more
are watched, and it drops every state from which a watched value is out
of reach.  For R the largest rank bound and X <= 3 H + 1 the values a
running Euler characteristic can take, H the largest dimension bound,
that is at most 9 (R + 1)^2 X DP edges with one watched and
9 (R + 1)^2 X^2 with more.  Bounds that collapse (lo == hi) are forced;
anything wider is honest partial knowledge.
`chain` runs several sequences that share named terms to a common fixed
point with a worklist indexed by term name: a step that narrows a name
queues the sequences using it, so a sequence is propagated again only when
one of its terms narrowed since its last run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf

_DEGREE_NAMES = ("h0", "h1", "h2")

# Change in the running chi of terms A and C per unit of t_k = h^(k // 3)(term k % 3).
_CHI_STEPS = ((1, 0), (0, 0), (0, 1), (-1, 0), (0, 0), (0, -1), (1, 0), (0, 0), (0, 1))
# The chi of terms A, B and C on a complete chain, as coefficients of
# (chi_A, chi_C): chi_B = chi_A + chi_C by exactness.
_FORMS = ((1, 0), (1, 1), (0, 1))


class InconsistencyError(ValueError):
    """No nonnegative rank assignment satisfies the given constraints."""


class UnboundedRankError(RuntimeError):
    """Two consecutive unbounded terms leave a connecting rank unbounded."""


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
            if (type(lo_i) is not int and (not isinstance(lo_i, int) or isinstance(lo_i, bool))
                    or lo_i < 0):
                raise ValueError(f"lower bounds must be integers >= 0, got {lo_i!r}")
            if hi_i is not None:
                if type(hi_i) is not int and (not isinstance(hi_i, int) or isinstance(hi_i, bool)):
                    raise ValueError(f"upper bounds must be integers or None, got {hi_i!r}")
                if hi_i < lo_i:
                    raise ValueError(f"empty bound [{lo_i}, {hi_i}]")
        if type(lo) is not tuple or type(hi) is not tuple:
            # stored as tuples, so that `is_forced_all` can compare them whole
            object.__setattr__(self, "lo", tuple(lo))
            object.__setattr__(self, "hi", tuple(hi))
        if chi is None:
            return
        if type(chi) is not int and (not isinstance(chi, int) or isinstance(chi, bool)):
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
class LesInstance:
    """One short exact sequence 0 -> A -> B -> C -> 0 with current knowledge.

    `names` identifies the three sheaves when several sequences are chained;
    `label` names the sequence itself in error messages.
    """

    a: CohInterval
    b: CohInterval
    c: CohInterval
    names: tuple[str, str, str] = ("A", "B", "C")
    label: str = ""


def _term_bounds(seq: LesInstance):
    """Bounds for t_0..t_8 in long-exact-sequence order (H0A, H0B, ...), inf if none."""
    lo, hi = [], []
    for degree in range(3):
        for iv in (seq.a, seq.b, seq.c):
            lo.append(iv.lo[degree])
            hi.append(inf if iv.hi[degree] is None else iv.hi[degree])
    return lo, hi


def _sweep(lo, hi):
    """Exact intervals [r_lo[k], r_hi[k]] of r_0..r_9 over the rank chains
    with lo_k <= r_k + r_{k+1} <= hi_k, chi ignored; if there is none, the
    lists stop at the first empty interval.  On a path a forward pass (what
    r_0..r_{k-1} leave for r_k) and a backward pass (what of it r_{k+1}..r_9
    can finish) are exact, the image of an interval being an interval:
    directional arc consistency (Dechter and Pearl 1987, "Network-based
    heuristics for constraint-satisfaction problems")."""
    r_lo, r_hi = [0], [0]
    for k in range(9):
        r_lo.append(max(0, lo[k] - r_hi[k]))
        r_hi.append(hi[k] - r_lo[k] if k < 8 else min(0, hi[k] - r_lo[k]))
        if r_hi[-1] < r_lo[-1]:
            return r_lo, r_hi
    for k in range(8, 0, -1):
        r_lo[k] = max(r_lo[k], lo[k] - r_hi[k + 1])
        r_hi[k] = min(r_hi[k], hi[k] - r_lo[k + 1])
    return r_lo, r_hi


def _infeasible(seq: LesInstance) -> InconsistencyError:
    """The error for an infeasible instance, naming a violated relation
    when chi additivity or the sweep of its own bounds shows one."""
    chis = (seq.a.chi, seq.b.chi, seq.c.chi)
    r_hi = _sweep(*_term_bounds(seq))[1]
    k = len(r_hi) - 2  # the term the last swept rank leaves
    if None not in chis and chis[0] + chis[2] != chis[1]:
        why = (f"chi additivity: chi({seq.names[1]}) = {chis[1]} but "
               f"chi({seq.names[0]}) + chi({seq.names[2]}) = {chis[0] + chis[2]}")
    elif r_hi[-1] < 0:
        why = (f"exactness at {_DEGREE_NAMES[k // 3]}({seq.names[k % 3]}): the "
               f"incoming rank would have to be negative ({r_hi[-1]})")
    else:
        why = "no nonnegative rank assignment fits the given bounds"
    return InconsistencyError((f"sequence {seq.label!r}: " if seq.label else "") + why)


def _rank_bounds(seq: LesInstance):
    """Bounds (lo, hi, r_lo, r_hi) on the nine dimensions and the ranks
    r_0..r_9 that every feasible rank chain keeps, all finite.

    Repeats {sweep the ranks; let them cap the dimensions; let each fixed
    chi cap each degree of its term from the other two} only while some
    dimension goes from unbounded to bounded: at most 9 sweeps whatever the
    magnitudes, since with all nine unbounded nothing bounds one.  So
    whether a rank stays unbounded (`UnboundedRankError`) depends only on
    which bounds are finite and which chi are fixed.  The chi caps only
    make the ranks finite; `propagate` applies chi exactly.  A term the
    input pins is skipped: its chi caps each degree at its pinned value."""
    lo, hi = _term_bounds(seq)
    chis = (seq.a.chi, seq.b.chi, seq.c.chi)
    if None not in chis and chis[0] + chis[2] != chis[1]:
        raise _infeasible(seq)
    capped = [(term, iv.chi) for term, iv in enumerate((seq.a, seq.b, seq.c))
              if iv.chi is not None and not iv.is_forced_all()]
    while True:
        r_lo, r_hi = _sweep(lo, hi)
        if r_hi[-1] < r_lo[-1]:
            raise _infeasible(seq)
        hi = [min(h, r_hi[k] + r_hi[k + 1]) for k, h in enumerate(hi)]
        unbounded = hi.count(inf)
        for term, chi in capped:
            for d in range(3):
                # t_d = s_d (chi - sum of s_e t_e), s = (1, -1, 1): a degree of
                # opposite sign counts at its top, one of equal sign at its bottom
                hi[term + 3 * d] = min(hi[term + 3 * d], (-chi if d == 1 else chi) + sum(
                    hi[term + 3 * e] if 1 in (d, e) else -lo[term + 3 * e]
                    for e in range(3) if e != d))
        if any(h < l for l, h in zip(lo, hi)):
            raise _infeasible(seq)
        if hi.count(inf) == unbounded:
            break
    if inf in r_hi:
        k = r_hi.index(inf)
        raise UnboundedRankError(
            f"terms {_DEGREE_NAMES[(k - 1) // 3]}({seq.names[(k - 1) % 3]}) and "
            f"{_DEGREE_NAMES[k // 3]}({seq.names[k % 3]}) are both unbounded")
    return lo, hi, r_lo, r_hi


def propagate(seq: LesInstance) -> LesInstance:
    """Tighten every dimension of a long exact sequence to its exact range.

    Each dimension's returned range is the exact min/max over all rank
    chains r_1..r_8 compatible with the bounds and chi constraints, and a
    term whose Euler characteristic is constant over them gets its chi
    pinned.  A fixed chi on a term the input does not pin is *watched*: it
    ties ranks far apart on the path of constraints t_k = r_k + r_{k+1}.
    The work depends on how many are watched:

    - none: the sweep of `_rank_bounds` is exact on the path (Freuder 1982,
      "A sufficient condition for backtrack-free search"), so t_k ranges
      over [max(lo_k, r_lo[k] + r_lo[k+1]), min(hi_k, r_hi[k] + r_hi[k+1])]
      and `_constant_chis` reads the chi off the forced ranks and t_k
      (Schrijver 1986, section 8.2): at most 9 sweeps whatever the
      magnitudes;
    - one: `_chi_dp` over states (r_k, that running chi), each carrying the
      min and max of one other running chi: at most 9 (R + 1)^2 X edges;
    - two or more: `_chi_dp` over states (r_k, two running chi), which fix
      the third: at most 9 (R + 1)^2 X^2 edges;

    for R the largest rank bound and X <= 3 H + 1 the values a running chi
    can take, H the largest dimension bound."""
    lo, hi, r_lo, r_hi = _rank_bounds(seq)
    # a term the input pins has its chi on every chain within the bounds;
    # the fixed chi of the others are watched
    watched = {_FORMS[term]: iv.chi for term, iv in enumerate((seq.a, seq.b, seq.c))
               if iv.chi is not None and not iv.is_forced_all()}
    if watched:
        t_min, t_max, known = _chi_dp(seq, lo, hi, r_lo, r_hi, watched)
    else:
        t_min = [max(l, r_lo[k] + r_lo[k + 1]) for k, l in enumerate(lo)]
        t_max = [min(h, r_hi[k] + r_hi[k + 1]) for k, h in enumerate(hi)]
        known = _constant_chis(lo, r_lo, r_hi, t_min, t_max)
    a, b, c = (known.get(form) for form in _FORMS)
    if [a, b, c].count(None) == 1:  # chi_B = chi_A + chi_C fixes the third
        a, b, c = (b - c if a is None else a, a + c if b is None else b,
                   b - a if c is None else c)
    terms = (CohInterval(tuple(t_min[i::3]), tuple(t_max[i::3]), chi)
             for i, chi in enumerate((a, b, c)))
    return LesInstance(*terms, seq.names, seq.label)


def _constant_chis(lo, r_lo, r_hi, t_min, t_max) -> dict[tuple[int, int], int]:
    """The chi of each term that is constant over the rank chains within
    the bounds, keyed by its form in `_FORMS`, when no chi is watched.

    The chains are the integer points of a polytope with a totally
    unimodular matrix, so their affine hull is the polytope's, cut out by
    its implicit equalities (Schrijver 1986, "Theory of linear and integer
    programming", section 8.2): the forced ranks and the forced t_k.  Its
    directions are spanned by one move per block r_s..r_e of free ranks
    linked by forced t_s..t_{e-1}: raise r_s, r_{s+2}, ... and lower
    r_{s+1}, r_{s+3}, ... by one.  Inside the block every t stays put, so
    the move changes only t_{s-1} (by 1) and t_e (by (-1)^(e-s)).  A chi
    is constant iff no move changes it, and then it has its value at a
    greedy feasible chain."""
    moves, k = [], 1
    while k < 9:
        start = k
        if r_lo[k] < r_hi[k]:
            while r_lo[k + 1] < r_hi[k + 1] and t_min[k] == t_max[k]:
                k += 1
            moves.append((start - 1, k, (-1) ** (k - start)))
        k += 1
    ranks = [0]
    for k in range(9):
        ranks.append(max(r_lo[k + 1], lo[k] - ranks[k]))
    known = {}
    for form in _FORMS:
        steps = [form[0] * da + form[1] * dc for da, dc in _CHI_STEPS]
        if all(steps[first] + sign * steps[last] == 0 for first, last, sign in moves):
            known[form] = sum(w * (ranks[k] + ranks[k + 1]) for k, w in enumerate(steps))
    return known


def _suffix_ranges(seq, lo, hi, r_lo, r_hi, steps):
    """reach[k][r] = (min, max) of what t_k..t_8 can still add to the
    running sum of steps[j] t_j, from r_k = r (no entry: no completion).

    The completions are the integer points of a polytope with a totally
    unimodular matrix, so a linear min (max) over them is the LP's, convex
    (concave) in r, and a step's entries form an interval.  An extreme over
    the window of r_{k+1} that t_k allows thus sits at the overall extreme
    clamped into it: O(R) work a step."""
    reach: list[dict[int, tuple[int, int]]] = [{} for _ in range(9)]
    reach.append({0: (0, 0)})
    for k in range(8, -1, -1):
        w, after, out = steps[k], reach[k + 1], reach[k]
        if not after:
            raise _infeasible(seq)
        first, last = min(after), max(after)
        q_min = min(after, key=lambda q: w * q + after[q][0])
        q_max = max(after, key=lambda q: w * q + after[q][1])
        for r in range(r_lo[k], r_hi[k] + 1):
            a, b = max(first, lo[k] - r), min(last, hi[k] - r)
            if a <= b:
                qa = a if q_min < a else b if q_min > b else q_min
                qb = a if q_max < a else b if q_max > b else q_max
                out[r] = (w * (r + qa) + after[qa][0], w * (r + qb) + after[qb][1])
    return reach


def _chi_dp(seq, lo, hi, r_lo, r_hi, watched):
    """Exact t ranges and the constant chi, keyed by form, over the rank
    chains that meet every watched chi ({form: chi}, form in `_FORMS`).

    A forward/backward DP over r_0..r_9 whose state is r_k and the running
    values of one watched chi, or of the first two in A, B, C order when
    two or more are watched (the third is then their sum or difference on
    every chain).  It drops every state from which a watched chi is out of
    reach.  With one watched, each state also carries the min and max of
    one other running chi, chi_C if A is watched and chi_A otherwise,
    which decides whether the two unwatched chi are constant."""
    forms = list(watched)[:2]
    targets = [watched[f] for f in forms]
    steps = [tuple(fa * da + fc * dc for fa, fc in forms) for da, dc in _CHI_STEPS]

    reach = [_suffix_ranges(seq, lo, hi, r_lo, r_hi, [w[j] for w in steps])
             for j in range(len(forms))]

    # Forward: edges[k] maps each state reached by t_k = r_k + r_{k+1} from
    # which every watched chi is within reach to the states it is reached
    # from; with one watched, spans[state] = (min, max) of the other running
    # chi over the prefixes that reach it.
    other_form = (0, 1) if forms[0] == (1, 0) else (1, 0)
    other = [other_form[0] * da + other_form[1] * dc for da, dc in _CHI_STEPS]
    layer = {(0,) * (1 + len(forms)): None}
    spans = {(0, 0): (0, 0)}
    edges = []
    for k in range(9):
        reached: dict[tuple[int, ...], list] = {}
        low, high, t_low, t_high = r_lo[k + 1], r_hi[k + 1], lo[k], hi[k]
        g = reach[0][k + 1]
        if len(forms) == 1:
            (w,), o, (target,) = steps[k], other[k], targets
            merged = {}
            for state in layer:
                r, x = state
                a, b = spans[state]
                for r_next in range(max(low, t_low - r), min(high, t_high - r) + 1):
                    t = r + r_next
                    dst, low_o, high_o = (r_next, x + w * t), a + o * t, b + o * t
                    if dst in reached:
                        reached[dst].append(state)
                        span = merged[dst]
                        if low_o < span[0]:
                            span[0] = low_o
                        if high_o > span[1]:
                            span[1] = high_o
                    else:
                        reached[dst] = [state]
                        merged[dst] = [low_o, high_o]
            layer = {s: srcs for s, srcs in reached.items()
                     if (e := g.get(s[0])) and e[0] <= target - s[1] <= e[1]}
            spans = merged
        else:
            (w, v), (target, target2), g2 = steps[k], targets, reach[1][k + 1]
            for state in layer:
                r, x, y = state
                for r_next in range(max(low, t_low - r), min(high, t_high - r) + 1):
                    t = r + r_next
                    reached.setdefault((r_next, x + w * t, y + v * t), []).append(state)
            layer = {s: srcs for s, srcs in reached.items()
                     if (e := g.get(s[0]))
                     and e[0] <= target - s[1] <= e[1]
                     and (f := g2[s[0]])[0] <= target2 - s[2] <= f[1]}
        if not layer:
            raise _infeasible(seq)
        edges.append(layer)
    # at r_9 = 0 nothing is left to add, so the one kept state meets every
    # watched chi exactly; backward over the surviving edges
    known = dict(watched)
    if len(forms) == 1:
        (final,) = layer
        a, b = spans[final]
        if a == b:
            known[other_form] = a
    alive = list(layer)
    t_min, t_max = [0] * 9, [0] * 9
    for k in range(8, -1, -1):
        ts = [src[0] + dst[0] for dst in alive for src in edges[k][dst]]
        t_min[k], t_max[k] = min(ts), max(ts)
        alive = {src for dst in alive for src in edges[k][dst]}
    return t_min, t_max, known


def chain(seqs: list[LesInstance]) -> dict[str, CohInterval]:
    """Propagate several sequences sharing named terms to a common fixed point.

    Returns the final knowledge per term name.  A worklist (AC-3; Mackworth
    1977, "Consistency in networks of relations") over an index from each
    term name to the sequences that use it: every sequence is propagated
    once, in order; a returned term is met into the table only when it
    differs from the entry there, and each step queues, in index order, the
    sequences not yet queued that use a name the step narrowed.  (The step's
    own sequence is queued again only if the table now differs from what it
    returned, which takes a term name repeated within it.)  No round cap is
    needed: `propagate` either raises or returns finite bounds, so every
    term that changes is bounded from then on and can only narrow a finite
    number of times.  A sequence whose ranks are unbounded is retried when a
    term of it narrows, and its `UnboundedRankError` is raised if it is
    still stuck at the end; inconsistencies are reported with the label of
    the offending sequence.
    """
    table: dict[str, CohInterval] = {}

    def meet(seq: LesInstance, name: str, iv: CohInterval) -> None:
        if name in table:
            try:
                iv = table[name].meet(iv, what=f"term {name!r}")
            except InconsistencyError as err:
                raise InconsistencyError(f"sequence {seq.label!r}: {err}") from None
        table[name] = iv

    users: dict[str, list[int]] = {}  # name -> indices of the sequences using it
    for i, seq in enumerate(seqs):
        for name, iv in zip(seq.names, (seq.a, seq.b, seq.c)):
            meet(seq, name, iv)
        for name in set(seq.names):
            users.setdefault(name, []).append(i)

    queue = deque(range(len(seqs)))
    queued = [True] * len(seqs)
    stuck: dict[int, UnboundedRankError] = {}
    while queue:
        i = queue.popleft()
        queued[i] = False
        seq = seqs[i]
        try:
            out = propagate(LesInstance(*(table[n] for n in seq.names), seq.names, seq.label))
        except UnboundedRankError as err:
            stuck[i] = err
            continue
        stuck.pop(i, None)
        terms = (out.a, out.b, out.c)
        narrowed = set()  # a returned term lies inside its input, so one that differs narrows
        for name, iv in zip(seq.names, terms):
            if iv != table[name]:
                meet(seq, name, iv)
                narrowed.add(name)
        if not narrowed:
            continue
        again = {j for name in narrowed for j in users[name] if not queued[j] and j != i}
        if any(table[n] != iv for n, iv in zip(seq.names, terms)):
            again.add(i)
        for j in sorted(again):
            queue.append(j)
            queued[j] = True
    if stuck:
        raise stuck[max(stuck)]
    return table
