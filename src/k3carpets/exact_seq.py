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
maximum of every dimension over all nonnegative rank assignments: arc
consistency bounds the ranks, then a forward/backward DP over the rank
chain whose state is r_k and the running Euler characteristics of A and
C.  The work is polynomial in the bounds: at most 9 (R + 1)^2 X^2 DP edges
for R the largest rank bound and X <= 3 H + 1 the values a running Euler
characteristic can take, H the largest dimension bound.  Bounds that
collapse (lo == hi) are forced; anything wider is honest partial
knowledge.
`chain` runs several sequences that share named terms to a common fixed
point with a worklist: a sequence is propagated again only when one of its
terms narrowed since its last run.
"""

from __future__ import annotations

from dataclasses import dataclass

_DEGREE_NAMES = ("h0", "h1", "h2")

# Change in the running chi of terms A and C per unit of t_k = h^(k // 3)(term k % 3).
_CHI_STEPS = ((1, 0), (0, 0), (0, 1), (-1, 0), (0, 0), (0, -1), (1, 0), (0, 0), (0, 1))


class InconsistencyError(ValueError):
    """No nonnegative rank assignment satisfies the given constraints."""


class UnboundedRankError(RuntimeError):
    """Two consecutive unbounded terms leave a connecting rank unbounded."""


def _check_bound(lo, hi):
    if not isinstance(lo, int) or isinstance(lo, bool) or lo < 0:
        raise ValueError(f"lower bounds must be integers >= 0, got {lo!r}")
    if hi is not None:
        if not isinstance(hi, int) or isinstance(hi, bool):
            raise ValueError(f"upper bounds must be integers or None, got {hi!r}")
        if hi < lo:
            raise ValueError(f"empty bound [{lo}, {hi}]")


@dataclass(frozen=True)
class CohInterval:
    """Per-degree bounds lo_i <= h^i <= hi_i (hi None = unbounded) plus an
    optional exact chi side-constraint."""

    lo: tuple[int, int, int] = (0, 0, 0)
    hi: tuple[int | None, int | None, int | None] = (None, None, None)
    chi: int | None = None

    def __post_init__(self):
        for lo_i, hi_i in zip(self.lo, self.hi):
            _check_bound(lo_i, hi_i)
        if self.chi is not None and self.is_forced_all():
            pinned = self.lo[0] - self.lo[1] + self.lo[2]
            if pinned != self.chi:
                raise ValueError(f"chi = {self.chi} contradicts pinned dimensions {self.lo}")

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
        return all(self.is_forced(i) for i in range(3))

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
    """Bounds for t_0..t_8 in long-exact-sequence order (H0A, H0B, H0C, ...)."""
    lo, hi = [], []
    for degree in range(3):
        for iv in (seq.a, seq.b, seq.c):
            lo.append(iv.lo[degree])
            hi.append(iv.hi[degree])
    return lo, hi


def _diagnose(seq: LesInstance) -> str:
    """Name a violated relation for an infeasible instance."""
    lo, hi = _term_bounds(seq)
    chis = (seq.a.chi, seq.b.chi, seq.c.chi)
    if all(c is not None for c in chis) and chis[0] + chis[2] != chis[1]:
        return (
            f"chi additivity: chi({seq.names[1]}) = {chis[1]} but "
            f"chi({seq.names[0]}) + chi({seq.names[2]}) = {chis[0] + chis[2]}"
        )
    # Exactness makes each connecting rank an alternating partial sum of the
    # dimensions; if its maximum over the boxes is negative, no assignment
    # exists and the first offending term names the violation.
    for k in range(9):
        best = 0
        for j in range(k, -1, -1):
            if (k - j) % 2:
                best -= lo[j]
            elif hi[j] is None:
                break  # unbounded
            else:
                best += hi[j]
        else:
            if best < 0:
                return (
                    f"exactness at {_DEGREE_NAMES[k // 3]}({seq.names[k % 3]}): the "
                    f"incoming rank would have to be negative ({best})"
                )
    return "no nonnegative rank assignment fits the given bounds"


def _infeasible(seq: LesInstance) -> InconsistencyError:
    return InconsistencyError(
        (f"sequence {seq.label!r}: " if seq.label else "") + _diagnose(seq)
    )


def _rank_bounds(seq: LesInstance):
    """Arc-consistent bounds (lo, hi, r_min, r_max) on the nine dimensions
    and the ranks r_0..r_9, every rank bounded; sound, since a discarded
    value admits no completion.  r_k sits in t_{k-1} = r_{k-1} + r_k and
    t_k = r_k + r_{k+1}; a chi constraint ties one term's degrees together."""
    lo, hi = _term_bounds(seq)
    chis = (seq.a.chi, seq.b.chi, seq.c.chi)
    if all(c is not None for c in chis) and chis[0] + chis[2] != chis[1]:
        raise _infeasible(seq)
    r_min = [0] * 10
    r_max: list[int | None] = [None] * 10
    r_max[0] = r_max[9] = 0
    for _ in range(80):
        changed = False
        for k in range(1, 9):
            lows = [0]
            highs = [] if r_max[k] is None else [r_max[k]]
            for t, partner in ((k - 1, k - 1), (k, k + 1)):
                if r_max[partner] is not None:
                    lows.append(lo[t] - r_max[partner])
                if hi[t] is not None:
                    highs.append(hi[t] - r_min[partner])
            new_min = max(lows)
            new_max = min(highs) if highs else None
            if new_min > r_min[k]:
                r_min[k] = new_min
                changed = True
            if new_max is not None and (r_max[k] is None or new_max < r_max[k]):
                r_max[k] = new_max
                changed = True
            if r_max[k] is not None and r_min[k] > r_max[k]:
                raise _infeasible(seq)
        for k in range(9):
            if r_max[k] is not None and r_max[k + 1] is not None:
                cap = r_max[k] + r_max[k + 1]
                if hi[k] is None or cap < hi[k]:
                    hi[k] = cap
                    changed = True
            floor = r_min[k] + r_min[k + 1]
            if floor > lo[k]:
                lo[k] = floor
                changed = True
            if hi[k] is not None and lo[k] > hi[k]:
                raise _infeasible(seq)
        for term in range(3):
            c = chis[term]
            if c is None:
                continue
            # t_a - t_b + t_c = chi with (a, b, c) the term's three degrees
            ta, tb, tc = term, term + 3, term + 6
            for target, sign in ((ta, 1), (tb, -1), (tc, 1)):
                others = [t for t in (ta, tb, tc) if t != target]
                up = down = c if sign > 0 else -c
                for other in others:
                    osign = -1 if other == tb else 1
                    coeff = osign * -sign  # move the other term across
                    if coeff > 0:
                        up = None if hi[other] is None or up is None else up + hi[other]
                        down = down + lo[other] if down is not None else None
                    else:
                        up = None if up is None else up - lo[other]
                        down = None if hi[other] is None or down is None else down - hi[other]
                if down is not None and down > lo[target]:
                    lo[target] = down
                    changed = True
                if up is not None and (hi[target] is None or up < hi[target]):
                    hi[target] = up
                    changed = True
                if hi[target] is not None and lo[target] > hi[target]:
                    raise _infeasible(seq)
        if not changed:
            break
    for k in range(1, 9):
        if r_max[k] is None:
            raise UnboundedRankError(
                f"terms {_DEGREE_NAMES[(k - 1) // 3]}({seq.names[(k - 1) % 3]}) and "
                f"{_DEGREE_NAMES[k // 3]}({seq.names[k % 3]}) are both unbounded"
            )
    return lo, hi, r_min, r_max


def propagate(seq: LesInstance) -> LesInstance:
    """Tighten every dimension of a long exact sequence to its exact range.

    Each dimension's returned range is the exact min/max over all rank
    chains r_1..r_8 compatible with the bounds and chi constraints, and a
    term whose Euler characteristic is constant over them gets its chi
    pinned.  Arc consistency alone is exact on the path of constraints
    t_k = r_k + r_{k+1} (Freuder 1982, "A sufficient condition for
    backtrack-free search"), but chi ties ranks far apart on it; so a
    forward/backward DP over r_0..r_9 carries the running chi of terms A
    and C in its state (chi_B = chi_A + chi_C holds identically).
    """
    lo, hi, r_min, r_max = _rank_bounds(seq)
    chis = (seq.a.chi, seq.b.chi, seq.c.chi)

    # Forward: steps[k] maps each state (r_{k+1}, chi_A, chi_C so far) to
    # the states it is reached from; t_k = r_k + r_{k+1}.
    layer = [(0, 0, 0)]
    steps = []
    for k, (da, dc) in enumerate(_CHI_STEPS):
        reached: dict[tuple[int, int, int], list] = {}
        for state in layer:
            r, xa, xc = state
            top = r_max[k + 1] if hi[k] is None else min(hi[k] - r, r_max[k + 1])
            for r_next in range(max(r_min[k + 1], lo[k] - r), top + 1):
                t = r + r_next
                reached.setdefault((r_next, xa + da * t, xc + dc * t), []).append(state)
        steps.append(reached)
        layer = reached
    # End filter (r_9 = 0 already), then backward over the surviving edges.
    alive = [(r, xa, xc) for r, xa, xc in layer
             if chis[0] in (None, xa) and chis[1] in (None, xa + xc) and chis[2] in (None, xc)]
    if not alive:
        raise _infeasible(seq)
    chi_seen = ({s[1] for s in alive}, {s[1] + s[2] for s in alive}, {s[2] for s in alive})
    t_min, t_max = [0] * 9, [0] * 9
    for k in range(8, -1, -1):
        ts = [src[0] + dst[0] for dst in alive for src in steps[k][dst]]
        t_min[k], t_max[k] = min(ts), max(ts)
        alive = {src for dst in alive for src in steps[k][dst]}

    # a fixed chi is the only value its term's chi takes on the kept states
    terms = (CohInterval(tuple(t_min[i::3]), tuple(t_max[i::3]),
                         min(seen) if len(seen) == 1 else None)
             for i, seen in enumerate(chi_seen))
    return LesInstance(*terms, seq.names, seq.label)


def chain(seqs: list[LesInstance]) -> dict[str, CohInterval]:
    """Propagate several sequences sharing named terms to a common fixed point.

    Returns the final knowledge per term name.  A worklist (AC-3; Mackworth
    1977, "Consistency in networks of relations"): every sequence is
    propagated once, and again only when one of its terms narrowed since
    its last run.  No round cap is needed: `propagate` either raises or
    returns finite bounds, so every term that changes is bounded from then
    on and can only narrow a finite number of times.  A sequence whose
    ranks are unbounded is retried when a term of it narrows, and its
    `UnboundedRankError` is raised if it is still stuck at the end;
    inconsistencies are reported with the label of the offending sequence.
    """
    table: dict[str, CohInterval] = {}

    def meet(seq: LesInstance, name: str, iv: CohInterval) -> None:
        if name in table:
            try:
                iv = table[name].meet(iv, what=f"term {name!r}")
            except InconsistencyError as err:
                raise InconsistencyError(f"sequence {seq.label!r}: {err}") from None
        table[name] = iv

    for seq in seqs:
        for name, iv in zip(seq.names, (seq.a, seq.b, seq.c)):
            meet(seq, name, iv)

    queue = list(range(len(seqs)))
    last: dict[int, tuple[CohInterval, ...]] = {}  # terms after each last run
    stuck: dict[int, UnboundedRankError] = {}
    while queue:
        i = queue.pop(0)
        seq = seqs[i]
        current = LesInstance(*(table[n] for n in seq.names), seq.names, seq.label)
        try:
            current = propagate(current)
        except UnboundedRankError as err:
            stuck[i] = err
        else:
            stuck.pop(i, None)
            for name, iv in zip(seq.names, (current.a, current.b, current.c)):
                meet(seq, name, iv)
        last[i] = (current.a, current.b, current.c)
        queue.extend(
            j for j, other in enumerate(seqs)
            if j not in queue and tuple(table[n] for n in other.names) != last[j]
        )
    if stuck:
        raise stuck[max(stuck)]
    return table
