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
maximum of every dimension over all nonnegative rank assignments, by
enumeration of the rank chain with forward pruning.  Bounds that collapse
(lo == hi) are forced; anything wider is honest partial knowledge.
`chain` runs several sequences that share named terms to a common fixed
point with a worklist: a sequence is propagated again only when one of its
terms narrowed since its last run.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_NODES = 2_000_000

_DEGREE_NAMES = ("h0", "h1", "h2")


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
        if self.chi is not None and all(h is not None for h in self.hi):
            if self.is_forced_all():
                pinned = self.lo[0] - self.lo[1] + self.lo[2]
                if pinned != self.chi:
                    raise ValueError(
                        f"chi = {self.chi} contradicts pinned dimensions {self.lo}"
                    )

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
        unbounded = False
        for j in range(k, -1, -1):
            if (k - j) % 2 == 0:
                if hi[j] is None:
                    unbounded = True
                    break
                best += hi[j]
            else:
                best -= lo[j]
        if unbounded:
            continue
        if best < 0:
            term = seq.names[k % 3]
            return (
                f"exactness at {_DEGREE_NAMES[k // 3]}({term}): the incoming rank "
                f"would have to be negative ({best})"
            )
    return "no nonnegative rank assignment fits the given bounds"


def _infeasible(seq: LesInstance) -> InconsistencyError:
    return InconsistencyError(
        (f"sequence {seq.label!r}: " if seq.label else "") + _diagnose(seq)
    )


def propagate(seq: LesInstance) -> LesInstance:
    """Tighten every dimension of a long exact sequence to its exact range.

    Enumerates all rank chains r_1..r_8 compatible with the bounds and chi
    constraints; each dimension's returned range is the exact min/max over
    the feasible set, and a term whose Euler characteristic is constant
    over that set gets its chi pinned.
    """
    lo, hi = _term_bounds(seq)
    lo = list(lo)
    hi = list(hi)
    chis = (seq.a.chi, seq.b.chi, seq.c.chi)
    if all(c is not None for c in chis) and chis[0] + chis[2] != chis[1]:
        raise _infeasible(seq)

    # Tighten ranks and dimensions to arc consistency before enumerating
    # (sound: discarded values admit no completion, so min/max survive).
    # r_k sits in t_{k-1} = r_{k-1} + r_k and t_k = r_k + r_{k+1}; a chi
    # constraint ties the three degrees of one term together.
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

    t_min = [None] * 9
    t_max = [None] * 9
    chi_seen: list[set[int]] = [set(), set(), set()]
    nodes = 0
    ranks = [0] * 10  # r_0..r_9, ends pinned to 0

    def record():
        ts = [ranks[k] + ranks[k + 1] for k in range(9)]
        for term in range(3):
            want = chis[term]
            value = ts[term] - ts[term + 3] + ts[term + 6]
            if want is not None and value != want:
                return
        for k, t in enumerate(ts):
            if t_min[k] is None or t < t_min[k]:
                t_min[k] = t
            if t_max[k] is None or t > t_max[k]:
                t_max[k] = t
        for term in range(3):
            chi_seen[term].add(ts[term] - ts[term + 3] + ts[term + 6])

    def walk(k: int):
        # choosing r_{k+1}; t_k = r_k + r_{k+1} must land in [lo_k, hi_k]
        nonlocal nodes
        nodes += 1
        if nodes > MAX_NODES:
            raise UnboundedRankError(
                f"rank enumeration exceeded {MAX_NODES} nodes"
                + (f" in sequence {seq.label!r}" if seq.label else "")
            )
        if k == 8:
            if lo[8] <= ranks[8] and (hi[8] is None or ranks[8] <= hi[8]):
                record()
            return
        r_k = ranks[k]
        start = max(r_min[k + 1], lo[k] - r_k)
        stop = r_max[k + 1] if hi[k] is None else min(hi[k] - r_k, r_max[k + 1])
        for r in range(start, stop + 1):
            ranks[k + 1] = r
            walk(k + 1)
        ranks[k + 1] = 0

    walk(0)

    if t_min[0] is None:
        raise _infeasible(seq)

    def interval(term: int, chi_in: int | None) -> CohInterval:
        lo_t = (t_min[term], t_min[term + 3], t_min[term + 6])
        hi_t = (t_max[term], t_max[term + 3], t_max[term + 6])
        chi = chi_in
        if chi is None and len(chi_seen[term]) == 1:
            chi = next(iter(chi_seen[term]))
        return CohInterval(lo_t, hi_t, chi)

    return LesInstance(
        interval(0, chis[0]),
        interval(1, chis[1]),
        interval(2, chis[2]),
        seq.names,
        seq.label,
    )


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
