"""Fixed command lines and seeded inputs for the benchmark workloads.

Everything here is plain data: the program under test only ever sees the
argument lists and interval bounds produced below.
"""

from __future__ import annotations

import math
import random

# The grid of the `sweep` workload: 1,692 rows, 12 of them the expected
# "no embedded carpet exists" rows for P2 with d <= 2.
SWEEP_ARGS = ["sweep", "--e", "0..6", "--a", "1..6", "--db", "1..6",
              "--extra", "0..5", "--d", "1..30"]
SWEEP_EXPECTED_ERRORS = 12
SMOKE_SWEEP_ARGS = ["sweep", "--e", "0..1", "--a", "1..2", "--db", "1..2",
                    "--extra", "0..1", "--d", "1..3"]
SMOKE_SWEEP_EXPECTED_ERRORS = 4

ORACLE_SURFACES = ["P2"] + [f"F{e}" for e in range(13)]
ORACLE_ITEMS = 120
ORACLE_MAX_COEFF = 1000


def oracle_queries(seed: int, count: int, max_coeff: int) -> list[list[str]]:
    """`coh <S> <D> --oracle` argument lists with log-uniform coefficients.

    Item i has its coefficient magnitude in the i-th of `count` equal
    log-spaced strata of [1, max_coeff], the magnitude of its second
    coefficient in the ((3 i) mod 10)-th tenth of [0, that coefficient];
    its surface, the two signs and which coefficient comes first are fixed
    by i, cycling through every combination.  So each item's cost barely
    moves with the seed, which picks the points inside the strata.
    """
    rng = random.Random(seed)
    top = math.log(max_coeff)
    queries = []
    for i in range(count):
        block, index = divmod(i, len(ORACLE_SURFACES))
        big = max(1, round(math.exp(top * (i + rng.random()) / count)))
        surface = ORACLE_SURFACES[index]
        sign = -1 if block % 2 else 1
        if surface == "P2":
            divisor = str(sign * big)
        else:
            small = round(big * ((3 * i) % 10 + rng.random()) / 10)
            small *= -1 if (block // 2 + index) % 2 else 1
            pair = (sign * big, small) if (block + index // 2) % 2 else (small, sign * big)
            divisor = f"{pair[0]},{pair[1]}"
        queries.append(["coh", surface, divisor, "--oracle"])
    return queries


def search_volume(lo: list[int], hi: list[int | None]) -> int:
    """Partial rank chains r_1..r_k (k = 1..8) whose dimensions t_j = r_j +
    r_{j+1} (j < k) stay in the bounds: the size of the search tree a
    rank-chain enumeration walks before any other pruning.  Counted by a
    recursion over r_k, never enumerated."""
    counts = {0: 1}
    total = 0
    for k in range(8):
        step: dict[int, int] = {}
        for r, c in counts.items():
            top = hi[k + 1] if hi[k] is None else hi[k] - r
            for nxt in range(max(0, lo[k] - r), top + 1):
                step[nxt] = step.get(nxt, 0) + c
        counts = step
        total += sum(counts.values())
    return total


def _les_instance(rng: random.Random, slack: int, unknown: bool) -> dict:
    """One 9-term instance around a random feasible rank chain.

    Each dimension t_k = r_k + r_{k+1} is widened to an interval of width
    `slack` that contains it; `unknown` replaces one whole term, chosen by
    the seed, by CohInterval.unknown(); chi is kept on each term with
    probability 1/2.
    """
    ranks = [0] + [rng.randint(0, 4) for _ in range(8)] + [0]
    point = [ranks[k] + ranks[k + 1] for k in range(9)]
    lo, hi = [], []
    for t in point:
        below = rng.randint(0, slack)
        lo.append(max(0, t - below))
        hi.append(t + slack - below)
    blank = rng.randrange(3) if unknown else None
    terms = []
    for term in range(3):
        chi = point[term] - point[term + 3] + point[term + 6]
        term_lo, term_hi = lo[term::3], hi[term::3]
        if term == blank:
            term_lo, term_hi = [0, 0, 0], [None, None, None]
        terms.append({"lo": term_lo, "hi": term_hi,
                      "chi": chi if rng.random() < 0.5 else None})
    return {"terms": terms, "point": point}


def volume_of(inst: dict) -> int:
    lo, hi = [], []
    for degree in range(3):
        for term in inst["terms"]:
            lo.append(term["lo"][degree])
            hi.append(term["hi"][degree])
    return search_volume(lo, hi)


LES_ITEMS = 1000
LES_MIN_VOLUME = 1_000
LES_MAX_VOLUME = 10_000
BUDGET_VOLUME = 4_000_000


def les_instances(seed: int, count: int) -> list[dict]:
    """`count` feasible instances with log-spaced search volumes.

    Item i must have a search volume within a factor 1.5 of the i-th point
    of a log-spaced grid over [LES_MIN_VOLUME, LES_MAX_VOLUME]; the seed
    picks the slack (1..5), the point, the widening, the unknown term of
    every fourth item and the chi constraints, redrawing until the volume
    fits.  Fixing the volumes keeps the pass's total work nearly
    independent of the seed.
    """
    rng = random.Random(seed)
    ratio = LES_MAX_VOLUME / LES_MIN_VOLUME
    out = []
    for i in range(count):
        target = LES_MIN_VOLUME * ratio ** ((i + 0.5) / count)
        while True:
            inst = _les_instance(rng, rng.randint(1, 5), i % 4 == 3)
            if target / 1.5 <= volume_of(inst) <= target * 1.5:
                break
        out.append(inst)
    return out


def budget_instances(seed: int, count: int) -> list[dict]:
    """All-bounded instances of slack 8, without chi, whose search volume
    exceeds BUDGET_VOLUME: the class on which rank enumeration exhausts
    its node budget (a few seconds each) instead of answering.  Opt-in,
    because the timed workloads must not contain failing operations."""
    rng = random.Random(seed ^ 0x5EED)
    out = []
    while len(out) < count:
        inst = _les_instance(rng, 8, False)
        for term in inst["terms"]:
            term["chi"] = None
        if volume_of(inst) > BUDGET_VOLUME:
            out.append(inst)
    return out
