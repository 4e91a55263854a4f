import io
import random
import time
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3carpets import battery, carpets, cli, exact_seq
from k3carpets.exact_seq import (
    _CHI_STEPS,
    _FORMS,
    CohInterval,
    InconsistencyError,
    LesInstance,
    RankBound,
    UnboundedRankError,
    _infeasible,
    _rank_bounds,
    _watched_terms,
    chain,
    propagate,
)
from k3carpets.line_cohomology import coh
from k3carpets.surfaces import canonical_class, hirzebruch, projective_plane

P2 = projective_plane()


def exact(*hs):
    return CohInterval.exact(*hs)


class _Int(int):
    pass


def test_interval_validation():
    with pytest.raises(ValueError):
        CohInterval((0, 2, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        CohInterval((0, -1, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        CohInterval((1, 0, 0), (1, 0, 0), chi=5)  # pinned alternating sum is 1
    for chi in (1.5, True, "1"):
        with pytest.raises(ValueError, match="chi must be an integer or None"):
            CohInterval((0, 0, 0), (2, 2, 2), chi=chi)
    iv = CohInterval((0, 1, 0), (2, 1, None), chi=3)
    assert iv.is_forced(1) and not iv.is_forced(0) and not iv.is_forced(2)
    with pytest.raises(ValueError, match="got 2 lower and 3 upper"):
        CohInterval((0, 0), (1, 1, 1))
    with pytest.raises(ValueError, match="got 4 lower and 4 upper"):
        CohInterval((0,) * 4, (1,) * 4)
    # each check lets a plain int through at once and must still judge the rest
    for top in (False, 1.0):
        with pytest.raises(ValueError, match="upper bounds must be integers or None"):
            CohInterval((0, 0, 0), (2, top, 2))
    for bottom in (True, 0.0):
        with pytest.raises(ValueError, match="lower bounds must be integers >= 0"):
            CohInterval((0, bottom, 0), (2, 2, 2))
    with pytest.raises(ValueError, match=r"empty bound \[3, 2\]"):
        CohInterval((0, 3, 0), (2, 2, 2))
    iv = CohInterval((_Int(1), 0, 0), (_Int(1), 0, _Int(0)), chi=_Int(1))
    assert iv.is_forced_all() and iv.chi == 1
    assert CohInterval((0, _Int(2), 0), (_Int(3), None, 0)).hi[0] == 3
    for pinned in ((1, 0, 0), (0, 0, 0)):
        with pytest.raises(ValueError, match="chi must be an integer or None"):
            CohInterval(pinned, pinned, chi=True)
    assert CohInterval((1, 2, 3), (1, 2, 3)).chi is None
    with pytest.raises(ValueError) as err:
        CohInterval((1, 0, 0), (1, 0, 0), chi=5)
    assert str(err.value) == "chi = 5 contradicts pinned dimensions (1, 0, 0)"
    with pytest.raises(ValueError) as err:
        CohInterval((_Int(1), 0, 0), (1, 0, 0), chi=_Int(0))
    assert str(err.value) == "chi = 0 contradicts pinned dimensions (1, 0, 0)"
    with pytest.raises(ValueError, match="contradicts pinned dimensions"):
        CohInterval([1, 0, 0], (1, 0, 0), chi=5)  # a list pins the same
    listed = CohInterval([1, 0, 0], [1, 0, None])  # stored as tuples
    assert listed.lo == (1, 0, 0) and listed.hi == (1, 0, None)
    assert CohInterval([1, 0, 0], [1, 0, 0], 1) == exact(1, 0, 0)
    assert CohInterval((1, 0, 0), (1, 0, None), chi=5).chi == 5  # h2 is free


def test_meet():
    a = CohInterval((0, 0, 0), (5, None, 2))
    b = CohInterval((2, 1, 0), (7, 4, None), chi=1)
    m = a.meet(b)
    assert m.lo == (2, 1, 0) and m.hi == (5, 4, 2) and m.chi == 1
    with pytest.raises(InconsistencyError):
        a.meet(CohInterval((6, 0, 0), (8, None, None)))
    # the met bounds pin every degree, and the kept chi disagrees with them
    pinned = CohInterval((1, 0, 0), (1, 0, None))
    with pytest.raises(InconsistencyError) as err:
        pinned.meet(CohInterval((0, 0, 0), (None, None, 0), chi=5), what="X")
    assert str(err.value) == "X: chi = 5 contradicts pinned dimensions (1, 0, 0)"


def test_middle_term_forced_by_h1_endpoints():
    one = exact(0, 1, 0)
    res = propagate(LesInstance(one, CohInterval.unknown(), one))
    assert res.b.is_forced_all()
    assert res.b.forced_values() == (0, 2, 0)


def test_euler_twist_forcing():
    # 0 -> K -> (L+K)^(N+1) -> (restricted ambient tangent)⊗K -> 0 on F_e
    f2 = hirzebruch(2)
    adj = coh(f2, f2.divisor(2, 5) + canonical_class(f2))
    np1 = 12
    res = propagate(
        LesInstance(
            exact(0, 0, 1),
            CohInterval.from_vector(adj.scaled(np1)),
            CohInterval.unknown(),
        )
    )
    assert res.c.is_forced_all()
    assert res.c.forced_values() == (np1 * adj.h0, 1, 0)


def test_honest_interval_for_tangent_bundle_of_f3():
    f3 = hirzebruch(3)
    res = propagate(
        LesInstance(
            CohInterval.from_vector(coh(f3, f3.divisor(2, 3))),
            CohInterval.unknown(),
            CohInterval.from_vector(coh(f3, f3.divisor(0, 2))),
        )
    )
    assert res.b.lo == (6, 0, 0)
    assert res.b.hi == (8, 2, 0)
    assert res.b.chi == 6
    assert not res.b.is_forced(0)


def _f3_tangent(t_s, ranks=carpets._VECTOR_FIELD_LIFTING):
    f3 = hirzebruch(3)
    return LesInstance(CohInterval.from_vector(coh(f3, f3.divisor(2, 3))), t_s,
                       CohInterval.from_vector(coh(f3, f3.divisor(0, 2))),
                       ("T_rel", "T_S", "T_base"), "tangent-fibration", ranks)


def test_rank_bound_pins_the_honest_interval():
    # r_3 = 0, the connecting map h0(T_base) -> h1(T_rel), leaves one chain
    res = propagate(_f3_tangent(CohInterval.unknown()))
    assert res.b == exact(8, 2, 0)
    assert res.ranks == carpets._VECTOR_FIELD_LIFTING
    # r_3 <= 1 cuts the interval [(6, 0, 0), (8, 2, 0)] to its top two points
    res = propagate(_f3_tangent(CohInterval.unknown(), (RankBound(3, 0, 1),)))
    assert (res.b.lo, res.b.hi, res.b.chi) == ((7, 1, 0), (8, 2, 0), 6)


def test_rank_bound_inconsistency_names_the_rank_and_the_bound():
    with pytest.raises(InconsistencyError) as err:
        propagate(_f3_tangent(exact(7, 1, 0)))
    assert str(err.value) == (
        "sequence 'tangent-fibration': the bounds leave only r_3 = 1 for the rank of "
        "h0(T_base) -> h1(T_rel), but the rank bound 'vector-field lifting' requires r_3 = 0")
    # each bound alone admits a chain, the two together none
    # (h0(B) = r_1 + r_2 <= 2)
    upto2 = CohInterval((0, 0, 0), (2, 0, 0))
    ranks = (RankBound(1, 1, None, "first"), RankBound(2, 2, None, "second"))
    for bounds in ranks:
        propagate(LesInstance(upto2, upto2, upto2, ranks=(bounds,)))
    with pytest.raises(InconsistencyError) as err:
        propagate(LesInstance(upto2, upto2, upto2, ranks=ranks))
    assert str(err.value) == ("no rank chain within the bounds meets the rank bounds "
                              "'first' (r_1 >= 1) and 'second' (r_2 >= 2)")
    # in a chain the error carries the label once
    with pytest.raises(InconsistencyError, match="^sequence 'tangent-fibration': the bounds"):
        chain([_f3_tangent(exact(7, 1, 0))])


def test_rank_bound_validation():
    for bad, message in [((0,), "one of r_1..r_8"), ((9,), "one of r_1..r_8"),
                         ((True,), "one of r_1..r_8"), ((2, -1), "integers >= 0"),
                         ((2, 3, 2), "integers >= 3 or None"), ((2, 0, 1.0), "or None"),
                         ((2, True), "integers >= 0"), ((2, 0, True), "or None")]:
        with pytest.raises(ValueError, match=message):
            RankBound(*bad)
    # int subclasses pass, as in `CohInterval`
    assert str(RankBound(_Int(3), _Int(1), _Int(2))) == "1 <= r_3 <= 2"
    assert str(RankBound(4, 1, 3)) == "1 <= r_4 <= 3"


def test_pinned_term_without_chi_gets_its_alternating_sum():
    # no chi is watched; the pinned ends get chi from their dimensions and
    # the middle term from additivity
    res = propagate(LesInstance(CohInterval((3, 1, 0), (3, 1, 0)), CohInterval.unknown(),
                                CohInterval((0, 2, 5), (0, 2, 5))))
    assert (res.a.chi, res.b.chi, res.c.chi) == (2, 5, 3)
    assert res.a.forced_values() == (3, 1, 0) and res.c.forced_values() == (0, 2, 5)
    # a pinned term next to a watched one goes through the DP
    res = propagate(LesInstance(CohInterval((1, 0, 0), (1, 0, 0)),
                                CohInterval((0, 0, 0), (4, 4, 4), 3), CohInterval.unknown()))
    assert res.a.chi == 1 and res.b.chi == 3 and res.c.chi == 2


def test_split_sum_forced_for_disjoint_supports():
    res = propagate(
        LesInstance(exact(1, 0, 0), CohInterval.unknown(), exact(0, 0, 1))
    )
    assert res.b.forced_values() == (1, 0, 1)


def test_chi_side_constraint_forces_difference():
    # A has unknown h0/h1 but pinned chi and h2 = 0; B pinned; C unknown.
    # The quotient's h0 is then forced even though A's numbers are not.
    a = CohInterval((0, 0, 0), (None, None, 0), chi=6)
    b = exact(100, 0, 0)
    res = propagate(LesInstance(a, b, CohInterval.unknown()))
    assert res.c.is_forced(0) and res.c.lo[0] == 94
    assert res.c.is_forced(1) and res.c.lo[1] == 0
    assert not res.a.is_forced(0)


def test_infeasible_names_relation():
    with pytest.raises(InconsistencyError) as err:
        propagate(LesInstance(exact(2, 0, 0), exact(1, 0, 0), CohInterval.unknown()))
    assert "h0" in str(err.value)
    with pytest.raises(InconsistencyError) as err:
        propagate(
            LesInstance(
                CohInterval.unknown(4), CohInterval.unknown(9), CohInterval.unknown(0),
                label="bad-chi",
            )
        )
    assert "chi additivity" in str(err.value)
    assert "bad-chi" in str(err.value)
    # the sweep empties at its last step without going negative
    with pytest.raises(InconsistencyError) as err:
        propagate(LesInstance(exact(0, 0, 0), exact(0, 0, 0),
                              CohInterval((0, 0, 1), (0, 0, 1))))
    assert str(err.value) == ("exactness at h2(C): h2(B) -> h2(C) must be onto, "
                              "but its rank is at most 0 while h2(C) >= 1")


def test_unbounded_pair_rejected():
    with pytest.raises(UnboundedRankError):
        propagate(
            LesInstance(CohInterval.unknown(), CohInterval.unknown(), exact(1, 0, 0))
        )


def test_wide_infeasible_instance_is_decided_promptly():
    # interval reasoning over exactness and chi needs 161 rounds to refute
    # the first, narrowing the bounds a few units a round; the chi-pruned DP
    # refutes it in the first step of its forward pass.  The second (chi_A
    # and chi_B watched, ranks about 10^3 wide; even its LP relaxation is
    # infeasible) exhausts 2 GB when a DP tracks the running chi_A and chi_C
    # in its state, and does not answer within 90 s when it tracks chi_A and
    # only the interval of chi_B; dropping the states whose chi_B interval
    # misses what the rest of the path can add refutes it within a few
    # steps.  The bounds alone admit rank chains, so the error names the
    # watched chi, not the bounds.
    seqs = [
        (LesInstance(
            CohInterval((653, 987, 364), (None, None, 969), 21),
            CohInterval((647, 356, 429), (1129, 551, 782)),
            CohInterval((414, 940, 662), (1019, 1730, 1300), 603),
        ), "chi(A) = 21 and chi(C) = 603"),
        (LesInstance(
            CohInterval((30, 465, 313), (None, 577, 578), 341),
            CohInterval((396, 945, 980), (None, None, None), -350),
            CohInterval((746, 935, 537), (906, 1723, 1218)),
        ), "chi(A) = 341 and chi(B) = -350"),
    ]
    for seq, chis in seqs:
        start = time.perf_counter()
        with pytest.raises(InconsistencyError) as err:
            propagate(seq)
        assert time.perf_counter() - start < 5.0
        assert str(err.value) == f"no rank chain within the bounds meets {chis}"


def test_one_watched_chi_with_wide_ranks_answers_promptly():
    # ranks up to about 1,700 wide and thousands of running-chi values: a DP
    # whose state holds the rank and the running chi_B did not answer within
    # 100 s; the interval tables over prefixes and suffixes hold no chi
    # values.  The ranges were cross-checked against a MILP solver, which
    # also finds chi_A and chi_C free.
    seq = LesInstance(
        CohInterval((30, 465, 313), (None, 577, 578)),
        CohInterval((396, 945, 980), (None, None, None), -350),
        CohInterval((746, 935, 537), (906, 1723, 1218)),
    )
    start = time.perf_counter()
    res = propagate(seq)
    elapsed = time.perf_counter() - start
    assert [(term.lo[d], term.hi[d]) for d in range(3) for term in (res.a, res.b, res.c)] == [
        (30, 224), (396, 970), (746, 906), (465, 577), (1726, 2300), (1529, 1723),
        (313, 578), (980, 1174), (537, 861)]
    assert (res.a.chi, res.b.chi, res.c.chi) == (None, -350, None)
    assert elapsed < 1.0


def test_unchanged_terms_are_returned_as_given():
    seq = LesInstance(exact(1, 0, 0), CohInterval.unknown(), exact(0, 0, 1))
    res = propagate(seq)
    assert res.a is seq.a and res.c is seq.c
    assert res.b.forced_values() == (1, 0, 1)
    again = propagate(res)
    assert all(x is y for x, y in zip((again.a, again.b, again.c), (res.a, res.b, res.c)))
    # a pinned term without its chi comes back with it, as a new object
    bare = CohInterval((1, 0, 0), (1, 0, 0))
    res = propagate(LesInstance(bare, CohInterval.unknown(), exact(0, 0, 1)))
    assert res.a is not bare and res.a == exact(1, 0, 0)


def _ghouila_houri(matrix) -> bool:
    """Ghouila-Houri's criterion (C. R. Acad. Sci. Paris 254, 1962): a
    matrix is totally unimodular iff every subset of its columns can be
    signed so that every row sums to -1, 0 or 1 over it.  The first
    column's sign is free, so it stays +1."""
    columns = list(zip(*matrix))
    for size in range(1, len(columns) + 1):
        for subset in combinations(columns, size):
            if not any(all(-1 <= sum(row) <= 1 for row in zip(*(
                    [sign * v for v in column] for sign, column in zip((1, *signs), subset))))
                    for signs in product((1, -1), repeat=size - 1)):
                return False
    return True


def test_rank_and_chi_matrix_is_totally_unimodular():
    # the certificate behind `propagate`: the nine rows t_k = r_k + r_{k+1}
    # and the three chi rows, over r_1..r_8 (r_0 = r_9 = 0); r_j enters
    # t_{j-1} and t_j
    path = [[1 if j in (k, k + 1) else 0 for j in range(1, 9)] for k in range(9)]
    steps = [[form[0] * da + form[1] * dc for da, dc in _CHI_STEPS] for form in _FORMS]
    chis = [[s[j - 1] + s[j] for j in range(1, 9)] for s in steps]
    assert chis == [[1, 0, -1, -1, 0, 1, 1, 0], [1, 1, 0, -1, -1, 0, 1, 1],
                    [0, 1, 1, 0, -1, -1, 0, 1]]
    assert _ghouila_houri(path + chis)
    # a bound on one rank is an identity row: all eight keep the matrix TU
    identity = [[int(j == k) for j in range(8)] for k in range(8)]
    assert _ghouila_houri(path + chis + identity)
    # the criterion rejects what it must: an odd cycle (determinant 2), and
    # the path with a row t_0 + t_2 = r_1 + r_2 + r_3 and chi_A, which on
    # the columns r_1 and r_3 have determinant -2
    assert not _ghouila_houri([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert not _ghouila_houri(path + [[1, 1, 1, 0, 0, 0, 0, 0], chis[0]])


def test_idempotence():
    f3 = hirzebruch(3)
    instances = [
        LesInstance(exact(0, 1, 0), CohInterval.unknown(), exact(0, 1, 0)),
        LesInstance(
            CohInterval.from_vector(coh(f3, f3.divisor(2, 3))),
            CohInterval.unknown(),
            CohInterval.from_vector(coh(f3, f3.divisor(0, 2))),
        ),
        LesInstance(exact(3, 1, 0), exact(5, 1, 0), CohInterval((0, 0, 0), (9, 9, 9))),
    ]
    for seq in instances:
        once = propagate(seq)
        twice = propagate(once)
        assert (once.a, once.b, once.c) == (twice.a, twice.b, twice.c)


def _random_coh(rng, surface):
    if surface.is_plane:
        return coh(surface, surface.divisor(rng.randint(-8, 8)))
    return coh(surface, surface.divisor(rng.randint(-8, 8), rng.randint(-8, 8)))


@pytest.mark.parametrize("surface", [hirzebruch(0), hirzebruch(3), P2])
def test_split_additivity_randomized(surface):
    rng = random.Random(97 + (surface.e if not surface.is_plane else 50))
    for _ in range(200):
        x = _random_coh(rng, surface)
        y = _random_coh(rng, surface)
        total = (x + y).as_tuple()
        res = propagate(
            LesInstance(
                CohInterval.from_vector(x),
                CohInterval.unknown(),
                CohInterval.from_vector(y),
            )
        )
        for i in range(3):
            assert res.b.lo[i] <= total[i] <= res.b.hi[i]
        assert res.b.chi == x.chi + y.chi
        if x.h1 * y.h0 == 0 and x.h2 * y.h1 == 0:
            assert res.b.is_forced_all() and res.b.forced_values() == total
        # the true split triple is itself a feasible, stable instance
        stable = propagate(
            LesInstance(
                CohInterval.from_vector(x),
                CohInterval.exact(*total),
                CohInterval.from_vector(y),
            )
        )
        assert stable.b.forced_values() == total


def test_soundness_on_twisted_restriction_triples():
    # 0 -> O(D) -> O(D+F) -> Q -> 0 built from known line-bundle ends: the
    # propagated middle interval must contain the true middle values.
    f2 = hirzebruch(2)
    rng = random.Random(11)
    for _ in range(60):
        d = f2.divisor(rng.randint(-5, 5), rng.randint(-5, 5))
        f = f2.divisor(rng.randint(0, 2), rng.randint(0, 4))
        sub, mid = coh(f2, d), coh(f2, d + f)
        res = propagate(
            LesInstance(
                CohInterval.from_vector(sub),
                CohInterval.from_vector(mid),
                CohInterval.unknown(),
            )
        )
        q = res.c
        # re-propagating with the forced quotient stays feasible
        back = propagate(LesInstance(CohInterval.from_vector(sub), CohInterval.unknown(), q))
        for i in range(3):
            assert back.b.lo[i] <= mid.as_tuple()[i] <= back.b.hi[i]


def test_vanishing_flanked_segment_pins_middle():
    # neighbors of degree 1 vanish: h0(C) = 0 kills the connecting map in,
    # h2(A) = 0 the one out, so h1(B) = h1(A) + h1(C) is pinned
    res = propagate(
        LesInstance(exact(4, 3, 0), CohInterval.unknown(), exact(0, 2, 5))
    )
    assert res.b.is_forced(1) and res.b.lo[1] == 5


def test_chain_shares_terms():
    f3 = hirzebruch(3)
    seqs = [
        LesInstance(
            CohInterval.from_vector(coh(f3, f3.divisor(2, 3))),
            CohInterval.unknown(),
            CohInterval.from_vector(coh(f3, f3.divisor(0, 2))),
            names=("T_rel", "T", "T_base"),
            label="fibration",
        ),
        # tensoring 0 -> O -> L^(N+1) -> T_amb -> 0 by nothing; T appears again
        LesInstance(
            CohInterval.unknown(),
            exact(119, 0, 0),
            CohInterval.unknown(),
            names=("T", "T_amb", "N"),
            label="normal",
        ),
    ]
    table = chain(seqs)
    assert table["T"].chi == 6
    assert table["N"].is_forced(0) and table["N"].lo[0] == 113
    assert table["N"].forced_values()[1:] == (0, 0)


def test_chain_inconsistency_names_sequence():
    # first forces h0(C) = 2, second pins h0(C) = 1; the table starts with
    # h0(C) = 1, and "first" runs first in the one fixed order
    seqs = [
        LesInstance(exact(1, 0, 0), exact(3, 0, 0), CohInterval.unknown(),
                    names=("A", "B", "C"), label="first"),
        LesInstance(exact(1, 0, 0), exact(1, 0, 0), CohInterval.unknown(),
                    names=("C", "Y", "W"), label="second"),
    ]
    with pytest.raises(InconsistencyError) as err:
        chain(seqs)
    assert str(err.value) == ("sequence 'first': chi additivity: chi(B) = 3"
                              " but chi(A) + chi(C) = 2")


def test_chain_names_sequence_and_term_when_a_met_chi_contradicts_pinned_bounds():
    # "first" bounds X to h0 = 1, h1 = 0 and "second" to h2 = 0 with chi = 5:
    # the meet that builds the table pins X to (1, 0, 0) against chi = 5
    seqs = [
        LesInstance(CohInterval((1, 0, 0), (1, 0, None)), CohInterval.unknown(),
                    CohInterval.unknown(), names=("X", "Y", "Z"), label="first"),
        LesInstance(CohInterval((0, 0, 0), (None, None, 0), chi=5), CohInterval.unknown(),
                    CohInterval.unknown(), names=("X", "V", "W"), label="second"),
    ]
    with pytest.raises(InconsistencyError) as err:
        chain(seqs)
    assert str(err.value) == ("sequence 'second': term 'X': chi = 5 contradicts"
                              " pinned dimensions (1, 0, 0)")


NAMES = ("A", "B", "C", "D", "E")


@st.composite
def _small_chains(draw):
    """2-4 sequences over five term names; each endpoint is either the
    exact cohomology of that name's line bundle or unknown."""
    surface = draw(st.sampled_from((hirzebruch(0), hirzebruch(3), P2)))
    coeffs = st.lists(st.integers(-4, 4), min_size=surface.picard_rank,
                      max_size=surface.picard_rank)
    truth = {n: CohInterval.from_vector(coh(surface, surface.divisor(*draw(coeffs))))
             for n in NAMES}

    def end(name):
        return truth[name] if draw(st.booleans()) else CohInterval.unknown()

    seqs = []
    for i in range(draw(st.integers(2, 4))):
        names = tuple(draw(st.permutations(NAMES))[:3])
        seqs.append(LesInstance(end(names[0]), CohInterval.unknown(), end(names[2]),
                                names, label=f"seq{i}"))
    return seqs


# split sequences 0 -> X -> X + Y -> Y -> 0 over three line bundles X, Y, Z
_SPLIT = (("X", "X+Y", "Y"), ("Y", "X+Y", "X"), ("Y", "Y+Z", "Z"), ("X", "2X", "X"),
          ("X+Y", "X+Y+Z", "Z"), ("X", "X+Y+Z", "Y+Z"), ("Z", "Y+Z", "Y"))


@st.composite
def _loose_chains(draw):
    """3-6 sequences drawn from `_SPLIT`, where ("X", "2X", "X") has a name
    twice; each term is the exact cohomology of its sheaf, unknown, or
    bounds up to 2 wider on each side of it, with or without its chi, so
    the true dimensions are always feasible."""
    surface = draw(st.sampled_from((hirzebruch(0), hirzebruch(3), P2)))
    coeffs = st.lists(st.integers(-3, 3), min_size=surface.picard_rank,
                      max_size=surface.picard_rank)
    x, y, z = (coh(surface, surface.divisor(*draw(coeffs))) for _ in range(3))
    truth = {"X": x, "Y": y, "Z": z, "X+Y": x + y, "Y+Z": y + z, "2X": x + x,
             "X+Y+Z": x + y + z}

    def term(name):
        h, kind = truth[name].as_tuple(), draw(st.integers(0, 3))
        if kind < 2:
            return CohInterval.exact(*h) if kind == 0 else CohInterval.unknown()
        lo = tuple(max(0, v - draw(st.integers(0, 2))) for v in h)
        hi = tuple(v + draw(st.integers(0, 2)) for v in h)
        return CohInterval(lo, hi, h[0] - h[1] + h[2] if draw(st.booleans()) else None)

    seqs = []
    for i in range(draw(st.integers(3, 6))):
        names = draw(st.sampled_from(_SPLIT))
        seqs.append(LesInstance(*map(term, names), names, label=f"seq{i}"))
    return seqs


def _outcome(seqs):
    """The table of `chain(seqs)`, or the class of the error it raises.  The
    drawn chains settle within a dozen `propagate` calls, so a chain past
    200 fails the test instead of hanging it."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        outcome, _ = _traced(chain, seqs, monkeypatch, limit=200)
    return outcome[0] if isinstance(outcome, tuple) else outcome


# 200 draws over the two strategies, so `_small_chains` keeps about its 100
@settings(deadline=None, max_examples=200)
@given(st.one_of(_small_chains(), _loose_chains()))
def test_chain_is_an_order_independent_fixed_point(seqs):
    outcome = _outcome(seqs)
    assert _outcome(seqs[::-1]) == outcome
    if isinstance(outcome, dict):
        for seq in seqs:
            terms = tuple(outcome[n] for n in seq.names)
            again = propagate(LesInstance(*terms, seq.names, seq.label, seq.ranks))
            assert (again.a, again.b, again.c) == terms


def _rescanning_chain(seqs):
    """Reference for `chain`: the same passes in index order with the same
    rule for skipping a sequence, except that it meets every returned term
    into the table, the table's own object too, where `chain` stores a
    returned term as is unless its name occurs twice in the sequence."""
    table = {}

    def meet(seq, name, iv):
        if name in table:
            try:
                iv = table[name].meet(iv, what=f"term {name!r}")
            except InconsistencyError as err:
                raise InconsistencyError(f"sequence {seq.label!r}: {err}") from None
        table[name] = iv

    for seq in seqs:
        for name, iv in zip(seq.names, (seq.a, seq.b, seq.c)):
            meet(seq, name, iv)
    last, stuck, ran = {}, {}, True
    while ran:
        ran = False
        for i, seq in enumerate(seqs):
            current = LesInstance(*(table[n] for n in seq.names), seq.names, seq.label, seq.ranks)
            if (current.a, current.b, current.c) == last.get(i):
                continue
            ran = True
            try:
                current = exact_seq.propagate(current)
            except UnboundedRankError as err:
                stuck[i] = err
            else:
                stuck.pop(i, None)
                for name, iv in zip(seq.names, (current.a, current.b, current.c)):
                    meet(seq, name, iv)
            last[i] = (current.a, current.b, current.c)
    if stuck:
        raise stuck[max(stuck)]
    return table


def _traced(solve, seqs, monkeypatch, limit=None):
    """The table (or error class and message) of `solve(seqs)` and the
    inputs of every `propagate` call it made, in order.  A call past
    `limit` fails the test, so a solver that never settles cannot hang it."""
    calls = []

    def counted(seq):
        calls.append(seq)
        assert limit is None or len(calls) <= limit, f"more than {limit} propagate calls"
        return propagate(seq)

    monkeypatch.setattr(exact_seq, "propagate", counted)
    try:
        outcome = solve(seqs)
    except (InconsistencyError, UnboundedRankError) as err:
        outcome = type(err), str(err)
    finally:
        monkeypatch.undo()
    return outcome, calls


@settings(deadline=None, max_examples=300)
@given(st.one_of(_small_chains(), _loose_chains()))
def test_chain_matches_rescanning_chain(seqs):
    with pytest.MonkeyPatch.context() as monkeypatch:
        reference = _traced(_rescanning_chain, seqs, monkeypatch)
        assert _traced(chain, seqs, monkeypatch, limit=len(reference[1])) == reference


_HILBERT_LABELS = [label for label, _ in carpets._HILBERT_SEQUENCES]


def _hilbert_chains(chains):
    """The Hilbert chains among captured chains, told by their labels."""
    return [seqs for seqs in chains if [seq.label for seq in seqs] == _HILBERT_LABELS]


def _surface_chain(surface, monkeypatch):
    """The sequences `carpets` chains to derive the surface's T_S, T_S ⊗ K and E."""
    chains = []
    monkeypatch.setattr(carpets, "chain", lambda seqs: chains.append(seqs) or chain(seqs))
    assert carpets.SurfaceContext.of(surface).tangent.is_forced_all()
    monkeypatch.undo()
    (seqs,) = chains
    return seqs


def test_chain_matches_rescanning_chain_on_hilbert_chains(monkeypatch):
    chains = []

    def capture(seqs):
        chains.append(seqs)
        return chain(seqs)

    monkeypatch.setattr(carpets, "chain", capture)
    battery.hilbert_claims(battery.CarpetGrid())
    monkeypatch.undo()
    assert len(_hilbert_chains(chains)) == 260 and len(chains) == 268
    for seqs in chains:
        assert _traced(chain, seqs, monkeypatch) == _traced(_rescanning_chain, seqs,
                                                            monkeypatch)


@pytest.mark.parametrize("surface", [hirzebruch(0), hirzebruch(3), P2])
def test_chain_matches_both_references_on_surface_chains(surface, monkeypatch):
    # the surface chains carry rank bounds, which each reference must keep:
    # without "vector-field lifting" T_S of F_3 stays an interval
    seqs = _surface_chain(surface, monkeypatch)
    assert any(seq.ranks for seq in seqs)
    table, _ = _traced(chain, seqs, monkeypatch)
    assert table["T_S"].is_forced_all()
    assert _traced(_rescanning_chain, seqs, monkeypatch) == _traced(chain, seqs, monkeypatch)
    assert _round_robin_chain(seqs) == table


def test_chain_matches_rescanning_chain_on_wide_sweep_chains(monkeypatch):
    # F_7, F_8 and planes of degree 11 to 30, which the battery never builds
    chains = []
    monkeypatch.setattr(carpets, "chain", lambda seqs: chains.append(seqs) or chain(seqs))
    assert cli.main(["sweep", "--e", "7..8", "--a", "1..3", "--db", "1..3",
                     "--d", "11..30"]) == 0
    monkeypatch.undo()
    assert len(_hilbert_chains(chains)) == 38 and len(chains) == 41
    for seqs in chains:
        assert _traced(chain, seqs, monkeypatch) == _traced(_rescanning_chain, seqs,
                                                            monkeypatch)


def test_chain_meets_the_two_values_of_a_repeated_name(monkeypatch):
    # in 0 -> X -> 2X -> X -> 0 the sub X gets h0 = 0 and the quotient X
    # gets h2 = 0 from the same run; the table must keep both
    x = CohInterval((0, 0, 0), (2, 2, 2))
    seqs = [LesInstance(x, CohInterval.exact(0, 2, 0), x, ("X", "2X", "X"), "double")]
    out = propagate(seqs[0])
    assert out.a == CohInterval((0, 0, 0), (0, 2, 2))
    assert out.c == CohInterval((0, 0, 0), (2, 2, 0))
    reference = _traced(_rescanning_chain, seqs, monkeypatch)
    traced = _traced(chain, seqs, monkeypatch, limit=len(reference[1]))
    assert traced[0]["X"] == out.a.meet(out.c) == CohInterval((0, 0, 0), (0, 2, 0))
    assert traced == reference


def test_hilbert_chains_meet_no_terms(monkeypatch):
    # every shared name in a Hilbert chain starts as one object, and a term
    # `propagate` returns is stored as is, so a meet here would mean a copy
    meets = []
    meet = CohInterval.meet
    monkeypatch.setattr(CohInterval, "meet",
                        lambda self, *args, **kw: meets.append(self) or meet(self, *args, **kw))
    battery.hilbert_claims(battery.CarpetGrid())
    assert meets == []


def _round_robin_chain(seqs):
    """Reference for `chain` without its skip rule: whole passes of
    `propagate` over every sequence, in order, each result met into the
    table, until a pass changes no term.  `propagate` narrows
    monotonically, and monotone narrowing operators reach the same greatest
    fixed point in any fair order (Apt, "The essence of constraint
    propagation", TCS 1999); a sequence stuck on unbounded ranks is retried
    every pass and raises if it is still stuck at the fixed point."""
    table = {}
    for seq in seqs:
        for name, iv in zip(seq.names, (seq.a, seq.b, seq.c)):
            table[name] = table[name].meet(iv) if name in table else iv
    while True:
        changed, stuck = False, None
        for seq in seqs:
            try:
                out = propagate(LesInstance(*(table[n] for n in seq.names), seq.names,
                                            seq.label, seq.ranks))
            except UnboundedRankError as err:
                stuck = err
                continue
            for name, iv in zip(seq.names, (out.a, out.b, out.c)):
                met = table[name].meet(iv)
                changed |= met != table[name]
                table[name] = met
        if not changed:
            if stuck is not None:
                raise stuck
            return table


def _reference_outcome(seqs):
    try:
        return _round_robin_chain(seqs)
    except (InconsistencyError, UnboundedRankError) as err:
        return type(err)


@settings(deadline=None, max_examples=300)
@given(st.one_of(_small_chains(), _loose_chains()))
def test_chain_matches_round_robin_fixed_point(seqs):
    assert _outcome(seqs) == _reference_outcome(seqs)


def test_chain_matches_round_robin_fixed_point_on_hilbert_chains(monkeypatch):
    chains = []
    monkeypatch.setattr(carpets, "chain", lambda seqs: chains.append(seqs) or chain(seqs))
    battery.hilbert_claims(battery.CarpetGrid())
    monkeypatch.undo()
    assert len(_hilbert_chains(chains)) == 260 and len(chains) == 268
    for seqs in chains:
        assert _outcome(seqs) == _reference_outcome(seqs)


def test_long_chain_takes_linear_work_a_step(monkeypatch):
    # (T_i, M_i, T_{i+1}) with T_0 and every M_i pinned to (1, 0, 0): once
    # T_i is known a run pins the quotient T_{i+1}, so T_i is (1, 0, 0) for
    # even i and (0, 0, 0) for odd i.  In order that is one pass; reversed,
    # each sequence is stuck on unbounded ranks until its predecessor has
    # run, so every one but the first runs twice, one new run a pass: 400
    # passes.  The ceiling holds only while a pass checks the chain in O(n).
    one = CohInterval.exact(1, 0, 0)
    seqs = [LesInstance(CohInterval.unknown() if i else one, one, CohInterval.unknown(),
                        (f"T{i}", f"M{i}", f"T{i + 1}"), f"step{i}") for i in range(400)]
    tables = []
    for order, runs in ((seqs, 400), (seqs[::-1], 799)):
        start = time.perf_counter()
        table, calls = _traced(chain, order, monkeypatch)
        assert time.perf_counter() - start < 2.0
        assert len(calls) == runs
        tables.append(table)
    assert tables[0] == tables[1]
    assert tables[0] == {**{f"M{i}": one for i in range(400)},
                         **{f"T{i}": CohInterval.exact(1 - i % 2, 0, 0) for i in range(401)}}


def test_chain_reruns_narrowed_sequences_in_the_next_pass(monkeypatch):
    # every term has h1 = h2 = 0, so each sequence says h0(B) = h0(A) + h0(C).
    # The first pass bounds h0(A) by 3 and h0(D) by 2, and then "third"
    # (h0(A) + h0(D) = 5) pins both; the second pass reruns "first" and
    # "second", which pin C and F and leave A and D as they are, so the
    # third pass runs nothing
    def upto(n):
        return CohInterval((0, 0, 0), (n, 0, 0))

    seqs = [LesInstance(upto(4), exact(3, 0, 0), upto(4), ("A", "B", "C"), "first"),
            LesInstance(upto(4), exact(2, 0, 0), upto(4), ("D", "E", "F"), "second"),
            LesInstance(upto(4), exact(5, 0, 0), upto(4), ("A", "G", "D"), "third")]
    table, calls = _traced(chain, seqs, monkeypatch, limit=5)
    assert [(seq.label, seq.a, seq.c) for seq in calls] == [
        ("first", upto(4), upto(4)), ("second", upto(4), upto(4)),
        ("third", upto(3), upto(2)),
        ("first", exact(3, 0, 0), upto(3)), ("second", exact(2, 0, 0), upto(2))]
    assert table == _round_robin_chain(seqs)
    assert [table[n] for n in "ACDF"] == [exact(3, 0, 0), exact(0, 0, 0),
                                          exact(2, 0, 0), exact(0, 0, 0)]


def test_hilbert_chain_propagates_each_sequence_once(monkeypatch):
    # the surface and Hilbert chains reach their fixed point in one pass,
    # each sequence run once in index order: a chain that re-propagated a
    # sequence whose terms did not change would show here
    calls, chains = [], []
    monkeypatch.setattr(exact_seq, "propagate",
                        lambda seq: calls.append(seq.label) or propagate(seq))
    monkeypatch.setattr(carpets, "chain", lambda seqs: chains.append(seqs) or chain(seqs))
    f3 = hirzebruch(3)
    line = carpets.PolarizationData(carpets.SurfaceContext.of(f3), f3.divisor(2, 8))
    carpets.hilbert_report(line)
    assert [len(seqs) for seqs in chains] == [3, 7]
    assert len(_hilbert_chains(chains)) == 1
    assert calls == [seq.label for seqs in chains for seq in seqs]

    calls.clear()
    chains.clear()
    battery.hilbert_claims(battery.CarpetGrid())
    hilbert = _hilbert_chains(chains)
    assert len(hilbert) == 260 and len(chains) == 268
    assert {len(seqs) for seqs in hilbert} == {7}
    assert calls == [seq.label for seqs in chains for seq in seqs]


def test_hilbert_chains_watch_no_chi_and_derive_t_s_once_per_surface(monkeypatch, capsys):
    # T_S is pinned once per surface, so no Hilbert step is left with a
    # watched chi: not in verify-paper's Hilbert group, nor on a sweep
    watched, tangents = [], []

    def counted(seq):
        if seq.label in ("tangent-fibration", "surface-euler"):
            tangents.append(seq.label)
        if _watches(seq):
            watched.append(seq.label)
        return propagate(seq)

    for module in (exact_seq, carpets):
        monkeypatch.setattr(module, "propagate", counted)
    contexts = []
    of = carpets.SurfaceContext.of.__func__
    monkeypatch.setattr(carpets.SurfaceContext, "of",
                        classmethod(lambda cls, s: contexts.append(s) or of(cls, s)))
    assert all(c.passed for c in battery.hilbert_claims(battery.CarpetGrid()))
    assert watched == [] and len(contexts) == 8
    assert sorted(tangents) == ["surface-euler"] + ["tangent-fibration"] * 7
    tangents.clear()
    contexts.clear()
    code = cli.main(["sweep", "--e", "0..6", "--a", "1..3", "--db", "1..3", "--jobs", "1"])
    assert code == 0 and capsys.readouterr().out.endswith("63 rows\n")
    assert watched == [] and len(contexts) == 7
    assert tangents == ["tangent-fibration"] * 7


@pytest.mark.parametrize("chi", [None, 0])
@pytest.mark.parametrize("n", [3, 5, 8])
def test_all_bounded_triples_answer_in_bounded_time(n, chi):
    # each dimension reaches both 0 and n on some rank chain, so nothing
    # narrows; the work is polynomial in n, not a search over rank chains
    iv = CohInterval((0, 0, 0), (n, n, n), chi)
    start = time.perf_counter()
    res = propagate(LesInstance(iv, iv, iv))
    elapsed = time.perf_counter() - start
    for term in (res.a, res.b, res.c):
        assert term.lo == (0, 0, 0) and term.hi == (n, n, n)
    if n == 8:
        assert elapsed < 1.0


@pytest.mark.parametrize("watched", [None, 0, 1, pytest.param((0, 1), id="AB"),
                                     pytest.param((0, 2), id="AC"),
                                     pytest.param((1, 2), id="BC"),
                                     pytest.param((0, 1, 2), id="ABC")])
def test_wide_triples_answer_promptly(watched):
    # [0, 40]^3 on every term, chi = 0 on none, on A, on B, or on two or
    # three terms: without a watched chi nothing but the sweep runs, with
    # one the interval tables hold no chi values, and with more the DP
    # tracks one running chi and carries only the interval of another
    watched = () if watched is None else (watched,) if isinstance(watched, int) else watched
    terms = [CohInterval((0, 0, 0), (40, 40, 40), 0 if i in watched else None)
             for i in range(3)]
    start = time.perf_counter()
    res = propagate(LesInstance(*terms))
    elapsed = time.perf_counter() - start
    for i, term in enumerate((res.a, res.b, res.c)):
        assert term.lo == (0, 0, 0) and term.hi == (40, 40, 40)
        # two fixed chi fix the third by additivity
        assert term.chi == (0 if i in watched or len(watched) > 1 else None)
    assert elapsed < (1.0 if len(watched) < 2 else 2.0)


def _rank_caps(seq: LesInstance) -> list[int | None]:
    """Loose caps on r_0..r_9 (None where none) from the instance's own
    bounds, without `_sweep`: r_k is at most t_{k-1}, t_k and its rank
    bounds' tops, t_k at most r_k + r_{k+1}, and a fixed chi caps each
    degree of its term by the other two, repeated while a dimension gains
    its first cap.  Every chain meeting the bounds and the chi lies inside."""
    lo, hi = exact_seq._term_bounds(seq)
    caps = [0] + [None] * 8 + [0]
    for bound in seq.ranks:
        if bound.hi is not None:
            caps[bound.k] = bound.hi if caps[bound.k] is None else min(caps[bound.k], bound.hi)
    fixed = [(term, iv.chi) for term, iv in enumerate((seq.a, seq.b, seq.c))
             if iv.chi is not None]
    while True:
        for k in range(1, 9):
            caps[k] = min((c for c in (caps[k], hi[k - 1], hi[k]) if c is not None), default=None)
        new = [k for k in range(9)
               if hi[k] is None and caps[k] is not None and caps[k + 1] is not None]
        for k in new:
            hi[k] = caps[k] + caps[k + 1]
        for term, chi in fixed:
            # chi = t_0 - t_1 + t_2 on the term's degrees 0, 1, 2
            t0, t1, t2 = range(term, 9, 3)
            for i, parts in ((t0, (chi, hi[t1], -lo[t2])), (t1, (-chi, hi[t0], hi[t2])),
                             (t2, (chi, hi[t1], -lo[t0]))):
                if hi[i] is None and None not in parts:
                    hi[i] = sum(parts)
                    new.append(i)
        if not new:
            return caps


def _enumerated(seq: LesInstance) -> LesInstance:
    """Reference for `propagate`: every rank chain r_1..r_8 inside the box
    of `_rank_bounds` for the instance without its rank bounds, enumerated
    one by one (exponential in the widths, so for small instances only).
    A chain is kept if it meets the rank bounds, checked here and not by
    `_sweep`, so a wrong clamp there shows.  When only a rank bound bounds
    the ranks, the box is `_rank_caps`', which `_sweep` does not build."""
    try:
        bare = LesInstance(seq.a, seq.b, seq.c, seq.names)
        lo, hi, r_min, r_max = _rank_bounds(bare, _watched_terms(bare))
    except InconsistencyError:
        raise _infeasible(seq) from None
    except UnboundedRankError:
        if not seq.ranks:
            raise
        r_max = _rank_caps(seq)
        if None in r_max:
            _rank_bounds(seq, _watched_terms(seq))  # raises the error `propagate` raises
            pytest.fail(f"`_rank_bounds` bounds a rank that nothing caps: {seq}")
        lo, hi = exact_seq._term_bounds(seq)
        r_min = [0] * 10
    chis = (seq.a.chi, seq.b.chi, seq.c.chi)
    t_min, t_max = [None] * 9, [None] * 9
    chi_seen: list[set[int]] = [set(), set(), set()]
    ranks = [0] * 10

    def record():
        if any(ranks[b.k] < b.lo or b.hi is not None and ranks[b.k] > b.hi for b in seq.ranks):
            return
        ts = [ranks[k] + ranks[k + 1] for k in range(9)]
        values = [ts[term] - ts[term + 3] + ts[term + 6] for term in range(3)]
        if any(want is not None and value != want for want, value in zip(chis, values)):
            return
        for k, t in enumerate(ts):
            t_min[k] = t if t_min[k] is None else min(t_min[k], t)
            t_max[k] = t if t_max[k] is None else max(t_max[k], t)
        for seen, value in zip(chi_seen, values):
            seen.add(value)

    def walk(k: int):
        # choosing r_{k+1}; t_k = r_k + r_{k+1} must land in [lo_k, hi_k]
        if k == 8:
            if lo[8] <= ranks[8] and (hi[8] is None or ranks[8] <= hi[8]):
                record()
            return
        stop = r_max[k + 1] if hi[k] is None else min(hi[k] - ranks[k], r_max[k + 1])
        for r in range(max(r_min[k + 1], lo[k] - ranks[k]), stop + 1):
            ranks[k + 1] = r
            walk(k + 1)
        ranks[k + 1] = 0

    walk(0)
    if t_min[0] is None:
        raise _infeasible(seq)
    terms = []
    for term, chi in enumerate(chis):
        if chi is None and len(chi_seen[term]) == 1:
            chi = next(iter(chi_seen[term]))
        terms.append(CohInterval(tuple(t_min[term::3]), tuple(t_max[term::3]), chi))
    return LesInstance(*terms, seq.names, seq.label, seq.ranks)


def _full_state_dp(seq: LesInstance) -> LesInstance:
    """Second reference for `propagate`: a forward/backward DP whose state
    is r_k and the running chi of both A and C, whatever is watched
    (polynomial, so for instances too wide to enumerate).  Rank bounds
    enter through the ranges `_rank_bounds` gives the ranks."""
    lo, hi, r_lo, r_hi = _rank_bounds(seq, _watched_terms(seq))
    ca, cb, cc = (None if iv.is_forced_all() else iv.chi for iv in (seq.a, seq.b, seq.c))
    watched = (ca, cb, cc) != (None, None, None)

    # reach[k][r] = (min, max) of what steps k..8 can still add to chi_A,
    # then to chi_C, from r_k = r; extremes clamped into the window of r_{k+1}
    reach: list[dict[int, tuple[int, int, int, int]]] = [{} for _ in range(9)]
    reach.append({0: (0, 0, 0, 0)})
    for k in range(8 if watched else -1, -1, -1):
        da, dc = _CHI_STEPS[k]
        after = reach[k + 1]
        if not after:
            raise _infeasible(seq)
        first, last = min(after), max(after)
        best = [pick(after, key=lambda q: w * q + after[q][i])
                for i, (pick, w) in enumerate(((min, da), (max, da), (min, dc), (max, dc)))]
        for r in range(r_lo[k], r_hi[k] + 1):
            a, b = max(first, lo[k] - r), min(last, hi[k] - r)
            if a <= b:
                qa, qA, qc, qC = [min(max(q, a), b) for q in best]
                reach[k][r] = (da * (r + qa) + after[qa][0], da * (r + qA) + after[qA][1],
                               dc * (r + qc) + after[qc][2], dc * (r + qC) + after[qC][3])

    # forward over states (r_{k+1}, chi_A, chi_C so far), keeping those from
    # which every watched chi is within reach, then backward over the edges
    layer = {(0, 0, 0): []}
    steps = []
    for k, (da, dc) in enumerate(_CHI_STEPS):
        reached: dict[tuple[int, int, int], list] = {}
        for state in layer:
            r, xa, xc = state
            for r_next in range(max(r_lo[k + 1], lo[k] - r), min(r_hi[k + 1], hi[k] - r) + 1):
                t = r + r_next
                reached.setdefault((r_next, xa + da * t, xc + dc * t), []).append(state)
        layer = reached if not watched else {
            s: srcs for s, srcs in reached.items()
            if (g := reach[k + 1].get(s[0]))
            and (ca is None or g[0] <= ca - s[1] <= g[1])
            and (cc is None or g[2] <= cc - s[2] <= g[3])
            and (cb is None or g[0] + g[2] <= cb - s[1] - s[2] <= g[1] + g[3])}
        if not layer:
            raise _infeasible(seq)
        steps.append(layer)
    alive = list(layer)
    chi_seen = ({s[1] for s in alive}, {s[1] + s[2] for s in alive}, {s[2] for s in alive})
    t_min, t_max = [0] * 9, [0] * 9
    for k in range(8, -1, -1):
        ts = [src[0] + dst[0] for dst in alive for src in steps[k][dst]]
        t_min[k], t_max[k] = min(ts), max(ts)
        alive = {src for dst in alive for src in steps[k][dst]}
    terms = (CohInterval(tuple(t_min[i::3]), tuple(t_max[i::3]),
                         min(seen) if len(seen) == 1 else None)
             for i, seen in enumerate(chi_seen))
    return LesInstance(*terms, seq.names, seq.label, seq.ranks)


def _running_chi_dp(seq: LesInstance) -> LesInstance:
    """Third reference for `propagate` when a chi is watched: a
    forward/backward DP whose state holds the rank and the running value of
    one watched chi, or of two (its work grows with the values a running
    chi can take, so for moderate instances).  Rank bounds enter through
    the ranges `_rank_bounds` gives the ranks."""
    lo, hi, r_lo, r_hi = _rank_bounds(seq, _watched_terms(seq))
    watched = {_FORMS[term]: iv.chi for term, iv in enumerate((seq.a, seq.b, seq.c))
               if iv.chi is not None and not iv.is_forced_all()}
    t_min, t_max, known = _chi_dp(seq, lo, hi, r_lo, r_hi, watched)
    a, b, c = (known.get(form) for form in _FORMS)
    if [a, b, c].count(None) == 1:  # chi_B = chi_A + chi_C fixes the third
        a, b, c = (b - c if a is None else a, a + c if b is None else b,
                   b - a if c is None else c)
    terms = (CohInterval(tuple(t_min[i::3]), tuple(t_max[i::3]), chi)
             for i, chi in enumerate((a, b, c)))
    return LesInstance(*terms, seq.names, seq.label, seq.ranks)


def _suffix_table(seq, lo, hi, r_lo, r_hi, steps):
    """reach[k][r] = (min, max) of what t_k..t_8 can still add to the
    running sum of steps[j] t_j, from r_k = r (no entry: no completion):
    `_suffix_ranges` with one dict a level, the form `_chi_dp` reads.

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

    reach = [_suffix_table(seq, lo, hi, r_lo, r_hi, [w[j] for w in steps])
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


def _watches(seq):
    """Whether a fixed chi sits on a term the input does not pin."""
    return any(iv.chi is not None and not iv.is_forced_all() for iv in (seq.a, seq.b, seq.c))


def _result(solve, seq):
    """lo/hi/chi of all three terms, or the exception class and message."""
    try:
        res = solve(seq)
    except (InconsistencyError, UnboundedRankError) as err:
        return type(err), str(err)
    return tuple((iv.lo, iv.hi, iv.chi) for iv in (res.a, res.b, res.c))


@st.composite
def _small_instances(draw):
    """Bounds of width 0-3 around a rank chain with ranks <= 3, in half the
    draws with one dimension's bounds shifted off it (often infeasible);
    whole terms unknown; chi absent, true, off by one or random."""
    ranks = [0] + draw(st.lists(st.integers(0, 3), min_size=8, max_size=8)) + [0]
    point = [ranks[k] + ranks[k + 1] for k in range(9)]
    shifted = draw(st.integers(0, 17))  # a dimension when < 9
    lo, hi = [], []
    for k, t in enumerate(point):
        width = draw(st.integers(0, 3))
        shift = draw(st.sampled_from((-1, 1))) if k == shifted else 0
        lo.append(max(0, t - draw(st.integers(0, width)) + shift))
        hi.append(lo[-1] + width)
    terms = []
    for term in range(3):
        true_chi = point[term] - point[term + 3] + point[term + 6]
        chi = draw(st.sampled_from((None, None, None, true_chi, true_chi, true_chi - 1,
                                    true_chi + 1, "random")))
        if chi == "random":
            chi = draw(st.integers(-6, 9))
        if draw(st.integers(0, 4)) == 0:
            terms.append(CohInterval.unknown(chi))
            continue
        bounds = (tuple(lo[term::3]), tuple(hi[term::3]))
        try:
            terms.append(CohInterval(*bounds, chi))
        except ValueError:  # chi contradicts pinned dimensions
            terms.append(CohInterval(*bounds))
    return LesInstance(*terms, label=draw(st.sampled_from(("", "small"))))


def _chain_hull(lo, hi, crude, chis):
    """The least and greatest r_k (k = 0..9) and t_k (k = 0..8) over the
    rank chains with r_k <= crude[k] and lo_k <= t_k <= hi_k (hi_k None if
    unbounded) that meet each chi in `chis` that is not None, or None if
    there is none.  A forward and a backward pass over the sets of states
    (r_k, running chi of A, B and C): polynomial in the crude box, so for
    boxes too wide to walk chain by chain."""

    def steps(k, state):  # each (t_k, next state) from `state` at r_k
        for q in range(max(0, lo[k] - state[0]), crude[k + 1] + 1):
            t = state[0] + q
            if hi[k] is not None and t > hi[k]:
                return
            x = [q, *state[1:]]
            x[1 + k % 3] += (1, -1, 1)[k // 3] * t
            yield t, tuple(x)

    layers = [{(0, 0, 0, 0)}]
    for k in range(9):
        layers.append({x for state in layers[-1] for _, x in steps(k, state)})
    alive = {x for x in layers[9] if all(c in (None, v) for c, v in zip(chis, x[1:]))}
    if not alive:
        return None
    r_hull, t_hull = [(0, 0)] * 10, [None] * 9
    for k in range(8, -1, -1):
        edges = [(t, state) for state in layers[k] for t, x in steps(k, state) if x in alive]
        alive = {state for _, state in edges}
        r_hull[k] = (min(x[0] for x in alive), max(x[0] for x in alive))
        t_hull[k] = (min(t for t, _ in edges), max(t for t, _ in edges))
    return r_hull, t_hull


@settings(deadline=None, max_examples=200)
@given(_small_instances(), st.sets(st.integers(0, 8), max_size=2))
def test_rank_box_keeps_every_feasible_chain(seq, unbounded):
    """`_enumerated` searches only inside `_rank_bounds`' box, so the box
    must not drop a chain: every rank chain in the crude box
    r_k <= min(hi_{k-1}, hi_k) that meets the bounds and the watched chi
    lies inside it (and without one the box is exactly their hull).  The
    dimensions in `unbounded` lose their upper bounds, and an unbounded one
    counts as `cap` in the crude box: more than the finite bounds and one
    chi cap on them allow.  A rank between two unbounded dimensions must
    raise `UnboundedRankError`, and with no watched chi it reaches `cap`."""
    terms = [CohInterval(iv.lo, tuple(None if i + 3 * d in unbounded else h
                                      for d, h in enumerate(iv.hi)), iv.chi)
             for i, iv in enumerate((seq.a, seq.b, seq.c))]
    seq = LesInstance(*terms, seq.names, seq.label)
    lo = [terms[k % 3].lo[k // 3] for k in range(9)]
    hi = [terms[k % 3].hi[k // 3] for k in range(9)]
    watched = [None if iv.is_forced_all() else iv.chi for iv in terms]
    cap = (3 * max(lo + [h for h in hi if h is not None])
           + max([abs(iv.chi) for iv in terms if iv.chi is not None], default=0) + 1)
    crude = [0] + [min(cap if h is None else h for h in hi[k - 1:k + 1])
                   for k in range(1, 9)] + [0]
    hull = _chain_hull(lo, hi, crude, watched)
    try:
        box_lo, box_hi, r_lo, r_hi = _rank_bounds(seq, _watched_terms(seq))
    except InconsistencyError:
        assert hull is None
        return
    except UnboundedRankError:
        between = [k for k in range(1, 9) if hi[k - 1] is None and hi[k] is None]
        assert between
        if watched == [None] * 3:
            assert any(hull[0][k][1] == cap for k in between)
        return
    if watched == [None] * 3:
        assert hull is not None
        assert hull[0] == list(zip(r_lo, r_hi))
    if hull is not None:
        r_hull, t_hull = hull
        assert all(r_lo[k] <= a and b <= r_hi[k] for k, (a, b) in enumerate(r_hull))
        assert all(box_lo[k] <= a and b <= box_hi[k] for k, (a, b) in enumerate(t_hull))


def _assert_integers(seq: LesInstance) -> None:
    """`_rank_bounds` and `propagate` compute with ints only: every entry of
    the four lists is an int, and every returned bound an int or None."""
    try:
        lists = _rank_bounds(seq, _watched_terms(seq))
    except (InconsistencyError, UnboundedRankError):
        return
    assert all(type(x) is int for values in lists for x in values), lists
    try:
        res = propagate(seq)
    except InconsistencyError:
        return
    for iv in (res.a, res.b, res.c):
        assert all(type(x) is int for x in iv.lo), iv
        assert all(x is None or type(x) is int for x in (*iv.hi, iv.chi)), iv


@settings(deadline=None, max_examples=200)
@given(_small_instances())
def test_bounds_stay_integers_on_small_instances(seq):
    _assert_integers(seq)


@settings(deadline=None, max_examples=400)
@given(_small_instances())
def test_propagate_matches_enumeration_on_small_instances(seq):
    assert _result(propagate, seq) == _result(_enumerated, seq)


def _propagate_inputs(run) -> list[LesInstance]:
    """The distinct `propagate` inputs of `run()`, in first-call order."""
    seen = {}
    original = exact_seq.propagate

    def capture(seq):
        seen[seq] = None
        return original(seq)

    with pytest.MonkeyPatch.context() as patch:
        for module in (exact_seq, carpets, battery):  # every module binding the name
            patch.setattr(module, "propagate", capture)
        run()
    return list(seen)


@pytest.fixture(scope="module")
def verify_paper_inputs():
    """The distinct `propagate` inputs of one `verify-paper` run."""
    seen = _propagate_inputs(battery.run_all)
    assert len(seen) > 100
    return seen


@pytest.fixture(scope="module")
def sweep_inputs():
    """The distinct `propagate` inputs of a sweep that reaches what
    `verify-paper` does not: extra ambient dimensions 1..2 and degrees
    11..12 on P^2."""
    tokens = "--e 0..6 --a 1..3 --db 1..3 --extra 0..2 --d 1..12".split()
    seen = _propagate_inputs(lambda: cli.cmd_sweep(tokens, io.StringIO()))
    assert len(seen) == 539
    return seen


def test_propagate_matches_enumeration_on_verify_paper(verify_paper_inputs, sweep_inputs):
    for seq in verify_paper_inputs + sweep_inputs:
        assert _result(propagate, seq) == _result(_enumerated, seq), seq


def test_propagate_builds_a_term_only_where_one_changed(verify_paper_inputs, monkeypatch):
    """A deterministic guard on `propagate`'s work per call: one
    `CohInterval` built per term whose bounds or chi changed, none else."""
    built = []
    real = exact_seq.CohInterval

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(exact_seq, "CohInterval", counted)
    for seq in verify_paper_inputs:
        built.clear()
        out = propagate(seq)
        changed = sum((new.lo, new.hi, new.chi) != (old.lo, old.hi, old.chi)
                      for old, new in zip((seq.a, seq.b, seq.c), (out.a, out.b, out.c)))
        assert len(built) == changed, seq


def test_bounds_stay_integers_on_verify_paper(verify_paper_inputs):
    for seq in verify_paper_inputs:
        _assert_integers(seq)


@st.composite
def _wide_instances(draw):
    """Bounds of width 0-5 around a rank chain with ranks <= 8, in a third
    of the draws with one dimension's bounds shifted off it; 0-3 terms
    carry a chi (true, off by one or random), and a term is sometimes
    wholly unknown."""
    ranks = [0] + draw(st.lists(st.integers(0, 8), min_size=8, max_size=8)) + [0]
    point = [ranks[k] + ranks[k + 1] for k in range(9)]
    shifted = draw(st.integers(0, 26))  # a dimension when < 9
    lo, hi = [], []
    for k, t in enumerate(point):
        width = draw(st.integers(0, 5))
        shift = draw(st.sampled_from((-1, 1))) if k == shifted else 0
        lo.append(max(0, t - draw(st.integers(0, width)) + shift))
        hi.append(lo[-1] + width)
    with_chi = draw(st.permutations(range(3)))[:draw(st.integers(0, 3))]
    terms = []
    for term in range(3):
        chi = None
        if term in with_chi:
            true_chi = point[term] - point[term + 3] + point[term + 6]
            chi = draw(st.sampled_from((true_chi, true_chi, true_chi - 1, true_chi + 1)))
        if draw(st.integers(0, 7)) == 7:
            terms.append(CohInterval.unknown(chi))
            continue
        bounds = (tuple(lo[term::3]), tuple(hi[term::3]))
        try:
            terms.append(CohInterval(*bounds, chi))
        except ValueError:  # chi contradicts pinned dimensions
            terms.append(CohInterval(*bounds))
    return LesInstance(*terms)


@settings(deadline=None, max_examples=300)
@given(_wide_instances())
def test_propagate_matches_full_state_dp_on_wide_instances(seq):
    assert _result(propagate, seq) == _result(_full_state_dp, seq)


@settings(deadline=None, max_examples=300)
@given(_wide_instances())
def test_propagate_matches_running_chi_dp_on_wide_instances(seq):
    assume(_watches(seq))
    assert _result(propagate, seq) == _result(_running_chi_dp, seq)


@st.composite
def _with_rank_bounds(draw, instances, top):
    """An instance from `instances` with 0-2 bounds on single ranks, each
    with a lower end in 0..top and an upper end 0, 1 or 3 above it or none."""
    seq = draw(instances)
    ranks = []
    for _ in range(draw(st.integers(0, 2))):
        lo = draw(st.integers(0, top))
        hi = draw(st.sampled_from((None, lo, lo + 1, lo + 3)))
        ranks.append(RankBound(draw(st.integers(1, 8)), lo, hi, draw(st.sampled_from(("", "b")))))
    return LesInstance(seq.a, seq.b, seq.c, seq.names, seq.label, tuple(ranks))


@settings(deadline=None, max_examples=400)
@given(_with_rank_bounds(_small_instances(), 3))
def test_propagate_meets_rank_bounds_on_small_instances(seq):
    expected = _result(_enumerated, seq)
    assert _result(propagate, seq) == expected
    assert _result(_full_state_dp, seq) == expected
    if _watches(seq):
        assert _result(_running_chi_dp, seq) == expected


@settings(deadline=None, max_examples=200)
@given(_small_instances(), st.integers(1, 8), st.integers(0, 3), st.sampled_from((0, 1, 3)))
def test_propagate_meets_a_rank_bound_that_alone_bounds_its_rank(seq, k, lo, width):
    """The dimensions on both sides of r_k lose their upper bounds and a
    rank bound lo <= r_k <= lo + width is all that bounds r_k, so
    `_enumerated` walks `_rank_caps`' box, not one `_sweep` built."""
    terms = [CohInterval(iv.lo, tuple(None if i + 3 * d in (k - 1, k) else h
                                      for d, h in enumerate(iv.hi)), iv.chi)
             for i, iv in enumerate((seq.a, seq.b, seq.c))]
    seq = LesInstance(*terms, seq.names, seq.label, (RankBound(k, lo, lo + width, "alone"),))
    assert _result(propagate, seq) == _result(_enumerated, seq)


@settings(deadline=None, max_examples=200)
@given(_with_rank_bounds(_wide_instances(), 8))
def test_propagate_meets_rank_bounds_on_wide_instances(seq):
    expected = _result(_full_state_dp, seq)
    assert _result(propagate, seq) == expected
    if _watches(seq):
        assert _result(_running_chi_dp, seq) == expected


@settings(deadline=None, max_examples=400)
@given(st.one_of(_small_instances(), _wide_instances(), _with_rank_bounds(_small_instances(), 3),
                 _with_rank_bounds(_wide_instances(), 8)))
def test_propagate_returns_a_term_as_is_iff_it_is_unchanged(seq):
    """`chain` stores a returned term as is when it is the table's own
    object, so `propagate` must return the input object exactly for a term
    whose bounds and chi did not change, and a new `CohInterval` else."""
    try:
        out = propagate(seq)
    except (InconsistencyError, UnboundedRankError):
        return
    for old, new in zip((seq.a, seq.b, seq.c), (out.a, out.b, out.c)):
        assert type(new) is CohInterval
        assert (new is old) == ((new.lo, new.hi, new.chi) == (old.lo, old.hi, old.chi))
