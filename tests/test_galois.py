from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from zdense.galois import (
    GaloisAnswer,
    as_epsilon,
    has_long_prime_cycle,
    has_transposition_pattern,
    is_hyperoctahedral,
    is_sn,
    is_transitive,
    sumset,
    trials_invariable_transitivity,
    trials_jordan_cycle,
    trials_long_prime_cycle,
    trials_transposition,
)
from zdense.modular import factor_degrees_mod, is_prime
from zdense.polynomials import IntPoly, cyclotomic, discriminant, trace_polynomial
from zdense.polynomials import is_reciprocal as is_reciprocal_poly

EPS = "1e-6"


def brute_force_sumset(parts):
    total = sum(parts)
    sums = set()
    for r in range(1, len(parts) + 1):
        for combo in combinations(parts, r):
            sums.add(sum(combo))
    return frozenset(sums - {0, total})


def test_sumset_examples():
    assert sumset([2, 3]) == frozenset({2, 3})
    assert sumset([1, 1, 1]) == frozenset({1, 2})
    assert sumset([5]) == frozenset()
    with pytest.raises(ValueError):
        sumset([])


def test_sumset_matches_brute_force():
    rng = Random(42)
    for _ in range(100):
        n = rng.randrange(1, 17)
        parts = []
        while n > 0:
            p = rng.randrange(1, n + 1)
            parts.append(p)
            n -= p
        assert sumset(parts) == brute_force_sumset(parts)


def test_epsilon_normalization():
    assert as_epsilon("1e-6") == Fraction(1, 10**6)
    assert as_epsilon(0.5) == Fraction(1, 2)
    assert as_epsilon(Fraction(1, 3)) == Fraction(1, 3)
    for bad in (0, 1, -0.1, "2"):
        with pytest.raises(ValueError):
            as_epsilon(bad)


def test_trial_budget_formulas():
    # 4 * ceil(ln(1e6)/ln 20)
    assert trials_invariable_transitivity(EPS) == 20
    # ceil(2*sqrt(3)/0.8 * ln(1e6))
    assert trials_transposition(4, EPS) == 60
    # ceil(ln 13 / ln 2 * ln(1e6))
    assert trials_long_prime_cycle(13, EPS) == 52
    # ceil(ln(1e6) * 7) and ceil(ln(1e6) / (1/11 + 1/13))
    assert trials_jordan_cycle(13, EPS) == 97
    assert trials_jordan_cycle(16, EPS) == 83
    # tighter eps means more trials
    assert trials_invariable_transitivity("1e-12") == 2 * trials_invariable_transitivity("1e-6")
    assert trials_transposition(2, EPS) == trials_transposition(3, EPS)  # small-n clamp


def test_has_transposition_pattern():
    assert has_transposition_pattern((1, 2))
    assert not has_transposition_pattern((2, 2))
    assert has_transposition_pattern((2, 3, 5))
    assert not has_transposition_pattern((1, 1, 4))
    assert not has_transposition_pattern((1, 1, 1))


def test_has_long_prime_cycle():
    assert has_long_prime_cycle((7, 1, 1, 1, 1, 1, 1), 13, 5)
    assert has_long_prime_cycle((6, 7), 13, 5)
    assert not has_long_prime_cycle((4, 4, 5), 13, 5)
    assert not has_long_prime_cycle((8, 5), 13, 5)  # 8 not prime, 5 too short
    # widened window (slack -1) admits l = n
    assert has_long_prime_cycle((5,), 5, -1)
    assert not has_long_prime_cycle((5,), 5, 0)


def test_is_transitive_fixtures():
    assert is_transitive(IntPoly([1, 0, 1]), EPS, Random(1)).answer is GaloisAnswer.IRREDUCIBLE
    assert is_transitive(IntPoly([-1, 0, 1]), EPS, Random(2)).answer is GaloisAnswer.NOT_GENERIC
    product = IntPoly([1, 0, 1]) * IntPoly([1, 1, 1])
    assert is_transitive(product, EPS, Random(3)).answer is GaloisAnswer.NOT_GENERIC
    with pytest.raises(ValueError):
        is_transitive(IntPoly([1, -2, 1]), EPS, Random(4))  # disc 0
    with pytest.raises(ValueError):
        is_transitive(IntPoly([2, 2]), EPS, Random(5))  # not monic


def test_is_transitive_linear_certifies_with_witness():
    v = is_transitive(IntPoly([-5, 1]), EPS, Random(6))
    assert v.answer is GaloisAnswer.IRREDUCIBLE
    assert len(v.witnesses) >= 1


def test_survivor_intersection_is_monotone():
    # replaying the witnesses of a NOT_GENERIC run shows the survivor set
    # only ever shrinks
    f = IntPoly([-1, 0, 1]) * IntPoly([1, 1, 1])
    v = is_transitive(f, "1e-3", Random(7))
    survivors = set(range(1, f.degree))
    for _, degrees in v.witnesses:
        refined = survivors & sumset(degrees)
        assert refined <= survivors
        survivors = refined
    assert survivors  # never emptied, hence NOT_GENERIC


SN_FIXTURES = [
    (IntPoly([-1, -1, 0, 1]), True),  # S_3
    (IntPoly([1, 1, 1]), True),  # S_2
    (IntPoly([-1, -1, 0, 0, 1]), True),  # x^4 - x - 1: S_4
    (IntPoly([-1, -1, 0, 0, 0, 1]), True),  # x^5 - x - 1: S_5
    (IntPoly([-1, -2, 1, 1]), False),  # C_3
    (cyclotomic(5), False),  # C_4
    (IntPoly([1, 0, 0, 0, 1]), False),  # V_4
    (IntPoly([1, 0, -10, 0, 1]), False),  # sqrt2+sqrt3: V_4
    (IntPoly([1, 0, 1]) * IntPoly([1, 1, 1]), False),  # reducible
]


@pytest.mark.parametrize("f,expect_sn", SN_FIXTURES)
def test_is_sn_one_sided_on_known_groups(f, expect_sn):
    v = is_sn(f, EPS, Random(11))
    if expect_sn:
        assert v.answer is GaloisAnswer.CONFIRMED_SN
    else:
        assert v.answer is GaloisAnswer.NOT_GENERIC


def test_is_sn_zero_discriminant_is_not_generic():
    v = is_sn(IntPoly([1, -2, 1]), EPS, Random(1))
    assert v.answer is GaloisAnswer.NOT_GENERIC
    assert v.trials_used == 0


def test_is_sn_degree_one():
    v = is_sn(IntPoly([3, 1]), EPS, Random(1))
    assert v.answer is GaloisAnswer.CONFIRMED_SN


def test_is_sn_large_prime_degree():
    # x^13 - x - 1 is irreducible with Galois group S_13 (degree >= 13 route:
    # square-discriminant rejection plus a long prime cycle)
    f = IntPoly([-1, -1] + [0] * 11 + [1])
    v = is_sn(f, "1e-3", Random(21))
    assert v.answer is GaloisAnswer.CONFIRMED_SN
    last_q, last_degrees = v.witnesses[-1]
    assert has_long_prime_cycle(last_degrees, 13, 5)


@pytest.mark.parametrize("n", [14, 15, 16])
def test_is_sn_jordan_window_at_degrees_14_to_16(n):
    # the degree >= 13 route certifies with a prime cycle n/2 < l <= n-3
    # here too (11 at n = 14, 15; 11 or 13 at n = 16); x^n - x - 1 has
    # Galois group S_n for every n (trinomial theorem)
    f = IntPoly([-1, -1] + [0] * (n - 2) + [1])
    v = is_sn(f, "1e-4", Random(500 + n))
    assert v.answer is GaloisAnswer.CONFIRMED_SN
    last_q, last_degrees = v.witnesses[-1]
    assert has_long_prime_cycle(last_degrees, n, 2)


def test_jordan_window_holds_a_prime_from_degree_13():
    # Above 5000 Nagura (1952), a prime in (x, 6x/5] for every x >= 25,
    # puts one in (n/2, 3n/5], inside the window n/2 < l <= n - 3.
    for n in range(13, 5001):
        assert any(is_prime(l) for l in range(n // 2 + 1, n - 2)), n


def test_false_no_rate_within_eps_from_degree_13():
    # x^n - x - 1 has Galois group S_n, so every NO is false; over fixed
    # seeds the count must stay within the advertised eps
    runs = false_no = 0
    for n in (17, 22, 30):
        for seed in range(60):
            runs += 1
            false_no += not is_sn(TRINOMIAL(n), "1/10", Random(seed)).confirmed
    assert false_no <= runs / 10


def test_verdict_witnesses_reproduce():
    runs = [
        (IntPoly([-1, -1, 0, 1]), is_sn),
        (cyclotomic(5), is_sn),
        (IntPoly([1, 3, 1, 3, 1]), is_hyperoctahedral),
        (IntPoly([1, 0, 0, 0, 1]), is_hyperoctahedral),
    ]
    for f, certifier in runs:
        v = certifier(f, EPS, Random(31))
        assert v.witnesses
        for q, degrees in v.witnesses:
            assert factor_degrees_mod(f, q) == degrees


def test_confirmed_answers_carry_witnesses():
    confirmed = [
        is_sn(IntPoly([-1, -1, 0, 1]), EPS, Random(41)),
        is_sn(IntPoly([1, 1, 1]), EPS, Random(42)),
        is_hyperoctahedral(IntPoly([1, 3, 1, 3, 1]), EPS, Random(43)),
        is_transitive(IntPoly([1, 0, 1]), EPS, Random(44)),
    ]
    for v in confirmed:
        assert v.confirmed
        assert len(v.witnesses) >= 1
        assert v.epsilon == Fraction(1, 10**6)


def test_hyperoctahedral_fixtures():
    v = is_hyperoctahedral(IntPoly([1, 3, 1, 3, 1]), EPS, Random(51))
    assert v.answer is GaloisAnswer.CONFIRMED_HYPEROCTAHEDRAL
    assert is_hyperoctahedral(cyclotomic(5), EPS, Random(52)).answer is GaloisAnswer.NOT_GENERIC
    assert is_hyperoctahedral(IntPoly([1, 0, 0, 0, 1]), EPS, Random(53)).answer is GaloisAnswer.NOT_GENERIC


def test_hyperoctahedral_witness_prime_17_reproduces():
    # the quartic factors as (x-2)(x-9)(x^2+14x+1) mod 17: a transposition
    f = IntPoly([1, 3, 1, 3, 1])
    assert factor_degrees_mod(f, 17) == (1, 1, 2)
    assert has_transposition_pattern(factor_degrees_mod(f, 17))


def test_hyperoctahedral_rejects_bad_shape():
    with pytest.raises(ValueError):
        is_hyperoctahedral(IntPoly([-1, -1, 0, 1]), EPS, Random(1))  # not reciprocal
    with pytest.raises(ValueError):
        is_hyperoctahedral(IntPoly([1, 1]), EPS, Random(1))  # odd degree
    with pytest.raises(ValueError):
        is_hyperoctahedral(IntPoly([2, 1, 2]), EPS, Random(1))  # not monic


def test_hyperoctahedral_zero_discriminant():
    f = IntPoly([1, 0, 2, 0, 1])  # (x^2+1)^2, reciprocal, disc 0
    v = is_hyperoctahedral(f, EPS, Random(1))
    assert v.answer is GaloisAnswer.NOT_GENERIC


def test_hyperoctahedral_rejects_principal_embedding_words():
    # the cube-of-eigenvalue embedding SL(2) -> dim 4 produces reciprocal
    # quartics (x^2 - t x + 1)(x^2 - (t^3-3t) x + 1): irreducible action,
    # infinite order, but the trace polynomial splits, so the certificate
    # must never fire
    rng = Random(9)
    for _ in range(15):
        t = rng.randrange(3, 50)
        u = t**3 - 3 * t
        f = IntPoly([1, -t, 1]) * IntPoly([1, -u, 1])
        assert is_reciprocal_poly(f)
        v = is_hyperoctahedral(f, EPS, Random(t))
        assert v.answer is GaloisAnswer.NOT_GENERIC, t


def test_seed_determinism():
    f = IntPoly([-1, -1, 0, 1])
    a = is_sn(f, EPS, Random(99))
    b = is_sn(f, EPS, Random(99))
    assert a == b


def TRINOMIAL(n):
    # x^n - x - 1 has Galois group S_n for every n (Osada)
    return IntPoly([-1, -1] + [0] * (n - 2) + [1])


# (answer, trials_used, witnesses) at eps 1/10 for fixed seeds, one row per
# branch of the certifiers: transposition hunts below degree 13, the
# primitivity hunt at composite degree 12, the Jordan-window hunt at 13, 14,
# 16 and 18, the hyperoctahedral stage, and budgets that run out.  Any
# change to a trial budget or to the order of rng draws moves these rows.
PINNED_VERDICTS = [
    # x^3 - x - 1
    (is_sn, TRINOMIAL(3), 1, GaloisAnswer.CONFIRMED_SN, 7, (
        (1295869, (1, 1, 1)), (1258291, (1, 2)), (1446719, (1, 2)),
        (1229911, (1, 1, 1)), (2075537, (1, 2)), (1853231, (3,)), (1427707, (1, 2)),
    )),
    # x^4 - x - 1
    (is_sn, TRINOMIAL(4), 2, GaloisAnswer.CONFIRMED_SN, 12, (
        (2023529, (1, 1, 2)), (1790521, (2, 2)), (2076209, (1, 3)), (2006033, (1, 3)),
        (1396849, (1, 3)), (1764667, (4,)), (1066237, (1, 3)), (1271203, (1, 3)),
        (1151147, (4,)), (1648417, (1, 3)), (1316039, (1, 3)), (1574501, (1, 1, 2)),
    )),
    # x^12 - x - 1
    (is_sn, TRINOMIAL(12), 3, GaloisAnswer.CONFIRMED_SN, 28, (
        (1076191, (1, 2, 4, 5)), (2032627, (6, 6)), (1540003, (1, 11)),
        (1080341, (2, 10)), (1382861, (1, 2, 4, 5)), (1943923, (1, 11)),
        (1329907, (1, 1, 5, 5)), (1333723, (4, 8)), (2086421, (2, 2, 8)),
        (1635119, (1, 3, 8)), (1297963, (3, 9)), (1698001, (1, 2, 3, 6)),
        (1600909, (1, 11)), (1105033, (2, 2, 8)), (1515271, (1, 1, 2, 2, 6)),
        (1375727, (2, 2, 2, 6)), (1525607, (5, 7)), (1301941, (1, 2, 3, 6)),
        (2049331, (1, 11)), (1786441, (1, 2, 3, 6)), (1511633, (1, 2, 2, 3, 4)),
        (2040319, (2, 2, 8)), (1726199, (1, 1, 2, 8)), (1939631, (1, 2, 2, 7)),
        (1306831, (2, 2, 8)), (1543441, (1, 11)), (1863683, (2, 10)),
        (1258109, (2, 3, 7)),
    )),
    # x^13 - x - 1
    (is_sn, TRINOMIAL(13), 4, GaloisAnswer.CONFIRMED_SN, 3, (
        (1237529, (3, 10)), (1410679, (13,)), (1597441, (1, 1, 1, 3, 7)),
    )),
    # x^14 - x - 1
    (is_sn, TRINOMIAL(14), 5, GaloisAnswer.CONFIRMED_SN, 7, (
        (1584283, (1, 1, 3, 4, 5)), (1377517, (1, 1, 12)), (1828283, (1, 13)),
        (1503091, (3, 4, 7)), (1634693, (1, 2, 2, 9)), (1314283, (1, 1, 1, 3, 4, 4)),
        (1397719, (3, 11)),
    )),
    # x^16 - x - 1
    (is_sn, TRINOMIAL(16), 6, GaloisAnswer.CONFIRMED_SN, 8, (
        (1808039, (1, 2, 6, 7)), (1108181, (1, 1, 1, 1, 1, 1, 10)), (1562159, (8, 8)),
        (1460087, (1, 2, 3, 10)), (1488737, (2, 4, 10)), (1746743, (1, 1, 2, 12)),
        (1840051, (1, 5, 10)), (1161449, (5, 11)),
    )),
    # x^18 - x - 1
    (is_sn, TRINOMIAL(18), 7, GaloisAnswer.CONFIRMED_SN, 6, (
        (1172539, (1, 17)), (1695509, (2, 7, 9)), (1264699, (1, 8, 9)),
        (1806869, (2, 8, 8)), (1697869, (1, 1, 1, 2, 5, 8)), (2016821, (2, 5, 11)),
    )),
    # x^4 + 3x^3 + x^2 + 3x + 1
    (is_hyperoctahedral, IntPoly([1, 3, 1, 3, 1]), 8, GaloisAnswer.CONFIRMED_HYPEROCTAHEDRAL, 5, (
        (1405421, (1, 1, 2)),
    )),
    # (x^2 + 1)(x^2 + x + 1): transitivity budget runs out
    (is_sn, IntPoly([1, 0, 1]) * IntPoly([1, 1, 1]), 9, GaloisAnswer.NOT_GENERIC, 8, (
        (1547723, (2, 2)), (1156231, (1, 1, 2)), (1910899, (1, 1, 2)),
        (1545041, (1, 1, 2)), (1979741, (1, 1, 2)), (1234837, (1, 1, 1, 1)),
        (2091553, (1, 1, 1, 1)), (1830749, (1, 1, 2)),
    )),
    # C_3 cubic: transposition budget runs out
    (is_sn, IntPoly([-1, -2, 1, 1]), 10, GaloisAnswer.NOT_GENERIC, 14, (
        (1116911, (3,)), (1948021, (3,)), (2060581, (3,)), (1079681, (1, 1, 1)),
        (2018677, (3,)), (1384601, (1, 1, 1)), (1142017, (3,)), (1914427, (3,)),
        (1744111, (3,)), (1968341, (3,)), (1292633, (1, 1, 1)), (1145539, (3,)),
        (1888841, (3,)), (1456799, (1, 1, 1)),
    )),
    # Phi_5: trace stage certifies, f stage runs out
    (is_hyperoctahedral, cyclotomic(5), 11, GaloisAnswer.NOT_GENERIC, 13, (
        (1173463, (4,)), (1447471, (1, 1, 1, 1)), (1188721, (1, 1, 1, 1)),
        (1496321, (1, 1, 1, 1)), (1986893, (4,)), (1323233, (4,)), (1876643, (4,)),
        (1614377, (4,)), (1858433, (4,)), (1486321, (1, 1, 1, 1)),
        (1862711, (1, 1, 1, 1)),
    )),
]


@pytest.mark.parametrize("certifier,f,seed,answer,trials,witnesses", PINNED_VERDICTS)
def test_pinned_verdicts(certifier, f, seed, answer, trials, witnesses):
    v = certifier(f, "1/10", Random(seed))
    assert (v.answer, v.trials_used, v.witnesses) == (answer, trials, witnesses)


def test_discriminant_once_per_polynomial(monkeypatch):
    from zdense import galois

    seen = []

    def counting(f):
        seen.append(f)
        return discriminant(f)

    monkeypatch.setattr(galois, "discriminant", counting)
    for n in (2, 5, 12, 13, 16, 18):
        seen.clear()
        assert is_sn(TRINOMIAL(n), "1/10", Random(n)).confirmed
        assert seen == [TRINOMIAL(n)]
    seen.clear()
    f = IntPoly([1, 3, 1, 3, 1])
    assert is_hyperoctahedral(f, "1/10", Random(8)).confirmed
    assert seen == [f, trace_polynomial(f)]


def test_trials_used_counts_witnesses():
    runs = [
        (is_sn, TRINOMIAL(7)),
        (is_sn, TRINOMIAL(14)),
        (is_sn, IntPoly([-1, -2, 1, 1])),
        (is_sn, IntPoly([1, 0, 1]) * IntPoly([1, 1, 1])),
        (is_transitive, IntPoly([1, 0, 1]) * IntPoly([1, 1, 1])),
        (is_transitive, TRINOMIAL(9)),
    ]
    for seed, (certifier, f) in enumerate(runs):
        v = certifier(f, "1/10", Random(seed))
        assert v.trials_used == len(v.witnesses) > 0
