import importlib.util
import json
import math
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path
from random import Random

import pytest

from zdense import _kernel_py, galois
from zdense.galois import (
    Certainty,
    GaloisAnswer,
    as_epsilon,
    has_long_prime_cycle,
    has_transposition_pattern,
    is_hyperoctahedral,
    is_sn,
    is_transitive,
    prime_cycle_density,
    sumset,
    transposition_density,
    trials_for_density,
    trials_invariable_transitivity,
)
from zdense.modular import factor_degrees_mod, is_prime, random_prime_avoiding
from zdense.polynomials import IntPoly, cyclotomic, discriminant, trace_polynomial
from zdense.polynomials import is_reciprocal as is_reciprocal_poly

EPS = "1e-6"

AUDIT_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "audit_error_rates.py"
_AUDIT_SPEC = importlib.util.spec_from_file_location("audit_error_rates", AUDIT_SCRIPT)
audit = importlib.util.module_from_spec(_AUDIT_SPEC)
_AUDIT_SPEC.loader.exec_module(audit)


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


def cycle_type(perm):
    """Cycle lengths of a permutation given as a tuple of images."""
    seen, lengths = set(), []
    for start in range(len(perm)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i, length = perm[i], length + 1
        if length:
            lengths.append(length)
    return lengths


def density(elements, accepts):
    elements = list(elements)
    return Fraction(sum(accepts(cycle_type(g)) for g in elements), len(elements))


def signed_permutations(m):
    """C_2 wr S_m acting on 2m points, i in 0..m-1 standing for r_i and
    i + m for 1/r_i."""
    for perm in permutations(range(m)):
        for signs in product((0, 1), repeat=m):
            image = [0] * (2 * m)
            for i in range(m):
                image[i] = perm[i] + m * signs[i]
                image[i + m] = perm[i] + m * (1 - signs[i])
            yield tuple(image)


def test_trial_budget_formulas():
    # 4 * ceil(ln(1e6)/ln 20)
    assert trials_invariable_transitivity(EPS) == 20
    # ceil(ln(1e6) * 7) and ceil(ln(1e6) / (1/11 + 1/13))
    assert trials_for_density(prime_cycle_density(13, 2), EPS) == 97
    assert trials_for_density(prime_cycle_density(16, 2), EPS) == 83
    # tighter eps means more trials
    assert trials_invariable_transitivity("1e-12") == 2 * trials_invariable_transitivity("1e-6")
    # ceil(4 ln 10): a class of density 1/4 is missed 10 times with
    # probability (3/4)^10 < 1/10
    assert trials_for_density(Fraction(1, 4), "1/10") == 10


@pytest.mark.parametrize("n", range(3, 9))
def test_densities_match_symmetric_group_enumeration(n):
    group = list(permutations(range(n)))
    assert transposition_density(n - 2, Fraction(1, 2)) == density(
        group, has_transposition_pattern
    )
    for slack in (-1, 2):
        assert prime_cycle_density(n, slack) == density(
            group, lambda d: has_long_prime_cycle(d, n, slack)
        )


@pytest.mark.parametrize("m", range(1, 5))
def test_transposition_density_matches_hyperoctahedral_enumeration(m):
    expected = density(signed_permutations(m), has_transposition_pattern)
    assert transposition_density(m - 1, Fraction(1, 4)) == expected
    assert expected == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 16), Fraction(3, 32)][m - 1]


def test_prime_windows_match_direct_enumeration():
    for n in range(4, 31):
        primes = [l for l in range(2, n + 1) if is_prime(l) and 2 * l > n]
        assert prime_cycle_density(n, -1) == sum(Fraction(1, l) for l in primes)
        jordan = sum(Fraction(1, l) for l in primes if l <= n - 3)
        assert prime_cycle_density(n, 2) == jordan


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


@pytest.mark.parametrize(
    "f",
    [
        IntPoly([1, -3, 0, 1]),  # x^3 - 3x + 1: C_3, discriminant 81
        IntPoly([-2] + [0] * 8 + [1]),  # x^9 - 2: discriminant 3^18 2^8
        IntPoly([1, 3, 1, 3, 1]),  # palindromic: roots pair as r <-> 1/r
    ],
)
def test_is_sn_structural_no_takes_no_trials(f):
    v = is_sn(f, EPS, Random(1))
    assert (v.answer, v.trials_used, v.witnesses) == (GaloisAnswer.NOT_GENERIC, 0, ())
    assert v.certainty is Certainty.CERTAIN


def test_is_sn_palindromic_no_computes_no_discriminant(monkeypatch):
    # the shape shows in the coefficients, so no resultant is taken; the
    # input checks still come first
    def no_discriminant(f):
        raise AssertionError("discriminant computed")

    monkeypatch.setattr(galois, "discriminant", no_discriminant)
    palindromic = IntPoly([1, 3, 1, 3, 1])
    v = is_sn(palindromic, EPS, Random(1))
    assert (v.answer, v.trials_used, v.certainty) == (GaloisAnswer.NOT_GENERIC, 0,
                                                      Certainty.CERTAIN)
    with pytest.raises(ValueError, match=r"1 < lo < hi <= 2\^64"):
        is_sn(palindromic, EPS, Random(1), (8, 4))
    with pytest.raises(ValueError, match="monic"):
        is_sn(IntPoly([2, 3, 1, 3, 2]), EPS, Random(1))


def test_hyperoctahedral_shape_errors_compute_no_discriminant(monkeypatch):
    # odd degree and a non-reciprocal f show in the coefficients, so they
    # are refused before any resultant is taken
    def no_discriminant(f):
        raise AssertionError("discriminant computed")

    monkeypatch.setattr(galois, "discriminant", no_discriminant)
    with pytest.raises(ValueError, match="need even degree"):
        is_hyperoctahedral(IntPoly([1, 2, 0, 1]), EPS, Random(1))
    with pytest.raises(ValueError, match="need a reciprocal polynomial"):
        is_hyperoctahedral(IntPoly([1, 2, 0, 3, 1]), EPS, Random(1))
    with pytest.raises(ValueError, match="monic"):
        is_hyperoctahedral(IntPoly([2, 1, 2]), EPS, Random(1))


def test_is_sn_checks_its_input_once(monkeypatch):
    calls = []
    real_checked = galois._checked
    monkeypatch.setattr(galois, "_checked", lambda *args: calls.append(args) or real_checked(*args))
    assert is_sn(TRINOMIAL(5), EPS, Random(1)).confirmed
    assert len(calls) == 1


def test_hyperoctahedral_square_discriminant_takes_no_trials():
    # disc(Phi_24) = 2^16 3^4: the group lies in A_8, which misses the lone
    # 2-cycle of a swapped root pair r <-> 1/r
    v = is_hyperoctahedral(cyclotomic(24), EPS, Random(1))
    assert (v.answer, v.trials_used, v.witnesses) == (GaloisAnswer.NOT_GENERIC, 0, ())
    assert v.certainty is Certainty.CERTAIN


def test_hyperoctahedral_structural_trace_no_is_certain():
    # disc(Phi_7) = -7^5 is no square, but its trace polynomial
    # x^3 + x^2 - 2x - 1 has discriminant 49: no S_3 on the root pairs
    assert discriminant(cyclotomic(7)) == -(7**5)
    v = is_hyperoctahedral(cyclotomic(7), EPS, Random(1))
    assert (v.answer, v.trials_used, v.witnesses) == (GaloisAnswer.NOT_GENERIC, 0, ())
    assert v.certainty is Certainty.CERTAIN


def test_only_sampled_nos_are_monte_carlo():
    yes = is_sn(IntPoly([-1, -1, 0, 1]), EPS, Random(1))
    no = is_hyperoctahedral(cyclotomic(5), EPS, Random(1))  # C_4, sampled
    assert yes.confirmed and yes.certainty is Certainty.CERTAIN
    assert no.trials_used > 0 and no.certainty is Certainty.MONTE_CARLO
    # the Weyl route embeds to_json in its trail, so certainty stays out
    assert set(no.to_json()) == {"answer", "epsilon", "trials_used", "witnesses"}


@pytest.mark.parametrize("prime_range", [
    (2**100, 2**101),  # fixed-base Miller-Rabin, not a proof
    (1 << 63, (1 << 64) + 1),
    (1, 8),
    (8, 4),
])
def test_certifiers_reject_prime_ranges_outside_the_proven_window(prime_range):
    cubic = IntPoly([-1, -1, 0, 1])
    structural = IntPoly([1, -3, 0, 1])  # a NO that draws no prime
    for certify, f in ((is_sn, cubic), (is_sn, structural), (is_transitive, cubic),
                       (is_hyperoctahedral, cyclotomic(5))):
        with pytest.raises(ValueError, match=r"1 < lo < hi <= 2\^64"):
            certify(f, EPS, Random(0), prime_range)
    assert is_sn(cubic, EPS, Random(0), (1 << 63, 1 << 64)).confirmed


def test_is_sn_degree_one():
    v = is_sn(IntPoly([3, 1]), EPS, Random(1))
    assert v.answer is GaloisAnswer.CONFIRMED_SN


def test_is_sn_large_prime_degree():
    # x^13 - x - 1 is irreducible with Galois group S_13 (degree >= 13 route:
    # square-discriminant rejection plus a long prime cycle)
    f = IntPoly([-1, -1] + [0] * 11 + [1])
    v = is_sn(f, "1e-3", Random(21))
    assert v.answer is GaloisAnswer.CONFIRMED_SN
    # the Jordan cycle may be a witness the transitivity stage drew
    assert any(has_long_prime_cycle(degrees, 13, 5) for _, degrees in v.witnesses)


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


def test_hyperoctahedral_false_no_rate_within_eps():
    # The reciprocal lift of x^m - x - 1 has Galois group C_2 wr S_m, which
    # a YES at some seed certifies for each m.  A NO with witnesses on f
    # ended in the transposition stage, whose share of the budget is eps/2.
    runs = f_stage_no = 0
    for m in range(3, 7):
        f = audit.reciprocal_trinomial(m)
        verdicts = [is_hyperoctahedral(f, "1/10", Random(seed)) for seed in range(100)]
        assert any(v.confirmed for v in verdicts), m
        runs += len(verdicts)
        f_stage_no += sum(not v.confirmed and bool(v.witnesses) for v in verdicts)
    assert audit.binomial_tail(f_stage_no, runs, 1 / 20) >= audit.LEVEL, f_stage_no


def test_audit_script_rows(tmp_path):
    out = tmp_path / "audit.json"
    audit.main(["--seeds", "2", "--json", str(out)])
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 2 * sum(len(degrees) for _, _, degrees in audit.FAMILIES.values())
    assert {row["family"] for row in rows} == set(audit.FAMILIES)
    for row in rows:
        assert set(row) == {
            "family", "n", "eps", "runs", "false_no", "false_no_transitivity",
            "upper95", "consistent_with_eps", "trials",
        }
        assert 0 <= row["false_no_transitivity"] <= row["false_no"] <= row["runs"] == 2


def test_verdict_witnesses_reproduce():
    runs = [
        (IntPoly([-1, -1, 0, 1]), is_sn),
        (IntPoly([-2, 0, 0, 0, 1]), is_sn),
        (IntPoly([1, 3, 1, 3, 1]), is_hyperoctahedral),
        (cyclotomic(5), is_hyperoctahedral),
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
    with pytest.raises(ValueError, match="need a reciprocal polynomial"):
        is_hyperoctahedral(IntPoly([-1, -1, 0, 0, 1]), EPS, Random(1))  # x^4 - x - 1
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
# branch of the certifiers: a pool that already certifies the later stages
# at degrees 3 and 4, transposition hunts below degree 13, the
# primitivity hunt at composite degree 12, the Jordan-window hunt at 13, 14,
# 16 and 18, the hyperoctahedral stage, structural NOs, and each budget
# running out.  Any change to a trial budget, to the order of rng draws or
# to which pooled witnesses a stage accepts moves these rows.
PINNED_VERDICTS = [
    # x^3 - x - 1: the transitivity trials already hold a transposition
    (is_sn, TRINOMIAL(3), 1, GaloisAnswer.CONFIRMED_SN, 6, (
        (1295869, (1, 1, 1)), (1258291, (1, 2)), (1446719, (1, 2)),
        (1229911, (1, 1, 1)), (2075537, (1, 2)), (1853231, (3,)),
    )),
    # x^4 - x - 1: the transitivity trials already hold a 3-cycle and a
    # transposition, so the later stages draw no prime
    (is_sn, TRINOMIAL(4), 2, GaloisAnswer.CONFIRMED_SN, 3, (
        (2023529, (1, 1, 2)), (1790521, (2, 2)), (2076209, (1, 3)),
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
    # (x^2 + 1)(x^2 + x + 1): palindromic, a structural NO
    (is_sn, IntPoly([1, 0, 1]) * IntPoly([1, 1, 1]), 9, GaloisAnswer.NOT_GENERIC, 0, ()),
    # C_3 cubic: square discriminant 49, a structural NO
    (is_sn, IntPoly([-1, -2, 1, 1]), 10, GaloisAnswer.NOT_GENERIC, 0, ()),
    # Phi_5: trace stage certifies in 2 trials, f stage runs out after 12
    (is_hyperoctahedral, cyclotomic(5), 11, GaloisAnswer.NOT_GENERIC, 14, (
        (1173463, (4,)), (1447471, (1, 1, 1, 1)), (1188721, (1, 1, 1, 1)),
        (1496321, (1, 1, 1, 1)), (1986893, (4,)), (1323233, (4,)), (1876643, (4,)),
        (1614377, (4,)), (1858433, (4,)), (1486321, (1, 1, 1, 1)),
        (1862711, (1, 1, 1, 1)), (1193603, (4,)),
    )),
    # (x^2 + 1)(x^2 + x - 1): the first trial's prime lifts the factor
    # x^2 + x - 1 from its two linear factors (see PINNED_FACTORS), a
    # certain NO
    (is_sn, IntPoly([1, 0, 1]) * IntPoly([-1, 1, 1]), 12, GaloisAnswer.NOT_GENERIC, 1, (
        (1156271, (1, 1, 2)),
    )),
    # x^4 - 2 (D_4): transitive after 6, primitivity budget (11) runs out
    (is_sn, IntPoly([-2, 0, 0, 0, 1]), 13, GaloisAnswer.NOT_GENERIC, 17, (
        (1438067, (2, 2)), (1341143, (1, 1, 2)), (1988891, (2, 2)), (1322843, (2, 2)),
        (1915729, (2, 2)), (1802189, (4,)), (1667917, (4,)), (1784297, (2, 2)),
        (1940747, (2, 2)), (1144223, (1, 1, 2)), (1158881, (1, 1, 1, 1)),
        (1118567, (1, 1, 2)), (1972441, (2, 2)), (1880201, (2, 2)), (1112341, (4,)),
        (2047039, (1, 1, 2)), (1423369, (1, 1, 1, 1)),
    )),
    # x^5 - 2 (F_20): transitive after 4, transposition budget (14) runs out
    (is_sn, IntPoly([-2, 0, 0, 0, 0, 1]), 15, GaloisAnswer.NOT_GENERIC, 18, (
        (1124443, (1, 4)), (1793417, (1, 4)), (1087897, (1, 4)), (1993711, (5,)),
        (1067293, (1, 4)), (1729891, (5,)), (1885603, (1, 4)), (1769167, (1, 4)),
        (2017313, (1, 4)), (1459543, (1, 4)), (1903859, (1, 2, 2)), (1522663, (1, 4)),
        (1975153, (1, 4)), (1120051, (5,)), (1597793, (1, 4)), (1396849, (1, 2, 2)),
        (1226213, (1, 4)), (1510021, (5,)),
    )),
]


# the factor of each PINNED_VERDICTS row that has one, by seed
PINNED_FACTORS = {12: (-1, 1, 1)}


@pytest.mark.parametrize("certifier,f,seed,answer,trials,witnesses", PINNED_VERDICTS)
def test_pinned_verdicts(certifier, f, seed, answer, trials, witnesses):
    v = certifier(f, "1/10", Random(seed))
    assert (v.answer, v.trials_used, v.witnesses) == (answer, trials, witnesses)
    assert v.factor == PINNED_FACTORS.get(seed)


def test_pinned_factor_verdict_at_default_eps():
    # (x^4 - 2)(x^5 - 3) at eps 1e-6, where the budget is 20 trials.  Seed
    # 11: the first trial's prime lifts x^4 - 2 from its class of degree 4.
    # Seed 17: the attempts at trials 1-4 find no union of degree classes
    # that lifts (at each prime x^4 - 2 shares a degree class with a factor
    # of x^5 - 3), and trial 5's (2, 2, 5) does
    f = IntPoly([-2, 0, 0, 0, 1]) * IntPoly([-3, 0, 0, 0, 0, 1])
    v = is_sn(f, EPS, Random(11))
    assert (v.answer, v.certainty, v.trials_used, v.factor) == (
        GaloisAnswer.NOT_GENERIC, Certainty.CERTAIN, 1, (-2, 0, 0, 0, 1))
    assert v.witnesses == ((1446829, (1, 2, 2, 4)),)
    assert v.to_json()["factor"] == [-2, 0, 0, 0, 1]
    v = is_sn(f, EPS, Random(17))
    assert (v.answer, v.certainty, v.trials_used, v.factor) == (
        GaloisAnswer.NOT_GENERIC, Certainty.CERTAIN, 5, (-2, 0, 0, 0, 1))
    assert v.witnesses == (
        (1193653, (1, 4, 4)), (1792313, (1, 1, 1, 1, 1, 4)), (1320127, (1, 1, 1, 2, 4)),
        (1406617, (1, 1, 1, 1, 1, 4)), (1069051, (2, 2, 5)),
    )


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
        (is_sn, IntPoly([-2, 0, 0, 0, 0, 1])),
        (is_sn, IntPoly([1, 0, 1]) * IntPoly([-1, 1, 1])),
        (is_transitive, IntPoly([1, 0, 1]) * IntPoly([1, 1, 1])),
        (is_transitive, TRINOMIAL(9)),
    ]
    for seed, (certifier, f) in enumerate(runs):
        v = certifier(f, "1/10", Random(seed))
        assert v.trials_used == len(v.witnesses) > 0


def _assert_certifies_sn(f, witnesses):
    """Re-derive a YES of is_sn from its witnesses alone: each cycle type
    re-factors at its prime, the sumsets leave no survivor (transitive),
    n is prime or some cycle is a prime l in (n/2, n] (primitive), and a
    transposition pattern below degree 13, or from 13 on a Jordan cycle and
    a non-square discriminant, gives S_n."""
    n = f.degree
    for q, degrees in witnesses:
        assert tuple(_kernel_py.ddf_degrees(f.coeffs, q)) == degrees
    types = [degrees for _, degrees in witnesses]
    survivors = set(range(1, n))
    for degrees in types:
        survivors &= sumset(degrees)
    assert not survivors
    if n <= 2:
        return
    assert is_prime(n) or any(has_long_prime_cycle(d, n, -1) for d in types)
    if n < 13:
        assert any(has_transposition_pattern(d) for d in types)
    else:
        assert any(has_long_prime_cycle(d, n, 2) for d in types)
        disc = discriminant(f)
        assert math.isqrt(abs(disc)) ** 2 != disc


def test_confirmed_verdicts_rederive_from_their_witnesses(monkeypatch):
    # Every stage may accept a witness that an earlier stage drew, so a YES
    # must still follow from the witness list alone.  The trace
    # polynomial's verdict inside is_hyperoctahedral is caught on its way
    # out; its YES and a transposition pattern on f certify C_2 wr S_m.
    traces = []

    def recording_is_sn(*args):
        traces.append(is_sn(*args))
        return traces[-1]

    monkeypatch.setattr(galois, "is_sn", recording_is_sn)
    confirmed = 0
    for eps in ("1/10", EPS):
        for seed in range(20):
            for n in range(3, 31):
                v = is_sn(TRINOMIAL(n), eps, Random(seed))
                if v.confirmed:
                    _assert_certifies_sn(TRINOMIAL(n), v.witnesses)
                    confirmed += 1
            for m in range(3, 9):
                f = audit.reciprocal_trinomial(m)
                traces.clear()
                v = is_hyperoctahedral(f, eps, Random(seed))
                if v.confirmed:
                    _assert_certifies_sn(trace_polynomial(f), traces[0].witnesses)
                    for q, degrees in v.witnesses:
                        assert tuple(_kernel_py.ddf_degrees(f.coeffs, q)) == degrees
                    assert any(has_transposition_pattern(d) for _, d in v.witnesses)
                    confirmed += 1
    assert confirmed > 1300


def test_a_stage_certified_by_the_pool_draws_no_prime(monkeypatch):
    draws = []

    def counting_draw(*args):
        draws.append(random_prime_avoiding(*args))
        return draws[-1]

    monkeypatch.setattr(galois, "random_prime_avoiding", counting_draw)
    # x^6 - x - 1, seed 7: the third transitivity trial empties the sumset
    # intersection, and the first three already hold a 5-cycle (primitivity)
    # and a transposition pattern, so the two later stages draw nothing
    v = is_sn(TRINOMIAL(6), "1/10", Random(7))
    assert v.answer is GaloisAnswer.CONFIRMED_SN
    assert v.witnesses == ((1172539, (3, 3)), (1695509, (1, 2, 3)), (1264699, (1, 5)))
    assert len(draws) == v.trials_used == 3
    for seed, n in enumerate((3, 4, 6, 7, 12, 13, 17, 22)):
        for eps in ("1/10", EPS):
            draws.clear()
            v = is_sn(TRINOMIAL(n), eps, Random(seed))
            assert len(draws) == v.trials_used == len(v.witnesses)


def test_transitivity_folds_over_a_pooled_witness_once(monkeypatch):
    # The transitivity stage keeps state, so hunt must show it each pooled
    # witness exactly once, whatever stage drew it.  A stage that waits for
    # a 5-cycle of x^5 - x - 1 fills the pool with five witnesses (at each
    # of the first four, sumset survivors remain, so transitivity tries a
    # factor at that witness's own prime, from the parts its draw left);
    # transitivity then ends on the pooled 5-cycle, having seen every
    # witness in order, and draws nothing.
    seen, attempts = [], []

    def recording_sumset(degrees):
        seen.append(degrees)
        return sumset(degrees)

    def recording_lift(f, q, degrees, q_parts, survivors, bounds):
        assert q_parts is parts[q]
        attempts.append(q)
        return None

    monkeypatch.setattr(galois, "sumset", recording_sumset)
    monkeypatch.setattr(galois, "_lifted_factor", recording_lift)
    _, witnesses, parts, hunt = galois._sampler(TRINOMIAL(5), Random(2), (1 << 20, 1 << 21))
    assert hunt(100, lambda _, degrees: degrees == (5,))
    pooled = list(witnesses)
    assert len(pooled) == 5 and set(parts) == {q for q, _ in pooled}
    assert galois._transitive(TRINOMIAL(5), hunt, parts, as_epsilon(EPS)) == (True, None)
    assert witnesses == pooled
    assert seen == [degrees for _, degrees in pooled]
    assert attempts == [q for q, _ in pooled[:4]]


def test_one_ddf_run_per_trial(monkeypatch):
    # A factor attempt lifts the parts that its trial's own ddf_degrees run
    # left, so every trial factors f mod its prime exactly once, whether
    # the attempts fail (irreducible f, or a reducible one before the
    # classes separate its factors) or succeed.
    band = IntPoly([-2] + [0] * 7 + [1]) * IntPoly([-3] + [0] * 8 + [1])
    runs = [
        (band, "1/10", 3),
        (_taylor_shift(band, 3141592653), EPS, 0),
        (IntPoly([-2, 0, 0, 0, 1]) * IntPoly([-3, 0, 0, 0, 0, 1]), EPS, 17),
        (IntPoly([1, 0, 1]) * IntPoly([-1, 1, 1]), "1/10", 12),
        (TRINOMIAL(7), EPS, 1),
        (_taylor_shift(TRINOMIAL(8), -2718281828), EPS, 2),
        (TRINOMIAL(13), "1/10", 3),
        (IntPoly([-2, 0, 0, 0, 1]), "1/10", 13),
    ]
    # Count kernels.ddf_degrees calls, and runs of the one distinct-degree
    # loop, _kernel_py.ddf_parts, whoever calls it.
    counts = {}
    ddf_degrees, ddf_parts = galois.kernels.ddf_degrees, _kernel_py.ddf_parts

    def counting_degrees(*args, **kwargs):
        counts["ddf_degrees"] += 1
        return ddf_degrees(*args, **kwargs)

    def counting_parts(*args):
        counts["ddf_parts"] += 1
        return ddf_parts(*args)

    monkeypatch.setattr(galois.kernels, "ddf_degrees", counting_degrees)
    monkeypatch.setattr(_kernel_py, "ddf_parts", counting_parts)
    factored = 0
    for certifier in (is_sn, is_transitive):
        for f, eps, seed in runs:
            counts.update(ddf_degrees=0, ddf_parts=0)
            v = certifier(f, eps, Random(seed))
            assert counts == {"ddf_degrees": v.trials_used, "ddf_parts": v.trials_used}
            factored += v.factor is not None
    assert factored == 8


def test_shifted_band_gets_its_factor_from_the_first_trial_on(monkeypatch):
    # perfbench's galois band: (x^8 - 2)(x^9 - 3) Taylor-shifted by a
    # seeded 32-bit a.  Every seed gets a certain NO whose factor divides
    # f, and the first factor attempt runs at the first trial's prime.
    attempts = []
    lifted_factor = galois._lifted_factor

    def recording_lift(f, q, *args):
        attempts.append(q)
        return lifted_factor(f, q, *args)

    monkeypatch.setattr(galois, "_lifted_factor", recording_lift)
    band = IntPoly([-2] + [0] * 7 + [1]) * IntPoly([-3] + [0] * 8 + [1])
    for seed in range(20):
        rng = Random(seed)
        f = _taylor_shift(band, rng.randrange(1 << 31, 1 << 32) * rng.choice((-1, 1)))
        attempts.clear()
        v = is_sn(f, EPS, rng)
        _check_factor(f, v)
        assert attempts[0] == v.witnesses[0][0]
        assert attempts == [q for q, _ in v.witnesses]


def _taylor_shift(f, a):
    """f(x + a), by Horner."""
    out = IntPoly()
    for c in reversed(f.coeffs):
        out = out * IntPoly([a, 1]) + IntPoly([c])
    return out


def _check_factor(f, v):
    assert (v.answer, v.certainty) == (GaloisAnswer.NOT_GENERIC, Certainty.CERTAIN)
    g = IntPoly(v.factor)
    quo, rem = f.divmod_monic(g)
    assert rem.is_zero() and 0 < g.degree < f.degree and g * quo == f


def test_reducible_inputs_get_a_factor_that_divides_them():
    # seeded products of two or three random monic polynomials, degree <= 30,
    # half of them Taylor-shifted by a 32-bit a: every one is a certain NO
    # whose factor times its cofactor is the input
    rng = Random(2024)
    checked = shifted = 0
    while checked < 24:
        n = rng.randrange(4, 31)
        cuts = sorted(rng.sample(range(1, n), rng.choice((1, 2)) if n > 2 else 1))
        degrees = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
        f = IntPoly([1])
        for d in degrees:
            f = f * IntPoly([rng.randrange(-5, 6) for _ in range(d)] + [1])
        if rng.random() < 0.5:
            f = _taylor_shift(f, rng.choice((-1, 1)) * rng.randrange(1 << 31, 1 << 32))
            shifted += 1
        disc = discriminant(f)
        if disc == 0 or math.isqrt(abs(disc)) ** 2 == disc or is_reciprocal_poly(f):
            continue  # a structural NO, with no factor to check
        for certifier in (is_sn, is_transitive):
            _check_factor(f, certifier(f, EPS, Random(checked)))
        checked += 1
    assert shifted > 6


def test_trace_stage_factor_gives_a_factor_of_f():
    # Phi_5 Phi_7: the trace polynomial (z^2 + z - 1)(z^3 + z^2 - 2z - 1) is
    # reducible, and its factor G lifts to x^deg G G(x + 1/x), which divides f
    f = cyclotomic(5) * cyclotomic(7)
    v = is_hyperoctahedral(f, EPS, Random(3))
    _check_factor(f, v)
    assert v.trials_used > 0 and v.witnesses == ()
    trace = trace_polynomial(f)
    assert trace.divmod_monic(IntPoly(v.trace_factor))[1].is_zero()
    assert trace_polynomial(IntPoly(v.factor)) == IntPoly(v.trace_factor)
    assert {"factor", "trace_factor"} <= set(v.to_json())


@pytest.mark.parametrize("n", [3, 5, 8, 12, 17, 22])
def test_sn_inputs_never_get_a_factor(n):
    for a in (0, 3141592653):
        f = _taylor_shift(TRINOMIAL(n), a)
        for seed in range(3):
            v = is_sn(f, EPS, Random(seed))
            assert v.confirmed and v.factor is None
        # every union of degree classes, at 12 primes, lifts to no factor
        rng = Random(n)
        for _ in range(12):
            q = random_prime_avoiding(discriminant(f), 1 << 20, 1 << 21, rng)
            parts = {}
            degrees = factor_degrees_mod(f, q, parts)
            assert galois._lifted_factor(
                f, q, degrees, parts, set(range(1, n)), galois._factor_bounds(f)) is None


def test_a_lift_that_does_not_divide_is_refused(monkeypatch):
    # x^k + 1 passes the constant-term test against f(0) = -1, so only the
    # exact division stands between it and a false certificate
    lifts = []

    def fake_lift(f, g, q, bounds):
        lifts.append(g)
        return [1] + [0] * (len(g) - 2) + [1]

    monkeypatch.setattr(galois.kernels, "hensel_lift", fake_lift)
    f = TRINOMIAL(9)
    rng = Random(5)
    for _ in range(12):
        q = random_prime_avoiding(discriminant(f), 1 << 20, 1 << 21, rng)
        parts = {}
        degrees = factor_degrees_mod(f, q, parts)
        assert galois._lifted_factor(
            f, q, degrees, parts, set(range(1, 9)), galois._factor_bounds(f)) is None
    assert len(lifts) > 12
    assert is_sn(f, EPS, Random(0)).confirmed
