import math
from random import Random

import pytest

from zdense.modular import (
    _BASES_BELOW,
    _WITNESSES_64,
    PrimeSearchExhausted,
    _strong_probable_prime,
    factor_degrees_mod,
    is_prime,
    random_prime_avoiding,
)
from zdense.polynomials import IntPoly, cyclotomic


def test_is_prime_small_oracle():
    def trial_division(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    for n in range(2, 5000):
        assert is_prime(n) == trial_division(n), n


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(561)  # Carmichael: 3 * 11 * 17
    assert is_prime(2**31 - 1)
    with pytest.raises(ValueError):
        is_prime(1)
    with pytest.raises(ValueError):
        is_prime(0)


def test_is_prime_beyond_word_size():
    # psi_12, the least strong pseudoprime to the first 12 prime bases
    # (OEIS A014233): the witness set is a proof below it, and is_prime
    # answers only below 2^64 < psi_12
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441 > 2**64
    assert all(_strong_probable_prime(psi_12, a) for a in _WITNESSES_64)
    for r in (2**64, 2**89 - 1, psi_12):
        with pytest.raises(ValueError, match="2 <= r < 2\\^64"):
            is_prime(r)
    assert is_prime(2**64 - 59)  # the largest prime below 2^64


# psi_k for k = 1..11 (OEIS A014233): the least odd composite that is a
# strong probable prime to each of the first k prime bases
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051)


def test_is_prime_base_sets_stop_below_each_psi():
    # each psi_k < 2^64 fools the first k bases, and is_prime still calls
    # it composite: the base set it uses for psi_k goes one base further
    for k, psi in enumerate(_PSI, 1):
        assert psi < 2**64
        assert all(_strong_probable_prime(psi, a) for a in _WITNESSES_64[:k])
        assert not is_prime(psi)
    assert [psi for psi, _ in _BASES_BELOW[:-1]] == sorted(set(_PSI))
    # below psi_k, k bases; where psi_k = psi_(k+1), still k
    assert all(_PSI.index(psi) + 1 == k for psi, k in _BASES_BELOW[:-1])
    assert _BASES_BELOW[-1] == (2**64, 12)


def test_is_prime_matches_a_sieve_on_the_sampling_range():
    lo, hi = 1 << 20, 1 << 21
    sieve = bytearray([1]) * hi
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, hi, p)))
    rng = Random(21)
    for r in [rng.randrange(lo, hi) for _ in range(20000)] + [lo, hi - 1]:
        assert is_prime(r) == bool(sieve[r]), r


def test_random_prime_avoiding_examples():
    # primes in [5, 10) are {5, 7}; 5 divides the discriminant
    for seed in range(10):
        assert random_prime_avoiding(5, 5, 10, Random(seed)) == 7
    assert random_prime_avoiding(1, 2, 4, Random(0)) in (2, 3)
    with pytest.raises(PrimeSearchExhausted):
        random_prime_avoiding(6, 2, 4, Random(0))
    with pytest.raises(ValueError):
        random_prime_avoiding(0, 2, 10, Random(0))
    with pytest.raises(ValueError):
        random_prime_avoiding(1, 10, 2, Random(0))


def test_random_prime_avoiding_determinism_and_range():
    q1 = random_prime_avoiding(91, 1 << 20, 1 << 21, Random(5))
    q2 = random_prime_avoiding(91, 1 << 20, 1 << 21, Random(5))
    assert q1 == q2
    assert 1 << 20 <= q1 < 1 << 21
    assert is_prime(q1) and 91 % q1 != 0


def test_factor_degrees_examples():
    assert factor_degrees_mod(IntPoly([1, 0, 1]), 5) == (1, 1)
    assert factor_degrees_mod(IntPoly([1, 0, 1]), 3) == (2,)
    assert factor_degrees_mod(IntPoly([0, -1, 0, 1]), 5) == (1, 1, 1)


def test_factor_degrees_rejects_bad_input():
    with pytest.raises(ValueError):
        factor_degrees_mod(IntPoly([1, -2, 1]), 5)  # (x-1)^2 not squarefree
    with pytest.raises(ValueError):
        factor_degrees_mod(IntPoly([1, 0, 5]), 5)  # leading coefficient dies
    with pytest.raises(ValueError):
        factor_degrees_mod(IntPoly([3]), 5)


def test_factor_degrees_sum_is_degree():
    rng = Random(55)
    checked = 0
    while checked < 150:
        deg = rng.randrange(1, 9)
        f = IntPoly([rng.randrange(-30, 31) for _ in range(deg)] + [1])
        q = rng.choice([3, 5, 7, 11, 13, 1048583])
        try:
            degrees = factor_degrees_mod(f, q)
        except ValueError:
            continue
        assert sum(degrees) == f.degree
        assert all(d >= 1 for d in degrees)
        checked += 1


def test_phi5_patterns_are_cycle_types_of_c4():
    # Galois group of Phi_5 is C_4 acting on the 5th roots of unity: the only
    # cycle types that can ever appear are (1,1,1,1), (2,2), (4).
    f = cyclotomic(5)
    allowed = {(1, 1, 1, 1), (2, 2), (4,)}
    rng = Random(123)
    seen = set()
    for _ in range(200):
        q = random_prime_avoiding(5, 1 << 20, 1 << 21, rng)
        pattern = factor_degrees_mod(f, q)
        assert pattern in allowed, (q, pattern)
        seen.add(pattern)
    assert len(seen) >= 2  # sampling really explores classes
