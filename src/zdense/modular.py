"""Primality testing, random prime sampling away from a discriminant, and
factorization degree patterns of integer polynomials modulo primes.

The degree pattern of f mod q is the computational stand-in for the cycle
type of a Frobenius element of the Galois group of f, which is what every
sampling certifier consumes.
"""

from __future__ import annotations

from random import Random

from . import kernels
from .polynomials import IntPoly

# Strong-pseudoprime witness set: the first 12 primes decide primality for
# every n < 3317044064679887385961981 > 2^64 (Sorenson-Webster).
_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Beyond 2^64: fixed extra witnesses, a probable-prime test kept for direct
# callers.  No certificate relies on it: check_prime_range caps every prime
# sampler at 2^64, and rank primes lie below 2^31.
_WITNESSES_BIG = _WITNESSES_64 + (
    41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)

_SMALL_PRIMES = frozenset(_WITNESSES_64)


class PrimeSearchExhausted(RuntimeError):
    """Rejection sampling ran out of attempts: the interval is too small or
    the discriminant too smooth."""


def _strong_probable_prime(n: int, a: int) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(r: int) -> bool:
    """Deterministic for r < 2^64 (complete witness base).  Beyond that it
    is a fixed-witness Miller-Rabin probable-prime test, kept for direct
    callers; no certificate relies on it.  Raises for r < 2."""
    if r < 2:
        raise ValueError("primality is tested for integers >= 2")
    if r in _SMALL_PRIMES:
        return True
    if any(r % p == 0 for p in _WITNESSES_64):
        return False
    witnesses = _WITNESSES_64 if r < 1 << 64 else _WITNESSES_BIG
    return all(_strong_probable_prime(r, a) for a in witnesses)


def check_prime_range(lo: int, hi: int) -> None:
    """The one rule on a prime sampling range [lo, hi): 1 < lo < hi <= 2^64.

    is_prime proves primality only below 2^64; beyond it fixed-base
    Miller-Rabin is not a proof, and a certificate resting on such a prime
    would not be certain.
    """
    if not 1 < lo < hi <= 1 << 64:
        raise ValueError("prime range [lo, hi) needs 1 < lo < hi <= 2^64")


def random_prime_avoiding(disc: int, lo: int, hi: int, rng: Random) -> int:
    """Uniform (by rejection) prime q in [lo, hi) with q not dividing disc.

    Deterministic given the rng state.  Raises PrimeSearchExhausted after
    64 * bit-length-of-interval failed draws.
    """
    if disc == 0:
        raise ValueError("discriminant must be nonzero")
    check_prime_range(lo, hi)
    attempts = 64 * (hi - lo).bit_length()
    for _ in range(attempts):
        q = rng.randrange(lo, hi)
        if is_prime(q) and disc % q != 0:
            return q
    raise PrimeSearchExhausted(
        f"no admissible prime in [{lo}, {hi}) after {attempts} draws"
    )


def factor_degrees_mod(f: IntPoly, q: int) -> tuple[int, ...]:
    """Multiset (as a sorted tuple) of degrees of the irreducible factors of
    f mod q.

    The caller guarantees q is prime, q does not divide disc(f) or the
    leading coefficient; squarefreeness mod q is still re-checked defensively
    and a violation raises ValueError.
    """
    if f.degree < 1:
        raise ValueError("need positive degree")
    if f.coeffs[-1] % q == 0:
        raise ValueError("leading coefficient vanishes mod q")
    return tuple(kernels.ddf_degrees(f.coeffs, q))
