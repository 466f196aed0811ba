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
# every n < psi_12 = 318665857834031151167461 > 2^64 (OEIS A014233,
# Sorenson-Webster); psi_12 = 399165290221 * 798330580441 passes all 12.
_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (psi_k, k): psi_k is the least odd composite that is a strong probable
# prime to each of the first k prime bases (OEIS A014233; Jaeschke 1993),
# so below it those k bases are a proof.  psi_8 = psi_7 and
# psi_11 = psi_10 = psi_9, and from psi_9 up to 2^64 < psi_12 all 12 serve.
_BASES_BELOW = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (1 << 64, 12),
)


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
    """Primality of 2 <= r < 2^64, and every answer is a proof: trial
    division by the 12 primes of _WITNESSES_64, then the strong
    probable-prime test to the first k of them, the least k with
    r < psi_k (three bases below 2^24, four below 2^31).  Raises ValueError
    for any other r."""
    if not 2 <= r < 1 << 64:
        raise ValueError("primality is proven only for 2 <= r < 2^64")
    for p in _WITNESSES_64:
        if r % p == 0:
            return r == p
    k = next(k for psi, k in _BASES_BELOW if r < psi)
    return all(_strong_probable_prime(r, a) for a in _WITNESSES_64[:k])


def check_prime_range(lo: int, hi: int) -> None:
    """The one rule on a prime sampling range [lo, hi): 1 < lo < hi <= 2^64.

    Every draw then lies where is_prime answers, and is_prime answers only
    with a proof, so a certificate resting on a sampled prime is certain.
    A range that leaves that window raises ValueError before any draw.
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


def factor_degrees_mod(
    f: IntPoly, q: int, parts: dict[int, list[int]] | None = None
) -> tuple[int, ...]:
    """Multiset (as a sorted tuple) of degrees of the irreducible factors of
    f mod q.  A `parts` dict is filled, by the same kernel call, with the
    distinct-degree factorization: d -> the monic product mod q of the
    degree-d factors.

    The caller guarantees q is prime, q does not divide disc(f) or the
    leading coefficient; squarefreeness mod q is still re-checked defensively
    and a violation raises ValueError.
    """
    if f.degree < 1:
        raise ValueError("need positive degree")
    if f.coeffs[-1] % q == 0:
        raise ValueError("leading coefficient vanishes mod q")
    return tuple(kernels.ddf_degrees(f.coeffs, q, parts=parts))
