"""One-sided Monte Carlo certifiers for "large" Galois groups.

Factoring f modulo sampled primes yields cycle types of Galois elements
(Frobenius density); the certifiers combine those cycle types into
group-theoretic certificates.  A YES answer is always certificate-backed
and therefore certain:

* empty intersection of cycle-type sumsets  => invariably transitive
  => f irreducible over Q;
* transitive + primitive + a transposition  => the full symmetric group
  (degree < 13 route);
* transitive + a prime cycle l with n/2 < l <= n - 3 + non-square
  discriminant => the full symmetric group (degree >= 13 route: the cycle
  forces primitivity, and Jordan's theorem then gives A_n);
* trace polynomial certified S_n + a transposition pattern on f itself
  => the full hyperoctahedral group for reciprocal f.

Every stage is one call of the same sampling loop, which draws primes
until a certificate predicate accepts a cycle type or the stage's trial
budget runs out.  Cycle types sampled at different primes are all realized
inside the one Galois group of f, so certificates gathered from different
primes compose freely.

A NO answer only says the sampling budget for the requested error bound
was exhausted; it is wrong with probability at most eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from random import Random
from typing import Iterable

from .modular import factor_degrees_mod, is_prime, random_prime_avoiding
from .polynomials import IntPoly, discriminant, is_reciprocal, trace_polynomial

DEFAULT_PRIME_RANGE = (1 << 20, 1 << 21)

# Asymptotic density of odd-order elements in S_n is ~0.8/sqrt(n); feeding it
# into the trial budgets is a calibration choice, not a correctness input.
ODD_ORDER_DENSITY_CONSTANT = 0.8


class GaloisAnswer(Enum):
    CONFIRMED_SN = "confirmed_sn"
    CONFIRMED_HYPEROCTAHEDRAL = "confirmed_hyperoctahedral"
    IRREDUCIBLE = "irreducible"
    NOT_GENERIC = "not_generic"


@dataclass(frozen=True)
class GaloisVerdict:
    """Decision record: YES answers are certain, NO answers carry the error
    bound honored by the trial budget.  Every witness (q, degrees) reproduces
    under factor_degrees_mod of the polynomial the verdict is about."""

    answer: GaloisAnswer
    epsilon: Fraction
    witnesses: tuple[tuple[int, tuple[int, ...]], ...]
    trials_used: int

    @property
    def confirmed(self) -> bool:
        return self.answer in (
            GaloisAnswer.CONFIRMED_SN,
            GaloisAnswer.CONFIRMED_HYPEROCTAHEDRAL,
            GaloisAnswer.IRREDUCIBLE,
        )

    def to_json(self) -> dict:
        return {
            "answer": self.answer.value,
            "epsilon": str(self.epsilon),
            "trials_used": self.trials_used,
            "witnesses": [
                {"prime": q, "degrees": list(d)} for q, d in self.witnesses
            ],
        }


def as_epsilon(eps) -> Fraction:
    """Normalize an error bound to an exact Fraction in (0, 1)."""
    if isinstance(eps, float):
        eps = Fraction(str(eps))
    else:
        eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
    return eps


def _log_inv(eps: Fraction) -> float:
    # ln(1/eps) without floating underflow for tiny eps
    return math.log(eps.denominator) - math.log(eps.numerator)


def trials_invariable_transitivity(eps) -> int:
    """Blocks of 4 samples each fail to certify with probability <= 1/20."""
    return 4 * math.ceil(_log_inv(as_epsilon(eps)) / math.log(20))


def trials_transposition(n_blocks: int, eps) -> int:
    """Budget against the ~c/(2 sqrt(n-1)) density of elements with one
    2-cycle and all other cycles odd."""
    root = math.sqrt(max(n_blocks, 3) - 1)
    return math.ceil(2 * root / ODD_ORDER_DENSITY_CONSTANT * _log_inv(as_epsilon(eps)))


def trials_long_prime_cycle(n: int, eps) -> int:
    """Budget against the ~log2/log n density of long-prime-cycle elements."""
    return math.ceil(math.log(n) / math.log(2) * _log_inv(as_epsilon(eps)))


def trials_jordan_cycle(n: int, eps) -> int:
    """Budget against the exact density of a prime cycle l in the Jordan
    window n/2 < l <= n - 3 (nonempty for n >= 8).  An l-cycle with l > n/2
    has density exactly 1/l in S_n and no element has two, so the window's
    density is the sum of 1/l over its primes."""
    density = sum(1 / l for l in range(n // 2 + 1, n - 2) if is_prime(l))
    return math.ceil(_log_inv(as_epsilon(eps)) / density)


def sumset(parts: Iterable[int]) -> frozenset[int]:
    """All proper nonempty subset sums of a partition, excluding 0 and the
    total; O(n^2) dynamic program."""
    parts = list(parts)
    if not parts:
        raise ValueError("partition must be nonempty")
    total = sum(parts)
    sums = {0}
    for x in parts:
        sums |= {s + x for s in sums}
    return frozenset(sums - {0, total})


def has_transposition_pattern(degrees: Iterable[int]) -> bool:
    """Exactly one 2 and every other entry odd: the element's power by the
    lcm of the odd cycles is a transposition."""
    degrees = list(degrees)
    return degrees.count(2) == 1 and all(d % 2 == 1 for d in degrees if d != 2)


def has_long_prime_cycle(degrees: Iterable[int], n: int, upper_slack: int) -> bool:
    """Some prime entry l with n/2 < l < n - upper_slack.

    Raising the element to the lcm of its other cycles leaves a bare l-cycle,
    which makes a transitive group primitive.  upper_slack = 2 is the Jordan
    window n/2 < l <= n - 3, where a primitive group with an l-cycle contains
    A_n; upper_slack = -1 is the primitivity-only window n/2 < l <= n.
    """
    return any(
        2 * l > n and l < n - upper_slack and is_prime(l) for l in degrees if l >= 2
    )


def _require_monic(f: IntPoly) -> None:
    if f.degree < 1 or not f.is_monic():
        raise ValueError("need a monic polynomial of positive degree")


def _hunt(f, disc, rng, prime_range, witnesses, budget, certified) -> bool:
    """The one sampling loop behind every certifier stage.

    Draws up to `budget` primes q not dividing disc, appends each
    (q, cycle type of f mod q) to `witnesses`, and stops at the first cycle
    type that `certified` accepts.  True iff a certificate turned up.
    """
    for _ in range(budget):
        q = random_prime_avoiding(disc, prime_range[0], prime_range[1], rng)
        degrees = factor_degrees_mod(f, q)
        witnesses.append((q, degrees))
        if certified(degrees):
            return True
    return False


def _verdict(found, yes, eps, witnesses, carried=0) -> GaloisVerdict:
    answer = yes if found else GaloisAnswer.NOT_GENERIC
    return GaloisVerdict(answer, eps, tuple(witnesses), carried + len(witnesses))


def _transitive(hunt, n: int, eps: Fraction) -> bool:
    """The sumset-intersection stage of is_transitive."""
    survivors = set(range(1, n))

    def invariably_transitive(degrees):
        survivors.intersection_update(sumset(degrees))
        return not survivors

    return hunt(trials_invariable_transitivity(eps), invariably_transitive)


def _sn_after_transitivity(hunt, n: int, disc: int, eps: Fraction) -> bool:
    if n >= 13:
        # A square discriminant means the group sits inside A_n.  Otherwise
        # one prime cycle in the Jordan window gives primitivity and A_n.
        if disc > 0 and math.isqrt(disc) ** 2 == disc:
            return False
        return hunt(trials_jordan_cycle(n, eps), lambda d: has_long_prime_cycle(d, n, 2))
    # Below degree 13 (Jordan's window is nonempty from 8, but its hunt costs
    # more there): transitive groups of prime degree are primitive, and
    # otherwise a prime cycle longer than n/2 forces primitivity.  A
    # transposition then gives S_n.
    if not is_prime(n):
        budget = trials_long_prime_cycle(n, eps)
        if not hunt(budget, lambda d: has_long_prime_cycle(d, n, -1)):
            return False
    return hunt(trials_transposition(n, eps), has_transposition_pattern)


def is_transitive(
    f: IntPoly,
    eps,
    rng: Random,
    prime_range: tuple[int, int] = DEFAULT_PRIME_RANGE,
) -> GaloisVerdict:
    """Certify irreducibility over Q or report "not the symmetric group".

    Keeps the running intersection of cycle-type sumsets; an empty
    intersection means the sampled classes are invariably transitive, so the
    Galois group is transitive and f has no rational factor (certain).
    """
    eps = as_epsilon(eps)
    _require_monic(f)
    disc = discriminant(f)
    if disc == 0:
        raise ValueError("discriminant is zero")
    witnesses = []
    hunt = partial(_hunt, f, disc, rng, prime_range, witnesses)
    found = _transitive(hunt, f.degree, eps)
    return _verdict(found, GaloisAnswer.IRREDUCIBLE, eps, witnesses)


def is_sn(
    f: IntPoly,
    eps,
    rng: Random,
    prime_range: tuple[int, int] = DEFAULT_PRIME_RANGE,
) -> GaloisVerdict:
    """Decide whether the Galois group of f is the full symmetric group.

    Pipeline: transitivity, then below degree 13 primitivity evidence and a
    transposition pattern, and from degree 13 square-discriminant rejection
    plus one prime cycle in the Jordan window n/2 < l <= n - 3.  The error
    budget is split evenly across at most three sampling stages.  A zero
    discriminant is an immediate NO: a polynomial with repeated roots has no
    S_n action on distinct roots.
    """
    eps = as_epsilon(eps)
    _require_monic(f)
    n = f.degree
    disc = discriminant(f)
    if disc == 0:
        return GaloisVerdict(GaloisAnswer.NOT_GENERIC, eps, (), 0)
    witnesses = []
    hunt = partial(_hunt, f, disc, rng, prime_range, witnesses)
    # S_1 is trivial and S_2 = C_2: irreducibility alone decides.
    stage_eps = eps if n <= 2 else eps / 3
    found = _transitive(hunt, n, stage_eps)
    if found and n > 2:
        found = _sn_after_transitivity(hunt, n, disc, stage_eps)
    return _verdict(found, GaloisAnswer.CONFIRMED_SN, eps, witnesses)


def is_hyperoctahedral(
    f: IntPoly,
    eps,
    rng: Random,
    prime_range: tuple[int, int] = DEFAULT_PRIME_RANGE,
) -> GaloisVerdict:
    """Decide whether the Galois group of a monic reciprocal polynomial of
    degree 2n is the full group of signed permutations C_2 wr S_n.

    The group surjects onto S_n iff the trace polynomial has Galois group
    S_n; together with a transposition (a one-2-rest-odd pattern on f
    itself) that pins down the whole wreath product.  Half the budget goes
    to each stage.  Witnesses recorded on the verdict are the ones sampled
    against f; the trace-stage witnesses belong to the trace polynomial and
    only its trial count is carried over.
    """
    eps = as_epsilon(eps)
    _require_monic(f)
    if f.degree % 2 != 0:
        raise ValueError("need even degree >= 2")
    if not is_reciprocal(f):
        raise ValueError("need a reciprocal polynomial")
    disc = discriminant(f)
    if disc == 0:
        return GaloisVerdict(GaloisAnswer.NOT_GENERIC, eps, (), 0)
    # A squarefree reciprocal polynomial of even degree cannot vanish at +-1
    # (those roots would be double), so its roots honestly split into pairs
    # r, 1/r and the Galois group embeds in the hyperoctahedral group.
    stage_eps = eps / 2
    projection = is_sn(trace_polynomial(f), stage_eps, rng, prime_range)
    witnesses = []
    budget = trials_transposition(f.degree // 2, stage_eps)
    found = projection.confirmed and _hunt(
        f, disc, rng, prime_range, witnesses, budget, has_transposition_pattern
    )
    return _verdict(
        found, GaloisAnswer.CONFIRMED_HYPEROCTAHEDRAL, eps, witnesses,
        projection.trials_used,
    )
