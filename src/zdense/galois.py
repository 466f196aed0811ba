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

NOs that the shape of f proves (a square or zero discriminant, a
palindromic f where S_n is asked for) come first, with 0 trials, and are
certain.  So is a NO that carries a factor: at every trial of the
transitivity stage while sumset survivors remain, unions of whole
distinct-degree classes of f mod that trial's prime, from the parts its
one distinct-degree factorization left, are Hensel-lifted and divided
into f exactly, and the first that divides it stops the stage with a
certain NO (a reducible f is never generic).  Every sampling stage
is one call of the same loop, which draws primes until a certificate
predicate accepts a cycle type or the stage's trial budget runs out;
cycle types sampled at different primes all lie in the one Galois group
of f, so certificates compose freely.  The witnesses drawn for f are one
pool: a stage first asks its predicate of the cycle types earlier stages
drew, and draws no prime when one of them passes, so a certificate may
rest on any witness.  A stage that does draw gets its whole budget, and
each budget but transitivity's is trials_for_density of the exact density
of its certificate class in the group a YES would certify, so a sampled
NO is wrong with probability at most eps.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, partial
from random import Random
from typing import Iterable

from . import kernels
from .modular import check_prime_range, factor_degrees_mod, is_prime, random_prime_avoiding
from .polynomials import IntPoly, discriminant, is_reciprocal, reciprocal_from_trace
from .polynomials import trace_polynomial

DEFAULT_PRIME_RANGE = (1 << 20, 1 << 21)


class Certainty(Enum):
    CERTAIN = "certain"
    MONTE_CARLO = "monte_carlo"


class GaloisAnswer(Enum):
    CONFIRMED_SN = "confirmed_sn"
    CONFIRMED_HYPEROCTAHEDRAL = "confirmed_hyperoctahedral"
    IRREDUCIBLE = "irreducible"
    NOT_GENERIC = "not_generic"


@dataclass(frozen=True)
class GaloisVerdict:
    """Decision record: YES answers are certain, and so are the structural
    NOs that take 0 trials and the NOs that carry a factor; a sampled NO
    carries the error bound honored by the trial budget.  Every witness
    (q, degrees) reproduces under factor_degrees_mod of the polynomial the
    verdict is about, in the order drawn, and a YES may rest on any of
    them, not only the last.  factor, constant term first, is a monic proper
    factor of that polynomial over Z, which divides it exactly;
    trace_factor is one of its trace polynomial, when the hyperoctahedral
    certifier's trace stage found one (factor is then the reciprocal
    polynomial it gives).  certainty stays out of to_json, which the Weyl
    route's trail embeds; factor and trace_factor go in only when present."""

    answer: GaloisAnswer
    epsilon: Fraction
    witnesses: tuple[tuple[int, tuple[int, ...]], ...]
    trials_used: int
    certainty: Certainty
    factor: tuple[int, ...] | None = None
    trace_factor: tuple[int, ...] | None = None

    @property
    def confirmed(self) -> bool:
        return self.answer in (
            GaloisAnswer.CONFIRMED_SN,
            GaloisAnswer.CONFIRMED_HYPEROCTAHEDRAL,
            GaloisAnswer.IRREDUCIBLE,
        )

    def to_json(self) -> dict:
        out = {
            "answer": self.answer.value,
            "epsilon": str(self.epsilon),
            "trials_used": self.trials_used,
            "witnesses": [
                {"prime": q, "degrees": list(d)} for q, d in self.witnesses
            ],
        }
        for key in ("factor", "trace_factor"):
            if getattr(self, key) is not None:
                out[key] = list(getattr(self, key))
        return out


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


def trials_for_density(density, eps) -> int:
    """Trials that miss a class of the given density with probability at
    most eps: (1 - d)^t <= exp(-d t) <= eps."""
    return math.ceil(_log_inv(as_epsilon(eps)) / density)


@cache
def prime_cycle_density(n: int, upper_slack: int) -> Fraction:
    """Density in S_n of the cycle types has_long_prime_cycle accepts.  An
    l-cycle with l > n/2 has density exactly 1/l and no element has two, so
    this is the sum of 1/l over the accepted primes l."""
    window = [l for l in range(2, n + 1) if has_long_prime_cycle((l,), n, upper_slack)]
    return sum(Fraction(1, l) for l in window)


@cache
def transposition_density(k: int, s: Fraction) -> Fraction:
    """1/2 [x^k] ((1+x)/(1-x))^s, the density of has_transposition_pattern.

    s = 1/2, k = n - 2: in S_n, one 2-cycle and every other cycle odd.
    s = 1/4, k = m - 1: in C_2 wr S_m on 2m roots, where only a negated
    fixed point gives a lone 2-cycle, and every other signed cycle is odd
    and positive.  The coefficients g_j follow from (1 - x^2) g' = 2s g.
    """
    g = [Fraction(1), 2 * s]
    for j in range(1, k):
        g.append((2 * s * g[j] + (j - 1) * g[j - 1]) / (j + 1))
    return g[k] / 2


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


def _hunt(f, disc, rng, prime_range, witnesses, parts, budget, certified) -> bool:
    """The one sampling loop behind every certifier stage.

    `witnesses` is the pool of (q, cycle type of f mod q) that every stage
    on f shares, and `parts` maps each of its primes q to the
    distinct-degree parts of f mod q that the same ddf_degrees run left,
    for the transitivity stage's factor attempts; they stay out of the
    verdict.  The stage first asks `certified(q, degrees)` of the
    witnesses already in the pool, in order, and one that passes certifies
    it with no prime drawn.  Otherwise it draws up to `budget` primes q not
    dividing disc, appends each witness to the pool and stops at the first
    that `certified` accepts.  So `certified` sees every witness exactly
    once until it accepts one, whichever stages ran before, and a predicate
    with state (the transitivity stage's running intersection) folds over
    the whole pool.  True iff a certificate turned up.
    """
    if any(certified(q, degrees) for q, degrees in witnesses):
        return True
    for _ in range(budget):
        q = random_prime_avoiding(disc, prime_range[0], prime_range[1], rng)
        parts[q] = {}
        degrees = factor_degrees_mod(f, q, parts[q])
        witnesses.append((q, degrees))
        if certified(q, degrees):
            return True
    return False


def _checked(f: IntPoly, eps, prime_range: tuple[int, int]) -> Fraction:
    """eps as a Fraction, once f and the prime range pass the checks that
    every certifier makes before it looks at f's shape."""
    eps = as_epsilon(eps)
    if f.degree < 1 or not f.is_monic():
        raise ValueError("need a monic polynomial of positive degree")
    check_prime_range(*prime_range)
    return eps


def _sampler(f: IntPoly, rng: Random, prime_range: tuple[int, int]):
    """The set-up every certifier shares once f has passed its checks:
    (disc, witnesses, parts, hunt), where hunt(budget, certified) runs
    _hunt on f and appends to witnesses and parts."""
    disc = discriminant(f)
    witnesses, parts = [], {}
    hunt = partial(_hunt, f, disc, rng, prime_range, witnesses, parts)
    return disc, witnesses, parts, hunt


def _is_square(disc: int) -> bool:
    # Zero counts: repeated roots admit no S_n action.
    return math.isqrt(abs(disc)) ** 2 == disc


def _verdict(found, yes, eps, witnesses, carried=0, factor=None) -> GaloisVerdict:
    if factor is not None:
        answer, certainty = GaloisAnswer.NOT_GENERIC, Certainty.CERTAIN
    elif found:
        answer, certainty = yes, Certainty.CERTAIN
    else:
        answer, certainty = GaloisAnswer.NOT_GENERIC, Certainty.MONTE_CARLO
    return GaloisVerdict(
        answer, eps, tuple(witnesses), carried + len(witnesses), certainty, factor
    )


def _structural_no(eps) -> GaloisVerdict:
    """A NO that the shape of f proves before any prime is drawn."""
    return GaloisVerdict(GaloisAnswer.NOT_GENERIC, eps, (), 0, Certainty.CERTAIN)


def _factor_bounds(f: IntPoly) -> tuple[int, int]:
    """(|f|_2 rounded up, log2 of Fujiwara's root bound R) for
    _lifted_factor: R is twice the largest |c_(n-i)|^(1/i), rounded up to a
    power of 2, so every root of f has modulus at most R."""
    n = f.degree
    norm = math.isqrt(sum(c * c for c in f.coeffs)) + 1
    root_bits = 1 + max(-(-abs(f[n - i]).bit_length() // i) for i in range(1, n + 1))
    return norm, root_bits


def _lifted_factor(
    f: IntPoly, q: int, degrees, parts, survivors, bounds: tuple[int, int]
) -> tuple[int, ...] | None:
    """A monic proper factor of f over Z, constant term first, built from
    whole degree classes of f mod q, or None.

    q is a prime that divides neither disc(f) nor the leading coefficient,
    degrees is the factorization pattern of f mod q, parts maps each d in it
    to the monic product mod q of the degree-d factors (the dict that
    degrees' own ddf_degrees run filled), and bounds is _factor_bounds(f).
    Each union U of degree classes with 2 deg U <= n and deg U in survivors
    (a factor's degree lies in every sampled sumset) is formed mod q,
    Hensel-lifted, then checked: its constant term must divide f(0), and
    it must divide f exactly.  Unions are tried smallest first.  No
    equal-degree split and no recombination of single factors: a factor
    whose reduction shares a degree class with its cofactor's is missed at
    this q.

    The lift's bounds hold for any monic factor g of degree k:
    |g_j| <= C(k, j) min(R^(k-j), |f|_2), by Mignotte's bound and by
    Vieta with R >= every root's modulus.
    """
    n = f.degree
    classes = Counter(degrees)
    unions = [(0, ())]
    for d in sorted(classes):
        unions += [(size + d * classes[d], chosen + (d,)) for size, chosen in unions
                   if 2 * (size + d * classes[d]) <= n]
    norm, root_bits = bounds
    f0 = f.coeffs[0]
    for k, chosen in sorted(u for u in unions if u[0] in survivors):
        union = parts[chosen[0]]
        for d in chosen[1:]:
            union = kernels.kmul(union, parts[d], q)
        coeff_bounds = [math.comb(k, j) * min(1 << root_bits * (k - j), norm)
                        for j in range(k + 1)]
        lift = kernels.hensel_lift(f.coeffs, union, q, coeff_bounds)
        if lift is None:
            continue
        g0 = lift[0]
        if (f0 % g0 if g0 else f0) == 0:
            g = IntPoly(lift)
            if f.divmod_monic(g)[1].is_zero():
                return g.coeffs
    return None


def _transitive(f: IntPoly, hunt, parts, eps: Fraction) -> tuple[bool, tuple[int, ...] | None]:
    """The sumset-intersection stage of is_transitive and is_sn, as
    (transitive, factor).  At every trial while sumset survivors remain,
    the trial's own prime is also tried for a factor of f, from the parts
    its ddf_degrees run left in `parts`, and a factor stops the stage.  An
    attempt draws no prime and runs no distinct-degree factorization, and
    f's bounds are formed once per stage.  The predicate counts every witness of f as a trial,
    and hunt shows it each one exactly once, those already pooled first."""
    survivors = set(range(1, f.degree))
    bounds = _factor_bounds(f)
    factor = None

    def invariably_transitive(q, degrees):
        nonlocal factor
        survivors.intersection_update(sumset(degrees))
        if survivors:
            factor = _lifted_factor(f, q, degrees, parts[q], survivors, bounds)
        return not survivors or factor is not None

    found = hunt(trials_invariable_transitivity(eps), invariably_transitive)
    return found and factor is None, factor


def _sn_after_transitivity(hunt, n: int, eps: Fraction) -> bool:
    def long_cycle(upper_slack):
        budget = trials_for_density(prime_cycle_density(n, upper_slack), eps)
        return hunt(budget, lambda _, d: has_long_prime_cycle(d, n, upper_slack))

    if n >= 13:
        # One prime cycle in the Jordan window gives primitivity and A_n; the
        # discriminant, already known not to be a square, then gives S_n.
        return long_cycle(2)
    # Below degree 13 (Jordan's window is nonempty from 8, but its hunt costs
    # more there): transitive groups of prime degree are primitive, and
    # otherwise a prime cycle longer than n/2 forces primitivity.  A
    # transposition then gives S_n.
    if not is_prime(n) and not long_cycle(-1):
        return False
    density = transposition_density(n - 2, Fraction(1, 2))
    return hunt(trials_for_density(density, eps), lambda _, d: has_transposition_pattern(d))


def is_transitive(
    f: IntPoly, eps, rng: Random, prime_range: tuple[int, int] = DEFAULT_PRIME_RANGE
) -> GaloisVerdict:
    """Certify irreducibility over Q or report "not the symmetric group".

    Keeps the running intersection of cycle-type sumsets; an empty
    intersection means the sampled classes are invariably transitive, so the
    Galois group is transitive and f has no rational factor (certain).  A
    factor lifted from a trial's prime and dividing f exactly is a certain
    NO, and the verdict carries it.
    """
    eps = _checked(f, eps, prime_range)
    disc, witnesses, parts, hunt = _sampler(f, rng, prime_range)
    if disc == 0:
        raise ValueError("discriminant is zero")
    found, factor = _transitive(f, hunt, parts, eps)
    return _verdict(found, GaloisAnswer.IRREDUCIBLE, eps, witnesses, factor=factor)


def is_sn(
    f: IntPoly, eps, rng: Random, prime_range: tuple[int, int] = DEFAULT_PRIME_RANGE
) -> GaloisVerdict:
    """Decide whether the Galois group of f is the full symmetric group.

    Structural NOs first, with 0 trials: a palindromic f of even degree
    n >= 4 pairs its roots as r <-> 1/r, inside C_2 wr S_(n/2), which its
    coefficients show before any discriminant is computed; from degree 2 a
    square (or zero) discriminant puts the group inside A_n.
    Then transitivity, where a factor of f lifted from a trial's prime is
    a certain NO that the verdict carries, and below degree 13 primitivity
    evidence and a transposition pattern, from degree 13 one prime cycle
    in the Jordan window n/2 < l <= n - 3.  The error budget is split
    evenly across at most three sampling stages.  A stage after
    transitivity first looks among the witnesses already drawn, and one
    that certifies it there draws no prime.
    """
    eps = _checked(f, eps, prime_range)
    n = f.degree
    if n >= 4 and n % 2 == 0 and is_reciprocal(f):
        return _structural_no(eps)
    disc, witnesses, parts, hunt = _sampler(f, rng, prime_range)
    if n >= 2 and _is_square(disc):
        return _structural_no(eps)
    # S_1 is trivial and S_2 = C_2: irreducibility alone decides.
    stage_eps = eps if n <= 2 else eps / 3
    found, factor = _transitive(f, hunt, parts, stage_eps)
    if found and n > 2:
        found = _sn_after_transitivity(hunt, n, stage_eps)
    return _verdict(found, GaloisAnswer.CONFIRMED_SN, eps, witnesses, factor=factor)


def is_hyperoctahedral(
    f: IntPoly, eps, rng: Random, prime_range: tuple[int, int] = DEFAULT_PRIME_RANGE
) -> GaloisVerdict:
    """Decide whether the Galois group of a monic reciprocal polynomial of
    degree 2m is the full group of signed permutations C_2 wr S_m.

    A square (or zero) discriminant is a certain NO with 0 trials: swapping
    one root pair r <-> 1/r is a transposition, which A_2m lacks.  Otherwise
    the group surjects onto S_m iff the trace polynomial has Galois group
    S_m (a certain NO there is a certain NO here, and a factor G of the
    trace polynomial gives the factor x^deg G G(x + 1/x) of f), and a
    transposition pattern on f itself then pins down the whole wreath
    product.  Half the budget goes to each stage.  The trace polynomial's
    is_sn pools its own witnesses; they are cycle types of another
    polynomial, so the stage on f starts from an empty pool.  The verdict
    records only the witnesses sampled against f and carries over the
    trace stage's trial count.
    """
    eps = _checked(f, eps, prime_range)
    if f.degree % 2 != 0:
        raise ValueError("need even degree >= 2")
    if not is_reciprocal(f):
        raise ValueError("need a reciprocal polynomial")
    disc, witnesses, _, hunt = _sampler(f, rng, prime_range)
    if _is_square(disc):
        return _structural_no(eps)
    # A squarefree reciprocal polynomial of even degree cannot vanish at +-1
    # (those roots would be double), so its roots honestly split into pairs
    # r, 1/r and the Galois group embeds in the hyperoctahedral group.
    stage_eps = eps / 2
    projection = is_sn(trace_polynomial(f), stage_eps, rng, prime_range)
    if projection.certainty is Certainty.CERTAIN and not projection.confirmed:
        # The group of f maps onto the trace polynomial's, proven not S_m.
        trace_factor = projection.factor
        factor = trace_factor and reciprocal_from_trace(IntPoly(trace_factor)).coeffs
        return GaloisVerdict(GaloisAnswer.NOT_GENERIC, eps, (), projection.trials_used,
                             Certainty.CERTAIN, factor, trace_factor)
    m = f.degree // 2
    budget = trials_for_density(transposition_density(m - 1, Fraction(1, 4)), stage_eps)
    found = projection.confirmed and hunt(budget, lambda _, d: has_transposition_pattern(d))
    return _verdict(
        found, GaloisAnswer.CONFIRMED_HYPEROCTAHEDRAL, eps, witnesses, projection.trials_used
    )
