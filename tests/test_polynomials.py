from functools import lru_cache
from math import comb, gcd
from random import Random

import mpmath
import pytest

from zdense.polynomials import (
    IntPoly,
    cyclotomic,
    discriminant,
    is_cyclotomic_product,
    is_reciprocal,
    l1_norm,
    mahler_bound,
    reciprocal_from_trace,
    resultant,
    trace_polynomial,
)

X = IntPoly.monomial(1)


def test_normalization_and_degree():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).degree == -1
    assert IntPoly([5]).degree == 0
    assert IntPoly([0, 0, 1]).is_monic()


def test_divmod_monic():
    f = IntPoly([-1, 0, 0, 0, 1])  # x^4 - 1
    q, r = f.divmod_monic(IntPoly([-1, 1]))  # / (x - 1)
    assert r.is_zero()
    assert q == IntPoly([1, 1, 1, 1])
    assert IntPoly([1, 2]).divmod_monic(IntPoly([0, 0, 1])) == (IntPoly(), IntPoly([1, 2]))
    with pytest.raises(ValueError):
        f.divmod_monic(IntPoly([1, 2]))


def test_l1_norm_examples():
    assert l1_norm(IntPoly([1, -3, 1])) == 5
    assert l1_norm(IntPoly()) == 0
    assert l1_norm(IntPoly([1, 1, 1, 1, 1])) == 5


def test_discriminant_examples():
    assert discriminant(IntPoly([1, 3, 1])) == 5  # b^2 - 4c
    assert discriminant(IntPoly([-1, -1, 0, 1])) == -23
    assert discriminant(IntPoly([1, -2, 1])) == 0  # (x-1)^2
    assert discriminant(IntPoly([0, 1])) == 1
    with pytest.raises(ValueError):
        discriminant(IntPoly([7]))
    with pytest.raises(ValueError):
        discriminant(IntPoly([1, 1, 2]))


def test_resultant_small():
    # res(x^2+3x+1, 2x+3) = 4 * f(-3/2) = -5
    assert resultant(IntPoly([1, 3, 1]), IntPoly([3, 2])) == -5
    # common factor
    assert resultant(IntPoly([-1, 0, 1]), IntPoly([-1, 1])) == 0
    # swap consistency: res(a,b) = (-1)^(deg a * deg b) res(b,a)
    a, b = IntPoly([1, 3, 1]), IntPoly([-2, 0, 0, 1])
    assert resultant(a, b) == resultant(b, a)  # 2*3 even
    # both degrees odd: swapping the inputs flips the sign
    assert resultant(X - IntPoly([1]), IntPoly([-2, 0, 0, 1])) == -1
    assert resultant(IntPoly([-2, 0, 0, 1]), X - IntPoly([1])) == 1
    # a constant input c gives c^(degree of the other)
    assert resultant(IntPoly([1, 0, 1]), IntPoly([3])) == 9
    assert resultant(IntPoly([3]), IntPoly([1, 0, 1])) == 9
    for a, b in ((IntPoly(), X), (X, IntPoly())):
        with pytest.raises(ValueError, match="resultant of the zero polynomial"):
            resultant(a, b)


def _root_product_discriminant(f: IntPoly) -> float:
    mpmath.mp.dps = 60
    roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(f.coeffs)], maxsteps=200)
    prod = mpmath.mpf(1)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            prod *= (roots[i] - roots[j]) ** 2
    return prod


def test_discriminant_matches_root_product_oracle():
    rng = Random(101)
    checked = 0
    while checked < 60:
        deg = rng.randrange(2, 6)
        f = IntPoly([rng.randrange(-9, 10) for _ in range(deg)] + [1])
        d = discriminant(f)
        if d == 0:
            continue
        approx = _root_product_discriminant(f)
        assert abs(abs(d) - abs(approx)) <= 1e-6 * abs(d)
        checked += 1


def test_mahler_bound_examples():
    assert mahler_bound(IntPoly([1, 0, 1])) == 16
    assert abs(discriminant(IntPoly([1, 0, 1]))) == 4
    assert mahler_bound(IntPoly([1, -3, 1])) == 100
    assert mahler_bound(IntPoly([0, 1])) == 1
    with pytest.raises(ValueError, match="bound needs positive degree"):
        mahler_bound(IntPoly([5]))


def test_mahler_inequality_random():
    rng = Random(77)
    for _ in range(200):
        deg = rng.randrange(1, 9)
        f = IntPoly([rng.randrange(-9, 10) for _ in range(deg)] + [1])
        assert abs(discriminant(f)) <= mahler_bound(f)


def test_is_reciprocal():
    assert is_reciprocal(IntPoly([1, 1, 1, 1, 1]))
    assert not is_reciprocal(IntPoly([3, 2, 1]))
    assert is_reciprocal(IntPoly([1, 0, 0, 0, 1]))


def test_trace_polynomial_examples():
    assert trace_polynomial(IntPoly([1, 0, 1])) == X
    assert trace_polynomial(IntPoly([1, 0, 0, 0, 1])) == IntPoly([-2, 0, 1])
    assert trace_polynomial(IntPoly([1, 1, 1, 1, 1])) == IntPoly([-1, 1, 1])
    with pytest.raises(ValueError, match="needs even degree"):
        trace_polynomial(IntPoly([1, 2, 1, 1]))
    with pytest.raises(ValueError, match="needs a reciprocal input"):
        trace_polynomial(IntPoly([1, 2, 3, 4, 1]))
    with pytest.raises(ValueError, match="needs a monic input"):
        trace_polynomial(IntPoly([2, 2, 2, 2, 2]))


def _expand_trace_identity(trace_poly: IntPoly, n: int) -> IntPoly:
    # x^n * F(x + 1/x) = sum_k F_k x^(n-k) (x^2+1)^k
    x2p1 = IntPoly([1, 0, 1])
    total = IntPoly()
    power = IntPoly([1])
    for k in range(trace_poly.degree + 1):
        total = total + trace_poly[k] * power * IntPoly.monomial(trace_poly.degree - k)
        power = power * x2p1
    return total


def test_trace_polynomial_identity_random():
    rng = Random(5)
    for _ in range(50):
        n = rng.randrange(1, 7)  # degree 2n <= 12
        mid = [rng.randrange(-9, 10) for _ in range(n)]  # a_1 .. a_n
        f = IntPoly([1] + mid + mid[:-1][::-1] + [1])
        assert is_reciprocal(f) and f.is_monic() and f.degree == 2 * n
        F = trace_polynomial(f)
        assert F.is_monic() and F.degree == n
        assert _expand_trace_identity(F, n) == f


def test_cyclotomic_examples():
    assert cyclotomic(1) == IntPoly([-1, 1])
    assert cyclotomic(4) == IntPoly([1, 0, 1])
    assert cyclotomic(6) == IntPoly([1, -1, 1])
    with pytest.raises(ValueError, match="d must be positive"):
        cyclotomic(0)


def test_cyclotomic_divides_and_degree():
    for d in range(1, 51):
        phi_d = cyclotomic(d)
        assert phi_d.degree == sum(gcd(k, d) == 1 for k in range(1, d + 1))
        assert (IntPoly.monomial(d) - IntPoly([1])).divmod_monic(phi_d)[1].is_zero()


def test_cyclotomic_divisor_product_is_x_d_minus_1():
    for d in range(1, 121):
        product = IntPoly([1])
        for e in range(1, d + 1):
            if d % e == 0:
                product = product * cyclotomic(e)
        assert product == IntPoly.monomial(d) - IntPoly([1]), d


def test_cyclotomic_keeps_no_cache():
    # no library code calls it: a module-level cache would only grow
    assert not hasattr(cyclotomic, "cache_info")
    assert not hasattr(cyclotomic, "__wrapped__")
    assert cyclotomic(12) == cyclotomic(12) and cyclotomic(12) is not cyclotomic(12)


def test_is_cyclotomic_product_examples():
    assert is_cyclotomic_product(IntPoly([-1, 0, 1]))  # x^2 - 1
    assert not is_cyclotomic_product(IntPoly([-1, -1, 1]))  # golden ratio
    assert is_cyclotomic_product(IntPoly([-1, 3, -3, 1]))  # (x-1)^3
    # Phi_(2^a) has degree n = 2^(a-1) and needs all n.bit_length() + 1
    # root squarings to reach its fixed point Phi_1
    for a in range(1, 8):
        assert is_cyclotomic_product(cyclotomic(2**a)), a
        assert is_cyclotomic_product(cyclotomic(2**a) * cyclotomic(3)), a
    # a zero root squares to itself: x^2 - x and x^3 are fixed, not cyclotomic
    assert not is_cyclotomic_product(IntPoly([0, -1, 1]))
    assert not is_cyclotomic_product(IntPoly([0, 0, 0, 1]))
    # Lehmer's polynomial passes the binomial bound but has no fixed point
    lehmer = IntPoly([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
    assert all(abs(lehmer[10 - k]) <= comb(10, k) for k in range(11))
    assert not is_cyclotomic_product(lehmer)
    with pytest.raises(ValueError, match="needs a monic input"):
        is_cyclotomic_product(IntPoly([1, 2]))  # not monic
    with pytest.raises(ValueError, match="needs positive degree"):
        is_cyclotomic_product(IntPoly([1]))


# the oracle below asks for the same Phi_d (d up to 3200) again and again;
# `cyclotomic` itself keeps nothing between calls
_cyclotomic_memo = lru_cache(maxsize=None)(cyclotomic)


def _cyclotomic_product_by_trial_division(f, phi):
    """Oracle: divide out every Phi_d with phi(d) <= the remaining degree,
    d <= 2 deg(f)^2 (phi(d) > sqrt(d/2) makes the scan exhaustive)."""
    rem = f
    for d in range(1, 2 * f.degree**2 + 1):
        if phi[d] > rem.degree:
            continue
        quo, r = rem.divmod_monic(_cyclotomic_memo(d))
        while r.is_zero():
            rem = quo
            quo, r = rem.divmod_monic(_cyclotomic_memo(d))
    return rem.degree == 0


def test_cyclotomic_product_matches_trial_division():
    max_degree = 40
    phi = list(range(2 * max_degree**2 + 1))  # Euler phi by a sieve
    for p in range(2, len(phi)):
        if phi[p] == p:
            for m in range(p, len(phi), p):
                phi[m] -= phi[m] // p
    small = [d for d in range(1, len(phi)) if phi[d] <= 12]
    rng = Random(2024)
    inputs = []
    while len(inputs) < 360:
        kind = len(inputs) % 3
        if kind == 2:  # random monic, coefficients in [-3, 3]
            n = rng.randrange(1, max_degree + 1)
            f = IntPoly([rng.randrange(-3, 4) for _ in range(n)] + [1])
        else:  # a product of Phi_d, perturbed by +-1 in one place for kind 1
            f = IntPoly([1])
            for _ in range(rng.randrange(1, 7)):
                d = rng.choice(small)
                if f.degree + phi[d] <= max_degree:
                    f = f * cyclotomic(d)
            if f.degree < 1:
                continue
            if kind == 1:
                i = rng.randrange(f.degree)
                f = f + IntPoly.monomial(i, rng.choice((-1, 1)))
        inputs.append(f)
    verdicts = [is_cyclotomic_product(f) for f in inputs]
    for f, verdict in zip(inputs, verdicts):
        assert verdict == _cyclotomic_product_by_trial_division(f, phi), f.coeffs
    assert 100 <= sum(verdicts) < len(inputs)


def test_cyclotomic_product_multiplicative():
    rng = Random(17)
    for _ in range(40):
        def random_poly():
            if rng.random() < 0.5:
                f = IntPoly([1])
                for _ in range(rng.randrange(1, 4)):
                    f = f * cyclotomic(rng.randrange(1, 13))
                return f
            deg = rng.randrange(1, 4)
            return IntPoly([rng.randrange(-5, 6) for _ in range(deg)] + [1])

        f, g = random_poly(), random_poly()
        assert is_cyclotomic_product(f * g) == (
            is_cyclotomic_product(f) and is_cyclotomic_product(g)
        )


def test_cyclotomic_product_coefficient_bound_shortcut():
    # products of cyclotomics obey |a_(n-k)| <= C(n, k); a huge coefficient
    # must be rejected without any division
    f = IntPoly([10**40, 0, 1])
    assert not is_cyclotomic_product(f)
    n = 6
    g = IntPoly([1])
    for _ in range(6):
        g = g * cyclotomic(1)
    assert all(abs(g[n - k]) <= comb(n, k) for k in range(n + 1))


def test_reciprocal_from_trace_inverts_the_trace_polynomial():
    rng = Random(8)
    for _ in range(40):
        g = IntPoly([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 8))] + [1])
        h = IntPoly([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 8))] + [1])
        f = reciprocal_from_trace(g)
        assert f.degree == 2 * g.degree and is_reciprocal(f)
        assert trace_polynomial(f) == g
        # a factorization of the trace polynomial is one of f
        assert reciprocal_from_trace(g * h) == f * reciprocal_from_trace(h)
