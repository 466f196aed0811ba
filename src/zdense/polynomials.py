"""Exact integer polynomial arithmetic.

Discriminants via a subresultant polynomial remainder sequence, the
coefficient-sum norm and its discriminant bound, reciprocal structure,
trace polynomials and the reciprocal polynomial of a given trace
polynomial, and cyclotomic-product detection by root squaring.
Everything is done over Z; coefficients may be arbitrarily large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, constant term first, no trailing zeros.

    The zero polynomial is the empty coefficient tuple and has degree -1.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @staticmethod
    def monomial(k: int, c: int = 1) -> "IntPoly":
        return IntPoly([0] * k + [c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[i] + other[i] for i in range(n)])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[i] - other[i] for i in range(n)])

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def divmod_monic(self, divisor: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Long division by a monic divisor; exact over Z."""
        if not divisor.is_monic():
            raise ValueError("divisor must be monic")
        return _divmod(self, divisor)

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])


ONE = IntPoly([1])


def _divmod(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """The one long division over Z: quotient and remainder of a by a
    nonzero b, where lc(b) must divide every leading term met (it does when
    b is monic, or when a is a pseudo-remainder's scaled dividend)."""
    rem = list(a.coeffs)
    db, lc = b.degree, b.coeffs[-1]
    quo = [0] * max(len(rem) - db, 0)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + db]
        if c:
            assert c % lc == 0
            c = quo[i] = c // lc
            for j, bc in enumerate(b.coeffs):
                rem[i + j] -= c * bc
    return IntPoly(quo), IntPoly(rem)


def l1_norm(f: IntPoly) -> int:
    """Sum of absolute values of the coefficients."""
    return sum(abs(c) for c in f.coeffs)


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder: rem(lc(b)^(deg a - deg b + 1) * a, b), all over Z."""
    return _divmod(a * b.coeffs[-1] ** (a.degree - b.degree + 1), b)[1]


def resultant(a: IntPoly, b: IntPoly) -> int:
    """Resultant of two nonzero integer polynomials (subresultant PRS).

    Intermediate divisions are exact over Z, so coefficient growth stays
    polynomial even when the inputs come from long random words.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of the zero polynomial")
    sign = 1
    if a.degree < b.degree:
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            sign = -sign
        a, b = b, a
    if b.degree == 0:
        return sign * b.coeffs[0] ** a.degree
    g = h = 1
    while b.degree > 0:
        delta = a.degree - b.degree
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            sign = -sign
        rem = _pseudo_rem(a, b)
        a = b
        divisor = g * h**delta
        b = IntPoly([c // divisor for c in rem.coeffs])
        g = a.coeffs[-1]
        if delta > 0:
            h = g**delta // h ** (delta - 1)
        if b.is_zero():
            return 0
    return sign * (b.coeffs[0] ** a.degree // h ** (a.degree - 1))


def discriminant(f: IntPoly) -> int:
    """Exact discriminant of a monic polynomial of positive degree.

    Sign convention: D(f) = (-1)^(n(n-1)/2) * Res(f, f').
    """
    n = f.degree
    if n < 1:
        raise ValueError("discriminant needs positive degree")
    if not f.is_monic():
        raise ValueError("discriminant implemented for monic polynomials")
    if n == 1:
        return 1
    res = resultant(f, f.derivative())
    return (-1) ** (n * (n - 1) // 2) * res


def mahler_bound(f: IntPoly) -> int:
    """Discriminant bound n^n * |f|_1^(2n-2); holds for monic f of degree n."""
    n = f.degree
    if n < 1:
        raise ValueError("bound needs positive degree")
    return n**n * l1_norm(f) ** (2 * n - 2)


def is_reciprocal(f: IntPoly) -> bool:
    """True iff the coefficient sequence reads the same in both directions."""
    c = f.coeffs
    return all(c[i] == c[len(c) - 1 - i] for i in range(len(c) // 2))


def trace_polynomial(f: IntPoly) -> IntPoly:
    """Degree-n polynomial F with x^n * F(x + 1/x) = f(x), for monic
    reciprocal f of even degree 2n.

    Uses the Chebyshev-style basis E_0 = 2, E_1 = z, E_(k+1) = z*E_k - E_(k-1)
    (E_k(x + 1/x) = x^k + x^-k), so F = a_n + sum_k a_(n-k) * E_k.
    """
    if not f.is_monic():
        raise ValueError("trace polynomial needs a monic input")
    if f.degree < 2 or f.degree % 2 != 0:
        raise ValueError("trace polynomial needs even degree >= 2")
    if not is_reciprocal(f):
        raise ValueError("trace polynomial needs a reciprocal input")
    n = f.degree // 2
    z = IntPoly.monomial(1)
    e_prev, e_cur = IntPoly([2]), z
    result = IntPoly([f[n]])
    for k in range(1, n + 1):
        result = result + f[n - k] * e_cur
        e_prev, e_cur = e_cur, z * e_cur - e_prev
    return result


def reciprocal_from_trace(g: IntPoly) -> IntPoly:
    """x^k g(x + 1/x) for g of degree k: the reciprocal polynomial of degree
    2k whose trace polynomial is g.  A factorization of a trace polynomial
    F = g h gives f = x^n F(x + 1/x) as the product of the two lifts."""
    k = g.degree
    out, power = IntPoly(), ONE  # power = (x^2 + 1)^j
    for j, c in enumerate(g.coeffs):
        out = out + IntPoly.monomial(k - j, c) * power
        power = power * IntPoly([1, 0, 1])
    return out


def cyclotomic(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial, by exact division of x^d - 1.

    Phi_e is built for each divisor e of d in increasing order, from x^e - 1
    and the Phi of e's proper divisors, which are divisors of d already
    built; nothing is kept between calls.
    """
    if d < 1:
        raise ValueError("d must be positive")
    divisors = [e for e in range(1, d + 1) if d % e == 0]
    phi = {}
    for e in divisors:
        num = IntPoly.monomial(e) - ONE
        for f in divisors:
            if f == e:
                break
            if e % f == 0:
                num, rem = num.divmod_monic(phi[f])
                assert rem.is_zero()
        phi[e] = num
    return phi[d]


def is_cyclotomic_product(f: IntPoly) -> bool:
    """True iff monic f is a product (with multiplicity) of cyclotomic
    polynomials, decided by Graeffe's root squaring (Bradford-Davenport).

    Each pass forms the monic g with g(x^2) = (-1)^n f(x) f(-x), whose roots
    are the squares of f's.  Squaring the roots sends Phi_d to Phi_d for odd
    d, to Phi_(d/2) for d = 2 mod 4 and to Phi_(d/2)^2 for 4 | d, so a
    cyclotomic product is fixed after max v_2(d) <= bit_length(n) passes
    (phi(2^a) = 2^(a-1) <= phi(d) <= n), and the next pass sees g == f.
    Conversely a fixed point with f(0) != 0 has its roots closed under
    squaring, so they are roots of unity, and so are the original roots.
    """
    if not f.is_monic():
        raise ValueError("cyclotomic-product test needs a monic input")
    n = f.degree
    if n < 1:
        raise ValueError("cyclotomic-product test needs positive degree")
    c = list(f.coeffs)
    for _ in range(n.bit_length() + 1):
        # A zero root squares to itself; roots on the unit circle bound the
        # coefficients by binomials, which rejects huge-word charpolys fast.
        if c[0] == 0 or any(abs(c[n - k]) > math.comb(n, k) for k in range(n + 1)):
            return False
        # (-1)^n f(x) f(-x) adds (-1)^(n+j) c_i c_j to x^(i+j); odd powers
        # cancel, and j = i mod 2 puts (-1)^(n+i) c_i c_j on g's x^((i+j)/2)
        g = [0] * (n + 1)
        for i, a in enumerate(c):
            a *= (-1) ** (n + i)
            for j in range(i % 2, n + 1, 2):
                g[(i + j) // 2] += a * c[j]
        if g == c:
            return True
        c = g
    return False
