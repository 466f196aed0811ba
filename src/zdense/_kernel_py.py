"""The hot kernels: distinct-degree factorization mod q, one root mod q,
the Hensel lift of a factor mod q, row rank mod p with the dependencies
it finds, and their lift to Q, in pure Python with big-int packing.

Every packed int in the package has one format: value i in w-bit slot i,
w = slot_bits(the bits a slot must hold), written by pack and read by
unpack (by shifts or bytes, whichever the slot count makes faster), or by
pack_signed and unpack_signed, which offset each slot by half its range.

ddf_parts makes f monic, computes the Frobenius power x^q mod f once,
multiplies by Kronecker substitution (one big-int product per polynomial
product), and walks the degrees through a table of its powers instead of
raising to the q-th power at every step.  The product of the degree-d
factors is a gcd, found up to a unit by Euclid over _divmod, the one
long division, which takes any nonzero divisor; ddf_parts yields it
monic, and ddf_degrees reads its degrees off that one loop.  Only f, the
parts and the gcds that find_root splits are made monic.  find_root
takes the same x^q, keeps gcd(f, x^q - x), the product of the distinct
linear factors, and splits it by equal degree with (x + a)^((q-1)/2)
until one factor is left; both powers are _PackedRing.power.
hensel_lift lifts a monic factor mod q of an integer polynomial
quadratically, every product one kmul (Kronecker substitution over
Z/m), and gives up as soon as a coefficient leaves the caller's bound.
RowEchelon also packs each row into one int with a column per slot, so
eliminating against a pivot row is one big-int multiply-add.  It reduces
each added row once against the rows it has kept, so a caller that feeds
rows as it forms them (the Burnside walk) never eliminates a kept row
again; rank_mod is one pass of rows through a fresh RowEchelon.  With
record=True a row also carries its combination of the kept rows in slots
past its columns, so the same multiply-adds leave each dependent row's
coefficients on the kept rows mod p: the walk's products, and the columns
of a matrix whose reduced echelon form the Burnside layer reads off their
relations.
Norton's spins and rank_mod leave it off and pay one flag test per row.
crt and rational_reconstruction (Wang's, over a common denominator) lift
such coefficients from residues to fractions; the caller checks the
fractions exactly, as it checks hensel_lift's lift.

Polynomials here are lists of ints in [0, q), constant term first;
hensel_lift takes f over Z and returns its lift in the symmetric range.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _divmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero b, mod q."""
    r = a[:]
    db = len(b) - 1
    inv = pow(b[-1], -1, q)
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(quo) - 1, -1, -1):
        c = quo[i] = r[i + db] * inv % q
        if c:
            for j in range(db):
                r[i + j] = (r[i + j] - c * b[j]) % q
    del r[db:]
    return quo, _trim(r)


def _monic(a: list[int], q: int) -> list[int]:
    inv = pow(a[-1], -1, q)
    return [c * inv % q for c in a]


def _gcd(a: list[int], b: list[int], q: int) -> list[int]:
    """A gcd of a and b mod q, up to a unit."""
    while b:
        a, b = b, _divmod(a, b, q)[1]
    return a


# Shifts or bytes, by slot count: each shift copies the growing int, so a
# shift loop grows with the square of the slot count.  Over 48- and 72-bit
# slots shifts packed faster up to 40 slots and bytes from 48-56; shifts
# unpacked faster up to 128-192 and bytes from 160-224, the lower counts at
# 72 bits, RowEchelon's (Python 3.11, best of 5, five runs).  The pack rows
# of benchmarks/bench_kernels.py time both sides of each constant.
_PACK_BYTES_FROM = 48
_UNPACK_BYTES_FROM = 160


def slot_bits(bits: int) -> int:
    """The slot width for values of `bits` bits: the least multiple of 8
    above bits, whole bytes with a bit to spare (a signed slot's sign)."""
    return (bits // 8 + 1) * 8


def pack(values: list[int], w: int) -> int:
    """sum_i values[i] 2^(w i), for values in [0, 2^w) and w a multiple of 8."""
    if len(values) < _PACK_BYTES_FROM:
        v = 0
        for c in reversed(values):
            v = (v << w) | c
        return v
    size = w // 8
    return int.from_bytes(b"".join([c.to_bytes(size, "little") for c in values]), "little")


def unpack(v: int, n: int, w: int, m: int) -> list[int]:
    """The n slots of v = sum_i s_i 2^(w i), s_i in [0, 2^w), each reduced
    mod m; w is a multiple of 8."""
    if n < _UNPACK_BYTES_FROM:
        mask = (1 << w) - 1
        out = []
        for _ in range(n):
            out.append((v & mask) % m)
            v >>= w
        return out
    size = w // 8
    raw = v.to_bytes(size * n, "little")
    return [int.from_bytes(raw[i : i + size], "little") % m for i in range(0, len(raw), size)]


def _offsets(n: int, w: int) -> int:
    """sum_i 2^(w i + w - 1) over n slots: each slot's half."""
    return int.from_bytes((1 << (w - 1)).to_bytes(w // 8, "little") * n, "little")


def pack_signed(values: Sequence[int], w: int) -> int:
    """sum_i values[i] 2^(w i), for values in [-2^(w - 1), 2^(w - 1)): pack
    of the values offset by 2^(w - 1), less the offsets."""
    half = 1 << (w - 1)
    return pack([x + half for x in values], w) - _offsets(len(values), w)


def unpack_signed(v: int, n: int, w: int) -> list[int]:
    """The n slots of v = sum_i s_i 2^(w i), s_i in [-2^(w - 1), 2^(w - 1)).

    Adding the offsets lifts every slot s to s + 2^(w - 1) in [0, 2^w) with
    no carry, so the lifted sum lies in [0, 2^(w n)) exactly when v is such
    a sum; ArithmeticError says it is not (a slot overflowed).
    """
    lifted = v + _offsets(n, w)
    if lifted < 0 or lifted >> (w * n):
        raise ArithmeticError("packed entries overflowed their slots")
    half = 1 << (w - 1)
    return [s - half for s in unpack(lifted, n, w, 1 << w)]


class _PackedRing:
    """F_q[x]/(f) for a monic f of degree n >= 2, elements as length-n lists.

    A product is one big-int multiply (Kronecker substitution): coefficients
    sit in slots of w = slot_bits(2 bitlen(q-1) + bitlen(n)) bits, so a
    slot that sums up to 2n - 1 products of two coefficients in [0, q) never
    carries into the next.  The product is folded back with the packed rows
    x^n .. x^(2n-2) mod f.
    """

    def __init__(self, f: list[int], q: int):
        n = len(f) - 1
        self.n, self.q = n, q
        self.w = slot_bits(2 * (q - 1).bit_length() + n.bit_length())
        self.x = [0, 1] + [0] * (n - 2)
        self.xn = [-c % q for c in f[:n]]  # x^n mod f
        rows = [self.xn]
        for _ in range(n - 2):
            rows.append(self.times_x(rows[-1]))
        self.rows = [pack(r, self.w) for r in rows]

    def reduce(self, v: int) -> list[int]:
        """The reduced element of a packed product of two reduced elements.

        The slots are read inline, not by unpack: this is the inner step of
        every power, and the two calls and the zip cost 5-45% at n = 30..2
        (31-bit q, Python 3.11, best of 5 x 2000 calls), the final read
        alone 1-15% of a power (22-bit q, best of 3).
        """
        n, w, q = self.n, self.w, self.q
        mask = (1 << w) - 1
        acc = v & ((1 << (w * n)) - 1)
        v >>= w * n
        for row in self.rows:
            c = (v & mask) % q
            if c:
                acc += c * row
            v >>= w
        out = []
        for _ in range(n):
            out.append((acc & mask) % q)
            acc >>= w
        return out

    def times_x(self, a: list[int]) -> list[int]:
        c = a[-1]
        a = [0] + a[:-1]
        if c:
            a = [(u + c * v) % self.q for u, v in zip(a, self.xn)]
        return a

    def power(self, a: list[int], e: int) -> list[int]:
        """a^e for e >= 1, left to right over the bits of e.  Multiplying
        by x + c is a shift and an add, so (x + c)^e forms no product for
        its 1 bits."""
        q, c = self.q, a[0]
        linear = a[1:] == self.x[1:]  # a = x + c
        v_a = None if linear else pack(a, self.w)
        b = a
        for bit in bin(e)[3:]:
            v = pack(b, self.w)
            b = self.reduce(v * v)
            if bit == "0":
                continue
            if not linear:
                b = self.reduce(pack(b, self.w) * v_a)
            elif c:
                b = [(u + c * w) % q for u, w in zip(self.times_x(b), b)]
            else:
                b = self.times_x(b)
        return b

    def powers(self, a: list[int]) -> list[int]:
        """Packed a^0 .. a^(n-1)."""
        v = pack(a, self.w)
        table = [1, v]
        for _ in range(self.n - 2):
            table.append(pack(self.reduce(table[-1] * v), self.w))
        return table

    def compose(self, h: list[int], table: list[int]) -> list[int]:
        """h(a), where table = powers(a)."""
        acc = 0
        for c, t in zip(h, table):
            if c:
                acc += c * t
        return unpack(acc, self.n, self.w, self.q)


def ddf_parts(coeffs: Sequence[int], q: int) -> Iterator[tuple[int, list[int]]]:
    """Distinct-degree factorization of a squarefree polynomial mod q: yields
    (d, part) in increasing d, part the monic product of its degree-d
    irreducible factors, for each d that has one.

    Raises ValueError, at the first step, if the reduction is constant or
    not squarefree.
    """
    f = _trim([c % q for c in coeffs])
    if len(f) < 2:
        raise ValueError("polynomial is constant mod q")
    f = _monic(f, q)
    deriv = _trim([i * c % q for i, c in enumerate(f)][1:])
    if len(_gcd(f, deriv, q)) != 1:
        raise ValueError("polynomial is not squarefree mod q")
    remaining = f
    d = 0
    # h = x^(q^d) stays reduced mod f, not mod remaining: remaining divides
    # f, so gcd(remaining, h - x) is the same either way
    while 2 * (d + 1) <= len(remaining) - 1:
        d += 1
        if d == 1:
            ring = _PackedRing(f, q)
            h = frob = ring.power(ring.x, q)
        else:
            if d == 2:
                table = ring.powers(frob)
            h = ring.compose(h, table)  # h(x^q) = x^(q^d)
        diff = h[:]
        diff[1] = (diff[1] - 1) % q
        part = _gcd(remaining, _trim(diff), q)
        if len(part) > 1:
            part = _monic(part, q)
            yield d, part
            remaining = _divmod(remaining, part, q)[0]
    # what is left has no factor of degree <= d, and degree below 2(d + 1)
    if len(remaining) > 1:
        yield len(remaining) - 1, remaining


def ddf_degrees(
    coeffs: Sequence[int], q: int, *, parts: dict[int, list[int]] | None = None
) -> list[int]:
    """Sorted degrees of the irreducible factors of a squarefree polynomial
    mod q, read off ddf_parts (no equal-degree splitting).  A `parts` dict
    is filled with ddf_parts' output, d -> the monic product of the degree-d
    factors, so a caller that wants the parts too runs one factorization.

    Raises ValueError if the reduction is constant or not squarefree.
    """
    degrees: list[int] = []
    for d, part in ddf_parts(coeffs, q):
        degrees.extend([d] * ((len(part) - 1) // d))
        if parts is not None:
            parts[d] = part
    return degrees


def find_root(coeffs: Sequence[int], q: int, rng) -> int | None:
    """A root mod an odd prime q of a polynomial that is not constant mod
    q, or None if it has none.

    Its distinct roots are those of g = gcd(f, x^q - x).  While g has two
    or more, an equal-degree split keeps a proper factor: for a shift a
    drawn from rng, gcd(g, (x + a)^((q-1)/2) - 1) collects the roots r
    for which r + a is a nonzero square, and is proper for about half the
    shifts.  Each split keeps the smaller side.
    """
    f = _trim([c % q for c in coeffs])
    if len(f) < 2:
        raise ValueError("polynomial is constant mod q")
    g = _monic(f, q)
    if len(g) > 2:
        ring = _PackedRing(g, q)
        h = ring.power(ring.x, q)
        h[1] = (h[1] - 1) % q
        g = _monic(_gcd(g, _trim(h), q), q)  # gcd(f, 0) is f
    while len(g) > 2:
        ring = _PackedRing(g, q)
        h = ring.power([rng.randrange(q), 1] + [0] * (len(g) - 3), (q - 1) // 2)
        h[0] = (h[0] - 1) % q
        part = _gcd(g, _trim(h), q)
        if 1 < len(part) < len(g):
            part = _monic(part, q)
            g = min(part, _divmod(g, part, q)[0], key=len)
    return -g[0] % q if len(g) == 2 else None


def kmul(a: list[int], b: list[int], m: int) -> list[int]:
    """The product mod m of two polynomials with coefficients in [0, m), by
    one big-int multiply (Kronecker substitution).  Each coefficient of the
    integer product sums at most min(len a, len b) products below m^2, so
    slots of slot_bits(2 bitlen(m - 1) + bitlen(min(len a, len b))) bits
    never carry."""
    if not a or not b:
        return []
    w = slot_bits(2 * (m - 1).bit_length() + min(len(a), len(b)).bit_length())
    return _trim(unpack(pack(a, w) * pack(b, w), len(a) + len(b) - 1, w, m))


def _add(a: list[int], b: list[int], m: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % m
    return _trim(out)


def _sub(a: list[int], b: list[int], m: int) -> list[int]:
    return _add(a, [-c % m for c in b], m)


def _inverse_mod(a: list[int], b: list[int], q: int) -> list[int]:
    """The s with deg s < deg b and s a = 1 mod (b, q), for a coprime to b
    mod the prime q, by extended Euclid on (a, b) that tracks s alone."""
    r0, r1, s0, s1 = a, b, [1], []
    while r1:
        quo, rem = _divmod(r0, r1, q)
        r0, r1 = r1, rem
        s0, s1 = s1, _sub(s0, kmul(quo, s1, q), q)
    if len(r0) != 1:
        raise ValueError("factors are not coprime mod q")
    inv = pow(r0[0], -1, q)
    return _divmod([c * inv % q for c in s0], b, q)[1]


def hensel_lift(
    f: Sequence[int], g: Sequence[int], q: int, bounds: Sequence[int]
) -> list[int] | None:
    """The lift of a monic factor g of f mod the prime q to a modulus
    M = q^(2^k) > 2 max(bounds), in the symmetric range (-M/2, M/2], or
    None once a coefficient is out of its bound.

    f is an integer polynomial whose leading coefficient q does not divide,
    and g must be coprime mod q to its cofactor h = f / g mod q.  The lift
    is the one monic G = g mod q with f = G H mod M for some H = h mod q, so
    a monic factor of f over Z that is g mod q and whose coefficient j is
    at most bounds[j] in absolute value is the lift.  Such a factor is
    fixed mod m already where 2 bounds[j] < m, so a coefficient that is out
    of its bound there, at m = q or after any step, ends the lift with
    None: a wrong g mostly stops after a step or two.  Nothing else is
    promised: the caller checks the lift, by dividing f by it exactly.

    Quadratic Hensel lifting (von zur Gathen and Gerhard, Modern Computer
    Algebra, Algorithm 15.10), every product one kmul.  From r to m = r^2
    the error f - h u and the Bezout defect s h + t u - 1 are multiples of
    r, so each is divided by r and all that meets it is done mod r: only
    the products h u, s h and t u are formed mod m.  A step lifts g first
    and checks it; the cofactor h and the Bezout pair s h + t g = 1 follow
    only when another step needs them: a g out of bound mod q costs no
    division, the first step needs h and s alone, and t mod q is formed
    when the second step finishes the first.  So a wrong g that fails after
    its first step costs one division, one inverse mod q and one step.
    """
    u = _trim([c % q for c in g])
    top = 2 * max(bounds)
    m, step, t = q, None, None
    while True:
        half = m // 2
        lift = [c - m if c > half else c for c in u]
        if any(abs(c) > b for c, b in zip(lift, bounds) if 2 * b < m):
            return None
        if m > top:
            return lift
        if step is None:
            h = _divmod(_trim([c % q for c in f]), u, q)[0]
            s = _inverse_mod(h, u, q)
        else:  # finish the last step: h, s and t mod m = r^2, from r on
            r, e, quo, u_r = step
            h_r = h
            if t is None:  # r = q
                t = _divmod(_sub([1], kmul(s, h_r, q), q), u_r, q)[0]
            h = _add(h_r, [r * c for c in _add(kmul(t, e, r), kmul(quo, h_r, r), r)], m)
            b = [c // r for c in _sub(_add(kmul(s, h, m), kmul(t, u, m), m), [1], m)]
            c, d = _divmod(kmul(s, b, r), u_r, r)
            s = _sub(s, [r * x for x in d], m)
            t = _sub(t, [r * x for x in _add(kmul(t, b, r), kmul(c, h_r, r), r)], m)
        r, m = m, m * m
        e = [c // r for c in _sub(_trim([c % m for c in f]), kmul(h, u, m), m)]
        quo, rem = _divmod(kmul(s, e, r), u, r)
        step = r, e, quo, u
        u = _add(u, [r * c for c in rem], m)


class RowEchelon:
    """Rows mod p in echelon form, each packed into one int: column j sits
    in slot j, of w = slot_bits(2 bitlen(p) + bitlen(ncols)) bits.

    add(row) reduces the row once against the kept pivot rows and keeps
    it, normalized, iff it is independent of them.  Eliminating against a
    normalized pivot row adds (p - c) times it, which clears the pivot
    column mod p and adds less than p^2 to every slot; a row meets at most
    ncols pivots, so no slot carries into the next.

    With record=True each row also carries its combination of the kept
    rows, in the slots after its ncols columns: slot ncols + i holds the
    coefficient of the i-th row kept, and a new row starts with 1 in the
    slot of the index it would be kept at.  Elimination then updates the
    combination by the same multiply-add, at no extra big-int operation.
    When add returns False, `relation` holds the coefficients, in [0, p),
    of the row on the rows kept so far, in the order they were kept.
    """

    def __init__(self, p: int, ncols: int, record: bool = False):
        self.p, self.ncols, self.record = p, ncols, record
        self.w = slot_bits(2 * p.bit_length() + ncols.bit_length())
        self.pivots: list[tuple[int, int]] = []  # (pivot slot offset, packed normalized row)
        self.relation: list[int] = []

    def add(self, row: Sequence[int]) -> bool:
        """Keep row iff it is independent mod p of the rows kept so far."""
        p, w, ncols = self.p, self.w, self.ncols
        rank = len(self.pivots)
        if rank == ncols and not self.record:
            return False
        mask = (1 << w) - 1
        v = pack([x % p for x in row], w)
        nslots = ncols
        if self.record:
            v |= 1 << (w * (ncols + rank))
            nslots += rank + 1
        for shift, prow in self.pivots:
            c = (v >> shift & mask) % p
            if c:
                v += (p - c) * prow
        vals = unpack(v, nslots, w, p)
        lead = next((j for j in range(ncols) if vals[j]), None)
        if lead is None:
            if self.record:  # 0 = row - sum of relation[i] times kept row i
                self.relation = [-x % p for x in vals[ncols:-1]]
            return False
        inv = pow(vals[lead], -1, p)
        self.pivots.append((lead * w, pack([x * inv % p for x in vals], w)))
        return True


def rank_mod(rows: Sequence[Sequence[int]], p: int) -> tuple[int, list[int]]:
    """Rank of an integer matrix mod p, plus the indices of the rows kept
    as pivots (greedy: a row is kept iff independent of the kept rows
    before it), by adding the rows in order to one RowEchelon.
    """
    echelon = RowEchelon(p, len(rows[0]) if rows else 0)
    kept = [idx for idx, row in enumerate(rows) if echelon.add(row)]
    return len(echelon.pivots), kept


def crt(a: int, m: int, b: int, q: int) -> int:
    """The x in [0, m q) with x = a mod m and x = b mod q, for coprime m, q."""
    return (a + m * ((b - a) * pow(m, -1, q) % q)) % (m * q)


def _wang(u: int, m: int, bound: int) -> tuple[int, int] | None:
    """The fraction n/d = u mod m with |n|, d <= bound, 2 bound^2 < m, as
    (n, d) in lowest terms with d > 0, or None if there is none.

    Wang's half-extended Euclid (von zur Gathen and Gerhard, Modern
    Computer Algebra, 5.10): at most one such fraction exists, and the
    remainder sequence of (m, u) meets it at its first remainder <= bound.
    """
    r0, s0, r1, s1 = m, 0, u % m, 1
    while r1 > bound:
        q = r0 // r1
        r0, s0, r1, s1 = r1, s1, r0 - q * r1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def rational_reconstruction(residues: Sequence[int], m: int) -> tuple[int, list[int]] | None:
    """A common denominator d > 0 and numerators n_i with n_i = d u_i mod m
    for the residues u_i, or None.

    With B = isqrt((m - 1) // 2), so that 2 B^2 < m: whenever some D <= B
    and numerators of absolute value at most B give fractions n_i / D that
    are the residues mod m, the answer is those fractions, over the least
    common denominator.  Each d u_i is reconstructed in turn by Wang's
    method, d growing by the new denominator, which divides D / d; an
    entry that d already clears costs one product and one reduction.
    """
    bound = math.isqrt((m - 1) // 2)
    if not bound:  # m <= 2: no denominator is within the bound
        return None
    den, nums = 1, []
    for u in residues:
        v = u * den % m
        if v > bound:
            v -= m
        if v < -bound:
            frac = _wang(v, m, bound)
            if frac is None:
                return None
            v, d = frac
            den *= d
            nums = [n * d for n in nums]
        nums.append(v)
    return den, nums
