"""Pure-Python twins of the compiled hot kernels.

Same signatures and pivot policy as zdense._kernel_cy; selected at import
time by zdense.kernels when the extension is unavailable.

Polynomials here are lists of ints in [0, q), constant term first.
"""

from __future__ import annotations

from typing import Sequence


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _rem(a: list[int], f: list[int], q: int) -> list[int]:
    """Remainder of a by monic f, mod q."""
    a = a[:]
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(df):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % q
    del a[df:]
    return _trim(a)


def _mulmod(a: list[int], b: list[int], f: list[int], q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    out = [v % q for v in out]
    return _rem(out, f, q)


def _monic(a: list[int], q: int) -> list[int]:
    lc = a[-1]
    if lc == 1:
        return a
    inv = pow(lc, -1, q)
    return [c * inv % q for c in a]


def _gcd(a: list[int], b: list[int], q: int) -> list[int]:
    a, b = a[:], b[:]
    while b:
        b = _monic(b, q)
        a, b = b, _rem(a, b, q)
    return _monic(a, q) if a else a


def _powmod_q(h: list[int], q: int, f: list[int]) -> list[int]:
    """h^q mod (f, q) by square-and-multiply on the exponent q."""
    result = [1]
    base = h[:]
    e = q
    while e:
        if e & 1:
            result = _mulmod(result, base, f, q)
        e >>= 1
        if e:
            base = _mulmod(base, base, f, q)
    return result


def _quo(a: list[int], b: list[int], q: int) -> list[int]:
    """Exact quotient of a by monic b, mod q."""
    a = a[:]
    db = len(b) - 1
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            quo[i - db] = c
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % q
    return _trim(quo)


def ddf_degrees(coeffs: Sequence[int], q: int) -> list[int]:
    """Sorted degrees of the irreducible factors of a squarefree polynomial
    mod q, by distinct-degree factorization (no equal-degree splitting).

    Raises ValueError if the reduction is constant or not squarefree.
    """
    f = _trim([c % q for c in coeffs])
    if len(f) < 2:
        raise ValueError("polynomial is constant mod q")
    f = _monic(f, q)
    deriv = _trim([i * c % q for i, c in enumerate(f)][1:])
    if len(_gcd(f, deriv, q)) != 1:
        raise ValueError("polynomial is not squarefree mod q")
    degrees: list[int] = []
    remaining = f
    h = _rem([0, 1], f, q)  # x mod f
    d = 0
    while 2 * (d + 1) <= len(remaining) - 1:
        d += 1
        h = _powmod_q(h, q, remaining)
        diff = h[:]
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % q
        part = _gcd(remaining, _trim(diff), q)
        if len(part) > 1:
            degrees.extend([d] * ((len(part) - 1) // d))
            remaining = _quo(remaining, part, q)
            if len(remaining) == 1:
                break
            h = _rem(h, remaining, q)
    if len(remaining) > 1:
        degrees.append(len(remaining) - 1)
    return sorted(degrees)


def rank_mod(rows: Sequence[Sequence[int]], p: int) -> tuple[int, list[int]]:
    """Rank of an integer matrix mod p, plus the indices of the rows kept
    as pivots (greedy: a row is kept iff independent of the kept rows
    before it).
    """
    pivots: list[tuple[int, list[int]]] = []  # (pivot column, normalized row)
    kept: list[int] = []
    ncols = len(rows[0]) if rows else 0
    for idx, row in enumerate(rows):
        v = [x % p for x in row]
        for col, prow in pivots:
            c = v[col]
            if c:
                for j in range(ncols):
                    v[j] = (v[j] - c * prow[j]) % p
        lead = next((j for j in range(ncols) if v[j]), None)
        if lead is None:
            continue
        inv = pow(v[lead], -1, p)
        v = [x * inv % p for x in v]
        pivots.append((lead, v))
        kept.append(idx)
        if len(pivots) == ncols:
            break
    return len(pivots), kept
