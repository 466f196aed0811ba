"""Exact integer matrix arithmetic for finitely generated subgroups of
SL(n,Z) and Sp(2n,Z): validation, characteristic polynomials, exact
inverses (adjugates, by fraction-free Gauss-Jordan elimination), and seeded
random words over a symmetric generating set.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from math import isqrt
from random import Random
from typing import Iterable, Sequence

from . import kernels
from .polynomials import IntPoly


@dataclass(frozen=True)
class Matrix:
    """Immutable square matrix with arbitrary-precision integer entries."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = [tuple(row) for row in rows]
        try:  # int() would truncate 1.9, Fraction(3, 2) and "7" silently
            rows = tuple(tuple(map(operator.index, row)) for row in rows)
        except TypeError as exc:
            raise ValueError(f"matrix entries must be integers ({exc})") from None
        if not rows:
            raise ValueError("matrix must be nonempty")
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        return multiply(self, other)

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def frobenius_sq(self) -> int:
        return sum(v * v for row in self.rows for v in row)

    def flatten(self) -> tuple[int, ...]:
        return tuple(v for row in self.rows for v in row)


def _trusted(rows: tuple[tuple[int, ...], ...]) -> Matrix:
    """A Matrix over rows that are already a square tuple of int tuples.

    Matrix.__init__ validates at the input boundary (parse_input, validate);
    rows computed from validated matrices skip that second pass.
    """
    m = object.__new__(Matrix)
    object.__setattr__(m, "rows", rows)
    return m


def multiply(a: Matrix, b: Matrix) -> Matrix:
    """The exact product a*b, sparse and row-oriented.

    b's rows are read once as their nonzero (column, value) pairs, and each
    nonzero a[i][k] adds a[i][k] times row k of b into row i.  No zero is
    multiplied, and the result is not re-validated: sums of products of ints
    are ints, and the shape follows from a and b.
    """
    n = a.dim
    if n != b.dim:
        raise ValueError(f"dimension mismatch: {n} vs {b.dim}")
    b_rows = [[(j, v) for j, v in enumerate(row) if v] for row in b.rows]
    out_rows = []
    for row in a.rows:
        out = [0] * n
        for x, b_row in zip(row, b_rows):
            if x:
                for j, v in b_row:
                    out[j] += x * v
        out_rows.append(tuple(out))
    return _trusted(tuple(out_rows))


def commutes(a: Matrix, b: Matrix) -> bool:
    return multiply(a, b) == multiply(b, a)


def characteristic_polynomial(a: Matrix) -> IntPoly:
    """det(xI - A) by the Berkowitz iteration: division-free, O(dim^4)
    integer operations, no rational bookkeeping however large the entries.

    The columns are read once.  v has length k, so each map over a whole
    column stops at its first k entries: column j of the leading block M,
    or `above`, the top of column k.
    """
    n = a.dim
    rows = a.rows
    cols = list(zip(*rows))
    mul = operator.mul
    # p holds coefficients (leading first) for the leading principal k x k block.
    p = [1, -rows[0][0]]
    for k in range(1, n):
        above, block = cols[k], cols[:k]
        # First column of the (k+2) x (k+1) Toeplitz factor:
        # [1, -a_kk, -left.above, -left.M.above, ..., -left.M^(k-1).above]
        v = rows[k][:k]  # left
        toep = [1, -rows[k][k], -sum(map(mul, v, above))]
        for _ in range(k - 1):
            v = [sum(map(mul, v, col)) for col in block]
            toep.append(-sum(map(mul, v, above)))
        p = [
            sum(toep[i - j] * p[j] for j in range(max(0, i - k - 1), min(i, k) + 1))
            for i in range(k + 2)
        ]
    return IntPoly(list(reversed(p)))


def adjugate_inverse(a: Matrix) -> Matrix:
    """The adjugate of a determinant-1 matrix, i.e. its exact integer inverse.

    One fraction-free Gauss-Jordan pass (Bareiss) over [A | I], with row
    swaps: step k replaces every row r but the pivot row by
    (p_k r - r[k] pivot_row) / p_(k-1), an exact division, so every entry
    stays a minor of the permuted [A | I]; a row with r[k] = 0 is left as
    it is when p_k = p_(k-1).  The pass ends at [d I | d A^-1] with
    d = p_n = sign * det A, so when det A = 1 the right block times the
    sign is adj A.  O(dim^3) integer operations, no charpoly.
    """
    n = a.dim
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a.rows)]
    sign, prev = 1, 1
    for k in range(n):
        r = next((r for r in range(k, n) if m[r][k]), None)
        if r is None:
            raise ValueError("adjugate inverse needs det = 1, got 0")
        if r != k:
            m[k], m[r] = m[r], m[k]
            sign = -sign
        top = m[k]
        pivot = top[k]
        for i, row in enumerate(m):
            c = row[k]
            if i != k and (c or pivot != prev):
                m[i] = [(pivot * x - c * y) // prev for x, y in zip(row, top)]
        prev = pivot
    if sign * prev != 1:
        raise ValueError(f"adjugate inverse needs det = 1, got {sign * prev}")
    return _trusted(tuple(tuple(sign * v for v in row[n:]) for row in m))


class GroupKind(Enum):
    SPECIAL_LINEAR = "SL"
    SYMPLECTIC = "Sp"


def symplectic_form(dim: int) -> Matrix:
    """The standard form J = [[0, I], [-I, 0]] of even size dim."""
    n = dim // 2
    rows = [[0] * dim for _ in range(dim)]
    for i in range(n):
        rows[i][n + i] = 1
        rows[n + i][i] = -1
    return Matrix(rows)


def j_times(x: Matrix) -> Matrix:
    """J x for the standard form J of x's even size, with no product: x's
    bottom half of rows over its negated top half."""
    n = x.dim // 2
    return _trusted(x.rows[n:] + tuple(tuple(-v for v in row) for row in x.rows[:n]))


@dataclass(frozen=True)
class GeneratorSet:
    """Validated generators of a subgroup of SL(dim,Z) or Sp(dim,Z), with
    their precomputed inverses and the ceiling of the largest Frobenius norm.
    """

    kind: GroupKind
    dim: int
    generators: tuple[Matrix, ...]
    inverses: tuple[Matrix, ...]
    norm_bound: int

    @property
    def alphabet(self) -> tuple[Matrix, ...]:
        """The symmetric alphabet {g_i} U {g_i^-1}."""
        return self.generators + self.inverses


def validate(
    kind: GroupKind, dim: int, generators: Sequence[Matrix]
) -> GeneratorSet:
    """Check every group invariant and build the GeneratorSet.

    Rejects: empty input, wrong sizes, det != 1, odd symplectic dimension,
    and symplectic-form violations g^T J g != J.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if kind is GroupKind.SYMPLECTIC and (dim < 2 or dim % 2 != 0):
        raise ValueError("symplectic dimension must be even and >= 2")
    generators = tuple(generators)
    if not generators:
        raise ValueError("at least one generator required")
    for idx, g in enumerate(generators):
        if g.dim != dim:
            raise ValueError(f"generator {idx} has size {g.dim}, expected {dim}")
    # J is O(dim^2): build it only once every size matches the declared dim
    j = symplectic_form(dim) if kind is GroupKind.SYMPLECTIC else None
    inverses = []
    norm_bound = 1
    for idx, g in enumerate(generators):
        try:
            inverses.append(adjugate_inverse(g))
        except ValueError as exc:
            raise ValueError(f"generator {idx}: {exc}") from None
        if j is not None and multiply(g.transpose(), j_times(g)) != j:
            raise ValueError(f"generator {idx} does not preserve the symplectic form")
        fsq = g.frobenius_sq()
        root = isqrt(fsq)
        norm_bound = max(norm_bound, root if root * root == fsq else root + 1)
    return GeneratorSet(kind, dim, generators, tuple(inverses), norm_bound)


def random_word_letters(gs: GeneratorSet, length: int, rng: Random) -> tuple[int, ...]:
    """Uniform i.i.d. letters indexing the symmetric alphabet."""
    if length < 1:
        raise ValueError("word length must be positive")
    size = 2 * len(gs.generators)
    return tuple(rng.randrange(size) for _ in range(length))


# A repack leaves the slots room for this many more of the alphabet's
# largest letters before the next one.
_ROOM_LETTERS = 24


def word_from_letters(gs: GeneratorSet, letters: Sequence[int]) -> Matrix:
    """The exact product of the indexed alphabet letters, left to right
    (the identity for no letters), by one fold over packed columns.

    Column j of the running product A is held as one integer
    sum_i A[i][j] * 2^(w*i): n signed slots of w bits (Kronecker
    substitution applied to the linear map X -> X*L).  Column j of A*L is
    sum_k L[k][j] * (column k of A), so a letter costs one big-int
    multiply-add per nonzero of L and none per zero.  Letters are mostly
    zeros (4-31% nonzero at SL(12..24)), and their nonzero columns are read
    once per word, not once per product.

    The fold is exact by proof.  `bound` >= max|A| always holds: before
    each letter it is multiplied by c(L), the letter's largest column sum
    of absolute values, because |(A*L)[i][j]| <= max|A| * sum_k |L[k][j]|.
    Every slot decodes to its entry while bound < 2^(w-1).  A letter that
    would break that first decodes A, resets `bound` to the true maximum
    and repacks at a width with room for _ROOM_LETTERS more of the largest
    letters.  Each decode checks that nothing is left above the top slot.
    """
    n = gs.dim
    table = []  # per letter: its nonzero columns (first term apart) and c(L)
    for g in gs.alphabet:
        columns = [[(k, v) for k, v in enumerate(col) if v] for col in zip(*g.rows)]
        c = max(sum(abs(v) for _, v in col) for col in columns)
        table.append(([(*col[0], col[1:]) for col in columns], c))
    room = _ROOM_LETTERS * max(c for _, c in table).bit_length()
    bound = 1
    w = kernels.slot_bits(bound.bit_length() + room)
    packed = [1 << (w * j) for j in range(n)]
    for letter in letters:
        columns, c = table[letter]
        if (bound * c) >> (w - 1):
            entries = [kernels.unpack_signed(col, n, w) for col in packed]
            bound = max(max(map(abs, col)) for col in entries)
            w = kernels.slot_bits(bound.bit_length() + room)
            packed = [kernels.pack_signed(col, w) for col in entries]
        bound *= c
        out = []
        for k0, v0, rest in columns:  # every column of an invertible L has a nonzero
            s = packed[k0] if v0 == 1 else v0 * packed[k0]
            for k, v in rest:
                s += v * packed[k]
            out.append(s)
        packed = out
    return _trusted(tuple(zip(*[kernels.unpack_signed(col, n, w) for col in packed])))


def random_word(gs: GeneratorSet, length: int, rng: Random) -> Matrix:
    """Product of `length` uniform draws from {g_i} U {g_i^-1}; deterministic
    for a fixed rng state."""
    return word_from_letters(gs, random_word_letters(gs, length, rng))
