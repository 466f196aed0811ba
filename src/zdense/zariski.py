"""Zariski-density deciders for subgroups of SL(n,Z) and Sp(2n,Z).

Two routes: the Weyl-group route (two random words must both carry the
generic Galois group of the ambient group, plus a standard-representation
irreducibility gate in the symplectic case) and the general route (one
random word of infinite order plus irreducibility of the adjoint action on
the Lie algebra).  TRUE answers are certificate-backed and certain; FALSE
answers are Monte Carlo unless the failure itself is structural (a
reducible action can never be dense); DensityVerdict states their bound.
The Burnside check reduces each product once mod p, answers YES as soon
as the rank is full, and proves NO only by the exact rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence

from . import kernels
from .galois import DEFAULT_PRIME_RANGE, Certainty, _log_inv, as_epsilon
from .galois import is_hyperoctahedral, is_sn
from .matrices import (
    GeneratorSet,
    GroupKind,
    Matrix,
    characteristic_polynomial,
    commutes,
    multiply,
    random_word_letters,
    word_from_letters,
)
from .modular import random_prime_avoiding
from .polynomials import is_cyclotomic_product

DEFAULT_WORD_CONSTANT = Fraction(10)
_RANK_PRIME_RANGE = (1 << 30, 1 << 31)


@dataclass(frozen=True)
class DensityVerdict:
    """dense=True is always Certain; dense=False is meant to be wrong with
    probability at most epsilon (and may itself be Certain when the
    obstruction is structural), but the Weyl route and the Galois
    transitivity stage do not meet that bound today (see the README).  The
    trail records every step for reproduction."""

    dense: bool
    certainty: Certainty
    epsilon: Fraction
    trail: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "dense": self.dense,
            "certainty": self.certainty.value,
            "epsilon": str(self.epsilon),
            "trail": [dict(step) for step in self.trail],
        }


@dataclass(frozen=True)
class IrreducibilityResult:
    """Outcome of the matrix-algebra span loop; both answers are exact."""

    irreducible: bool
    algebra_dimension: int


def word_length(eps, word_constant=DEFAULT_WORD_CONSTANT) -> int:
    """Sampled word length: max(16, ceil(c * ln(1/eps))).

    Exponential-convergence theory guarantees some length linear in
    log(1/eps) suffices; the constant is an empirical knob.
    """
    c = Fraction(word_constant)
    if c <= 0:
        raise ValueError("word constant must be positive")
    try:
        return max(16, math.ceil(float(c) * _log_inv(as_epsilon(eps))))
    except OverflowError:  # c * ln(1/eps) is not a finite float
        raise ValueError("word constant too large: c * ln(1/eps) overflows a float") from None


def _bareiss_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank over Q by fraction-free elimination."""
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    prev = 1
    for col in range(n):
        piv = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        prow = a[rank]
        pval = prow[col]
        for i in range(rank + 1, m):
            ri = a[i]
            ric = ri[col]
            # rows with a zero in the pivot column still rescale by pval/prev
            for j in range(col + 1, n):
                ri[j] = (pval * ri[j] - ric * prow[j]) // prev
            ri[col] = 0
        prev = pval
        rank += 1
        if rank == m:
            break
    return rank


def is_irreducible_algebra(
    mats: Sequence[Matrix], dim: int, rng: Random | None = None
) -> IrreducibilityResult:
    """Does the unital algebra generated by `mats` fill all of the dim x dim
    matrices?  By Burnside, that is equivalent to the group acting
    irreducibly over C.

    Walks one growing list of kept elements modulo a random 31-bit prime
    p, I first: each kept element is multiplied once by every generator,
    and each product is formed only to be reduced at once by the prime's
    one RowEchelon, seeded with I, and kept iff it is independent of the
    rows kept before it.  The walk alone proves YES, at the row that makes
    the rank full (I alone when dim = 1): full rank mod p certifies it
    over Q.  The exact step only refutes: once the walk ends, the span of
    the kept elements is closed under the generators mod p, and a
    fraction-free rank of I and of every distinct product (each kept
    element but I is one of them) equal to the number kept means that span
    contains I and is closed under every generator over Q, so it is the
    whole algebra and too small: NO.  Any other exact rank means p divided
    a minor, and the walk restarts with a fresh prime and echelon.  Both
    are certain.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if any(g.dim != dim for g in mats):
        raise ValueError(f"dimension mismatch: every generator must be {dim} x {dim}")
    if rng is None:
        rng = Random(0x5EED)
    target = dim * dim
    identity = Matrix.identity(dim)
    while True:
        p = random_prime_avoiding(1, _RANK_PRIME_RANGE[0], _RANK_PRIME_RANGE[1], rng)
        echelon = kernels.RowEchelon(p, target)
        kept = [identity]
        rows = [identity.flatten()]  # I, then every product formed
        echelon.add(rows[0])
        for b in kept:  # kept grows while the walk reads it
            for g in mats:
                if len(kept) == target:  # the last row kept filled the rank
                    return IrreducibilityResult(True, target)
                m = multiply(g, b)
                rows.append(m.flatten())
                if echelon.add(rows[-1]):
                    kept.append(m)
        if _bareiss_rank(list(dict.fromkeys(rows))) == len(kept):
            # NO, but for dim = 1 and no generators, where I fills M_1
            return IrreducibilityResult(len(kept) == target, len(kept))


def _basis_cells(kind: GroupKind, dim: int) -> list[list[tuple[int, int, int]]]:
    """The (row, col, value) cells of each element of the fixed integer
    basis of the Lie algebra: the one place its layout is written.

    SL(n): E_ij (i<j), then E_ii-E_nn (i<n), then E_ij (i>j); for n = 2
    this is the classical (e, h, f).  Sp(2m): top-left units paired with
    their negated transposes, then the symmetric upper-right units, then
    the symmetric lower-left units.  Each element's first cell holds 1 and
    is touched by no other element, so a member's coordinate on that
    element is its entry there, and adjoint matrices stay integral.
    """
    if kind is GroupKind.SPECIAL_LINEAR:
        if dim == 1:
            raise ValueError("SL(1) has a trivial Lie algebra")
        last = dim - 1
        pairs = [(i, j) for i in range(dim) for j in range(dim)]
        return (
            [[(i, j, 1)] for i, j in pairs if i < j]
            + [[(i, i, 1), (last, last, -1)] for i in range(last)]
            + [[(i, j, 1)] for i, j in pairs if i > j]
        )
    m = dim // 2
    cells = [[(a, b, 1), (m + b, m + a, -1)] for a in range(m) for b in range(m)]
    for r, c in ((0, m), (m, 0)):  # symmetric upper-right, then lower-left blocks
        cells += [
            [(r + a, c + b, 1), (r + b, c + a, 1)] if a < b else [(r + a, c + a, 1)]
            for a in range(m)
            for b in range(a, m)
        ]
    return cells


def adjoint_matrices(gs: GeneratorSet) -> list[Matrix]:
    """For each generator g, the matrix of X -> g X g^-1 on the basis of
    `_basis_cells`, read off the cells without forming a product.

    Element a's first cell (r_a, c_a) holds 1 and no other element touches
    it, so entry (a, b) is the (r_a, c_a) entry of g B g^-1: the sum over
    b's cells (i, j, v) of v * g[r_a][i] * g^-1[j][c_a], which reads g's
    column i and g^-1's row j.  Entries are exact integers because the
    inverses are.
    """
    cells = _basis_cells(gs.kind, gs.dim)
    firsts = [c[0][:2] for c in cells]
    out = []
    for g, g_inv in zip(gs.generators, gs.inverses):
        g_cols = list(zip(*g.rows))
        columns = []
        for b in cells:
            column = [0] * len(firsts)
            for i, j, v in b:
                g_i, g_inv_j = g_cols[i], g_inv.rows[j]
                column = [x + v * g_i[r] * g_inv_j[c] for x, (r, c) in zip(column, firsts)]
            columns.append(column)
        out.append(Matrix(list(zip(*columns))))
    return out


def _sample_word(gs: GeneratorSet, index: int, length: int, rng: Random, trail) -> Matrix:
    letters = random_word_letters(gs, length, rng)
    trail.append({"step": "sample_word", "word": index, "length": length,
                  "letters": list(letters)})
    return word_from_letters(gs, letters)


def _irreducible(mats: Sequence[Matrix], dim: int, rng: Random, step: str, trail) -> bool:
    result = is_irreducible_algebra(mats, dim, rng)
    trail.append({"step": step, "irreducible": result.irreducible,
                  "algebra_dimension": result.algebra_dimension})
    return result.irreducible


def zariski_dense(
    gs: GeneratorSet,
    eps,
    rng: Random,
    word_constant=DEFAULT_WORD_CONSTANT,
    prime_range: tuple[int, int] = DEFAULT_PRIME_RANGE,
) -> DensityVerdict:
    """Weyl-group route.

    Sample two random words; FALSE if they commute; both characteristic
    polynomials must carry the generic Galois group (S_n for SL, the signed
    permutations for Sp), each certified with half the error budget; in
    dimension 2 the certified words must additionally have non-cyclotomic
    characteristic polynomial (infinite order); for Sp the standard action
    must be irreducible.  Any surviving input generates a dense subgroup.
    """
    eps = as_epsilon(eps)
    trail: list[dict] = []

    def verdict(dense: bool, certainty: Certainty = Certainty.CERTAIN) -> DensityVerdict:
        return DensityVerdict(dense, certainty, eps, tuple(trail))

    if gs.dim == 1:
        # SL(1) is the trivial group: every subgroup is all of it.
        trail.append({"step": "trivial_group", "dense": True})
        return verdict(True)
    n = word_length(eps, word_constant)
    w1, w2 = (_sample_word(gs, index, n, rng, trail) for index in (1, 2))
    commuting = commutes(w1, w2)
    trail.append({"step": "commutation_check", "commute": commuting})
    if commuting:
        return verdict(False, Certainty.MONTE_CARLO)
    certify = is_sn if gs.kind is GroupKind.SPECIAL_LINEAR else is_hyperoctahedral
    for index, w in ((1, w1), (2, w2)):
        f = characteristic_polynomial(w)
        galois = certify(f, eps / 2, rng, prime_range)
        trail.append(
            {
                "step": "galois_certificate",
                "word": index,
                "charpoly": list(f.coeffs),
                "verdict": galois.to_json(),
            }
        )
        if not galois.confirmed:
            return verdict(False, Certainty.MONTE_CARLO)
        if gs.dim == 2:
            # An abelian Weyl group cannot rule out finite order by itself.
            cyclotomic = is_cyclotomic_product(f)
            trail.append(
                {"step": "finite_order_guard", "word": index, "cyclotomic": cyclotomic}
            )
            if cyclotomic:
                return verdict(False, Certainty.MONTE_CARLO)
    if gs.kind is GroupKind.SYMPLECTIC and not _irreducible(
        gs.generators, gs.dim, rng, "standard_rep_irreducibility", trail
    ):
        # A reducible action can never be dense: this NO is structural.
        return verdict(False)
    return verdict(True)


def general_zariski_dense(
    gs: GeneratorSet,
    eps,
    rng: Random,
    word_constant=DEFAULT_WORD_CONSTANT,
) -> DensityVerdict:
    """Adjoint route: FALSE on a cyclotomic-product characteristic polynomial
    of one random word (finite-order suspicion, Monte Carlo), else TRUE iff
    the adjoint action on the Lie algebra is irreducible.

    The cyclotomic gate can misfire on unipotent words of infinite order
    (charpoly (x-1)^n); that stays within the one-sided contract and the
    witness is surfaced in the trail.
    """
    eps = as_epsilon(eps)
    trail: list[dict] = []

    def verdict(dense: bool, certainty: Certainty = Certainty.CERTAIN) -> DensityVerdict:
        return DensityVerdict(dense, certainty, eps, tuple(trail))

    if gs.dim == 1:
        trail.append({"step": "trivial_group", "dense": True})
        return verdict(True)
    w = _sample_word(gs, 1, word_length(eps, word_constant), rng, trail)
    f = characteristic_polynomial(w)
    cyclotomic = is_cyclotomic_product(f)
    trail.append(
        {"step": "cyclotomic_check", "charpoly": list(f.coeffs), "cyclotomic": cyclotomic}
    )
    if cyclotomic:
        return verdict(False, Certainty.MONTE_CARLO)
    mats = adjoint_matrices(gs)  # validate gives at least one generator
    return verdict(_irreducible(mats, mats[0].dim, rng, "adjoint_irreducibility", trail))
