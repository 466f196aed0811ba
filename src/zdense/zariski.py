"""Zariski-density deciders for subgroups of SL(n,Z) and Sp(2n,Z).

Two routes: the Weyl-group route (a random word, and a second only when it
fails, whose characteristic polynomial carries the generic Galois group of
the ambient group, then one exact commutator per generator: does the
generator normalize the word's torus?) and the adjoint route (Ad(G)
irreducible over Q on the Lie algebra, which alone decides density).
Every TRUE answer is certain, and so is every adjoint answer and every
Weyl FALSE after a certified word; a Weyl FALSE with no certified word is
Monte Carlo.  DensityVerdict states its bound.
The Burnside check, which the adjoint route and is_irreducible_algebra run
and the Weyl route does not, draws one prime p per round.  Norton's test
mod p proves YES with O(d^3) work and no exact product.  In the adjoint
route's gate a Norton spin that stops short proves NO as well: its
subspace mod p is lifted to Q by rational reconstruction and checked
exactly, one mat-vec per generator and basis vector, and the report
records its integer basis.  When no attempt answers, the walk at the same
p reduces each product once mod p and answers YES as soon as the rank is
full.  A walk
that ends short of it proves NO by lifting its own mod-p dependencies:
each product it did not keep is rebuilt exactly from the kept ones, by
rational reconstruction (and CRT over further primes when one is not
enough) and one exact check.  is_irreducible_algebra, which promises the
algebra dimension, takes no NO from Norton's test.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterator, Sequence

from . import kernels
from .galois import DEFAULT_PRIME_RANGE, Certainty, _log_inv, as_epsilon
from .galois import is_hyperoctahedral, is_sn
from .matrices import (
    GeneratorSet,
    GroupKind,
    Matrix,
    characteristic_polynomial,
    commutes,
    j_times,
    multiply,
    random_word_letters,
    word_from_letters,
)
from .modular import is_prime, random_prime_avoiding

DEFAULT_WORD_CONSTANT = Fraction(10)
_RANK_PRIME_RANGE = (1 << 30, 1 << 31)
_NORTON_ATTEMPTS = 6


@dataclass(frozen=True)
class DensityVerdict:
    """dense=True is always Certain, and so is every adjoint-route answer
    (see general_zariski_dense) and every Weyl answer after a certified
    word, whose `normalizer_test` step one exact commutator per generator
    re-checks (see zariski_dense).  A Weyl dense=False with no certified
    word is Monte Carlo, meant to be wrong with probability at most
    epsilon, but the Galois transitivity stage does not meet that bound
    everywhere (see the README).  The trail records every step for
    reproduction.  A certain NO from the adjoint route's irreducibility
    gate records either the algebra dimension or, when Norton's test
    answered, `invariant_subspace`: integer rows spanning a proper nonzero
    subspace of Q^d that every generator keeps, which the report alone
    lets anyone re-check."""

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
    """Outcome of is_irreducible_algebra; both answers are exact."""

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


def _charpoly_mod(a: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial mod p of a square matrix with entries in
    [0, p), constant term first, in O(d^3): a similarity to upper
    Hessenberg form H, then the recurrence over H's leading minors."""
    h = [row[:] for row in a]
    n = len(h)
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        k = j + 1
        if piv != k:  # conjugate by the transposition (piv k)
            h[piv], h[k] = h[k], h[piv]
            for row in h:
                row[piv], row[k] = row[k], row[piv]
        inv = pow(h[k][j], -1, p)
        us = [h[i][j] * inv % p for i in range(k + 1, n)]
        for i, u in enumerate(us, k + 1):  # row i -= u_i row k
            if u:
                h[i] = [(x - u * y) % p for x, y in zip(h[i], h[k])]
        if any(us):  # then column k += the sum of u_i column i
            for row in h:
                row[k] = (row[k] + sum(map(operator.mul, us, row[k + 1 :]))) % p
    # chi_k = (x - H[k-1][k-1]) chi_(k-1)
    #         - sum_i H[k-1-i][k-1] H[k-i][k-i-1] ... H[k-1][k-2] chi_(k-1-i)
    chis = [[1]]
    for k in range(1, n + 1):
        new = [0] + chis[-1]
        diag = h[k - 1][k - 1]
        for j, c in enumerate(chis[-1]):
            new[j] -= diag * c
        sub = 1
        for i in range(1, k):
            sub = sub * h[k - i][k - i - 1] % p
            if not sub:
                break
            c = h[k - 1 - i][k - 1] * sub % p
            for j, v in enumerate(chis[k - 1 - i]):
                new[j] -= c * v
        chis.append([v % p for v in new])
    return chis[-1]


def _rref_mod(rows: Sequence[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """The nonzero rows of the reduced row echelon form mod p of `rows`
    (entries in [0, p)), and their pivot columns, read off one recording
    RowEchelon fed the columns in order: the kept columns are the pivots,
    and row i holds at each other column its relation[i], its coefficient
    on pivot column i."""
    echelon = kernels.RowEchelon(p, len(rows), record=True)
    pivots, columns = [], []
    for j, col in enumerate(zip(*rows)):
        if echelon.add(col):
            columns.append([0] * len(pivots) + [1])
            pivots.append(j)
        else:
            columns.append(echelon.relation)
    padded = [c + [0] * (len(pivots) - len(c)) for c in columns]
    return [list(row) for row in zip(*padded)], pivots


def _kernel_mod(a: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """A basis of {v : a v = 0} mod p, read off the reduced echelon form:
    e_j - sum_i relation_i e_(pivot_i) for each non-pivot column j."""
    rows, pivots = _rref_mod(a, p)
    n = len(a[0])
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[free] = 1
        for row, col in zip(rows, pivots):
            v[col] = -row[free] % p
        basis.append(v)
    return basis


def _spin(v: list[int], gens: list[list[list[int]]], p: int) -> list[list[int]]:
    """A basis mod p of the smallest subspace that holds v and is closed
    under gens, or d independent vectors as soon as the spin has them: the
    vectors it kept, whose images go through one RowEchelon."""
    d = len(v)
    echelon = kernels.RowEchelon(p, d)
    echelon.add(v)
    kept = [v]
    for u in kept:  # kept grows while the spin reads it
        for g in gens:
            if len(kept) == d:
                return kept
            gu = [sum(map(operator.mul, row, u)) % p for row in g]
            if echelon.add(gu):
                kept.append(gu)
    return kept


def _norton(mats: Sequence[Matrix], dim: int, p: int, rng: Random,
            lift: bool = False) -> bool | list[list[int]] | None:
    """Norton's irreducibility test mod p, at most _NORTON_ATTEMPTS times.
    True proves that the unital algebra generated by `mats` is all of the
    dim x dim matrices over Q.  With lift=True, integer rows prove NO: they
    span a proper nonzero subspace of Q^dim that every matrix keeps.  None
    proves nothing.

    Each attempt takes theta = a random combination of the generators mod
    p plus one product of two of them, finds a root lambda of its
    characteristic polynomial in F_p, and goes on only if ker(theta -
    lambda) is a line, spanned by v; w spans ker((theta - lambda)^T).
    With lift=True a wider kernel goes on too, from each basis's first
    vector, but only to prove NO: the criterion needs a line.
    Norton's criterion: F_p^d is an irreducible module for the algebra
    A_p generated mod p iff v spins to all of it under the generators and
    w spins to all of it under their transposes.  (A proper submodule U
    either meets the line, so holds v, or theta - lambda maps U onto U,
    so the annihilator of U, a proper submodule for the transposes, holds
    w.)  Every endomorphism of the module commutes with theta, so it keeps
    the line and is a scalar on v, hence everywhere: End = F_p, and the
    module is absolutely irreducible.  By Burnside A_p is then all of
    M_d(F_p), so d^2 words in the generators are independent mod p, hence
    over Q: the YES is certain.

    A spin that stops short yields a proper submodule mod p: the span of
    v's spin, or else the annihilator of w's, which the generators keep
    because the transposes keep w's span.  Without lift the test stops
    there.  With it, _lift_invariant lifts that subspace to Q and checks
    it exactly; if the lift or the check fails, the next attempt runs.
    """
    gens = [[[x % p for x in row] for row in g.rows] for g in mats]
    gens_t = [[list(col) for col in zip(*g)] for g in gens]
    for _ in range(_NORTON_ATTEMPTS):
        left, right = gens[rng.randrange(len(gens))], gens_t[rng.randrange(len(gens))]
        theta = [[sum(map(operator.mul, row, col)) for col in right] for row in left]
        for g in gens:
            c = rng.randrange(p)
            theta = [[x + c * y for x, y in zip(t, r)] for t, r in zip(theta, g)]
        theta = [[x % p for x in row] for row in theta]
        root = kernels.find_root(_charpoly_mod(theta, p), p, rng)
        if root is None:
            continue
        for i, row in enumerate(theta):
            row[i] = (row[i] - root) % p
        line = _kernel_mod(theta, p)
        if len(line) != 1 and not lift:
            continue
        submodule = _spin(line[0], gens, p)
        if len(submodule) == dim:
            w = _kernel_mod(list(zip(*theta)), p)[0]
            spun = _spin(w, gens_t, p)
            if len(spun) == dim:
                if len(line) == 1:
                    return True
                continue
            submodule = _kernel_mod(spun, p)
        if not lift:
            return None
        subspace = _lift_invariant(submodule, mats, p)
        if subspace is not None:
            return subspace
    return None


def _lift_primes(avoid: int):
    """The primes below 2^31, downward from 2^31 - 1, except `avoid`."""
    q = (1 << 31) - 1
    while True:
        if q != avoid and is_prime(q):
            yield q
        q -= 2


def _lies_in_span(row: Sequence[int], den: int, nums: Sequence[int],
                  packed: Sequence[int], w: int) -> bool:
    """Is den * row the sum of nums[i] times kept row i, exactly?  packed[i]
    is kept row i by kernels.pack_signed at a width w whose slots hold every
    entry of the difference, so the packed difference is 0 iff every entry
    is; one big-int multiply-add per nonzero coefficient."""
    acc = -den * kernels.pack_signed(row, w)
    for n, k in zip(nums, packed):
        if n:
            acc += n * k
    return acc == 0


def _span_checks(kept: Sequence[Sequence[int]], claims: Sequence[tuple]) -> Iterator[bool]:
    """Yields for each claim (row, den, nums), in order: is den * row =
    sum_i nums[i] kept[i], exactly?  At the first one, each kept row is
    packed once, at one width whose slots hold every kept entry and every
    entry of every claim's difference; each claim is one _lies_in_span."""
    top = max(max(map(abs, k)) for k in kept)
    bound = max([top] + [den * max(map(abs, row)) + top * sum(map(abs, nums))
                         for row, den, nums in claims])
    w = kernels.slot_bits(bound.bit_length())  # bound < 2^(w - 1)
    packed = [kernels.pack_signed(k, w) for k in kept]
    for row, den, nums in claims:
        yield _lies_in_span(row, den, nums, packed, w)


def _lift_invariant(basis: Sequence[Sequence[int]], mats: Sequence[Matrix],
                    p: int) -> list[list[int]] | None:
    """Integer rows spanning a subspace of Q^d that every matrix of `mats`
    keeps, lifted from `basis`, which spans mod p a subspace they keep mod
    p; None when the lift or its exact check fails.

    Each row of the reduced echelon form of span(basis) mod p is rationally
    reconstructed mod p over its least common denominator den_i.  Row i
    then holds den_i at its pivot column and 0 at every other pivot
    column, so y lies in the rows' span over Q iff y = sum_i (y[pivot_i] /
    den_i) row_i; with L the lcm of the den_i, one packed check (by
    _span_checks) of L y = sum_i y[pivot_i] (L / den_i) row_i for each
    image y = g row, one exact mat-vec per generator g and row.  Distinct
    pivots make the rows independent over Q.
    """
    echelon, pivots = _rref_mod(basis, p)
    lifts = [kernels.rational_reconstruction(row, p) for row in echelon]
    if None in lifts:
        return None
    dens, rows = zip(*lifts)
    lcm = math.lcm(*dens)
    claims = []
    for g in mats:
        for row in rows:
            y = [sum(map(operator.mul, r, row)) for r in g.rows]
            claims.append((y, lcm, [y[c] * (lcm // den) for c, den in zip(pivots, dens)]))
    return list(rows) if all(_span_checks(rows, claims)) else None


def _closed_over_q(kept: Sequence[Sequence[int]], dependent: list, p: int) -> bool:
    """Does every row of `dependent` lie in span_Q(kept)?  Each comes as
    (row, its coefficients on `kept` mod p), and `kept` is independent
    mod p, hence over Q.

    Each coefficient is rationally reconstructed from its residue mod M
    (M = p at first), and each row is checked exactly: den * row = sum of
    num_i kept_i.  Rows that fail are solved again mod the next prime of
    _lift_primes at which `kept` is independent, and CRT folds the new
    residues into M.  A failing row independent of `kept` mod such a prime
    q lies outside span_Q(kept), since the Cramer denominators of a row in
    it, over a minor of `kept` that is nonzero mod q, are prime to q: the
    answer is False.

    The loop ends.  Let A = |row| prod |kept_i| (Euclidean norms).  A row
    dependent on `kept` mod every prime of M has all the minors of kept +
    [row] of full size divisible by M, and by Hadamard they are at most A,
    so once M > A they vanish and the row lies in the span.  Its Cramer
    numerators and denominators are at most A too, so once M > 2 A^2 they
    are within the reconstruction bound isqrt((M - 1) / 2), and the check
    passes.
    """
    modulus = p
    primes = _lift_primes(p)
    pending = [(row, rel + [0] * (len(kept) - len(rel))) for row, rel in dependent]
    while True:
        lifts = [kernels.rational_reconstruction(residues, modulus) for _, residues in pending]
        checks = _span_checks(kept, [(r, *lift) for (r, _), lift in zip(pending, lifts) if lift])
        failed = [pair for pair, lift in zip(pending, lifts) if lift is None or not next(checks)]
        if not failed:
            return True
        for q in primes:
            echelon = kernels.RowEchelon(q, len(kept[0]), record=True)
            if all(echelon.add(k) for k in kept):
                break
        pending = []
        for row, residues in failed:
            if echelon.add(row):
                return False
            pending.append((row, [kernels.crt(u, modulus, v, q)
                                  for u, v in zip(residues, echelon.relation)]))
        modulus *= q


def _walk(mats: Sequence[Matrix], dim: int, p: int) -> IrreducibilityResult | None:
    """The Burnside walk at the prime p: the exact algebra dimension, or
    None when p divided a minor (see is_irreducible_algebra).

    The RowEchelon records, for each product it does not keep, the
    product's coefficients on the kept elements mod p.  A walk that ends
    short of full rank answers NO, with the number kept as the dimension,
    iff _closed_over_q finds every such product in the span over Q of the
    kept elements: that span, closed under every generator and holding I,
    is then the algebra.  No kept element is checked, and each product
    not kept is checked once (again only if a further prime is needed)."""
    target = dim * dim
    echelon = kernels.RowEchelon(p, target, record=True)
    kept = [Matrix.identity(dim)]
    rows = [kept[0].flatten()]  # the kept elements, flattened
    dependent = []  # (product, its coefficients on rows mod p)
    echelon.add(rows[0])
    for b in kept:  # kept grows while the walk reads it
        for g in mats:
            if len(kept) == target:  # the last row kept filled the rank
                return IrreducibilityResult(True, target)
            m = multiply(g, b)
            row = m.flatten()
            if echelon.add(row):
                kept.append(m)
                rows.append(row)
            else:
                dependent.append((row, echelon.relation))
    if _closed_over_q(rows, dependent, p):
        # NO, but for dim = 1 and no generators, where I fills M_1
        return IrreducibilityResult(len(kept) == target, len(kept))
    return None


def is_irreducible_algebra(
    mats: Sequence[Matrix], dim: int, rng: Random | None = None
) -> IrreducibilityResult:
    """Does the unital algebra generated by `mats` fill all of the dim x dim
    matrices?  By Burnside, that is equivalent to the group acting
    irreducibly over C.

    Each round draws one random 31-bit prime p.  Norton's test mod p
    (_norton) proves YES when it succeeds; it is skipped for dim = 1, for
    no generators and for p = 2, where the walk answers alone.  Otherwise
    the walk (_walk) runs at the same p.  It walks one growing list K of
    kept elements, I first: each kept element is multiplied once by every
    generator, and each product is formed only to be reduced at once by
    the prime's one RowEchelon, seeded with I, and kept iff it is
    independent of K mod p.  The row that makes the rank full proves YES
    (I alone when dim = 1): full rank mod p certifies it over Q.

    Otherwise the walk ends with span(K) closed under the generators mod
    p, and the echelon has recorded each product it did not keep as a
    combination of K mod p.  _closed_over_q lifts those combinations and
    checks each product exactly.  If every one lies in span_Q(K), the NO is
    certain: K is independent mod p, so over Q; every product is in K or
    in span_Q(K), so span_Q(K) holds I and is closed under every
    generator; it is the algebra, of dimension len(K) < dim^2.  Otherwise
    some product lies outside span_Q(K), so p divided a minor, and the
    next round draws a fresh prime.  Both answers are certain.

    The adjoint route's gate (_irreducible) runs the same rounds, but there
    Norton's test also answers NO, by a lifted invariant subspace, and the
    walk runs only when no attempt answers.
    """
    return _rounds(mats, dim, Random(0x5EED) if rng is None else rng, lift=False)


def _rounds(mats: Sequence[Matrix], dim: int, rng: Random,
            lift: bool) -> IrreducibilityResult | list[list[int]]:
    """The rounds of is_irreducible_algebra.  With lift=True Norton's test
    may also answer NO, by the integer rows of an invariant subspace (see
    _norton), and then the walk does not run."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    if any(g.dim != dim for g in mats):
        raise ValueError(f"dimension mismatch: every generator must be {dim} x {dim}")
    while True:
        p = random_prime_avoiding(1, _RANK_PRIME_RANGE[0], _RANK_PRIME_RANGE[1], rng)
        if dim > 1 and mats and p > 2:
            answer = _norton(mats, dim, p, rng, lift)
            if answer is True:
                return IrreducibilityResult(True, dim * dim)
            if answer is not None:
                return answer
        result = _walk(mats, dim, p)
        if result is not None:
            return result


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


def _irreducible(mats: Sequence[Matrix], dim: int, rng: Random, trail) -> bool:
    """The adjoint route's Burnside gate: the rounds of
    is_irreducible_algebra, recorded as its `adjoint_irreducibility` step,
    where a NO from Norton's test records its lifted invariant subspace in
    place of the algebra dimension.  Either NO is certain."""
    result = _rounds(mats, dim, rng, lift=True)
    evidence = ({"irreducible": result.irreducible, "algebra_dimension": result.algebra_dimension}
                if isinstance(result, IrreducibilityResult)
                else {"irreducible": False, "invariant_subspace": result})
    trail.append({"step": "adjoint_irreducibility", **evidence})
    return evidence["irreducible"]


def _normalizer_test(gs: GeneratorSet, x: Matrix) -> int | None:
    """The index of the first generator g with [g X g^-1, X] != 0, or None
    when every generator's conjugate of X commutes with X: one exact n x n
    commutator per generator, with g^-1 from gs.inverses."""
    for index, (g, g_inv) in enumerate(zip(gs.generators, gs.inverses)):
        if not commutes(multiply(multiply(g, x), g_inv), x):
            return index
    return None


def zariski_dense(
    gs: GeneratorSet,
    eps,
    rng: Random,
    word_constant=DEFAULT_WORD_CONSTANT,
    prime_range: tuple[int, int] = DEFAULT_PRIME_RANGE,
) -> DensityVerdict:
    """Weyl-group route: one certified word decides, for certain.

    Sample a random word and certify its characteristic polynomial at eps/2
    (S_n on SL, the signed permutations C_2 wr S_m on Sp(2m)).  A second
    word is sampled only when the first fails, and the trail then records
    whether the two commute, a step that decides nothing.  The first
    certified word w runs the normalizer test; in dimension 2 it must also
    have |tr w| > 2, since an abelian Weyl group cannot rule out finite
    order.  When neither word qualifies, the NO is Monte Carlo.

    Such a w has infinite order and is regular semisimple; its Galois group
    acts irreducibly on the characters of its centralizer T, a maximal
    torus, so the Zariski closure of <w> is T, and the Lie algebra h of G's
    closure is t plus a Galois-stable closed set of root spaces.  On SL(n)
    S_n is transitive on the roots, so h = t or h = sl_n, and g normalizes
    T iff g w g^-1 commutes with w.  On Sp(2m), m >= 2, h is t, the long
    roots sp(V_1) + ... + sp(V_m), or sp_2m, where the V_i are the
    eigenplanes of c = w + w^-1 = w - J w^T J; g permutes the V_i iff
    g c g^-1 commutes with c.  So one generator whose conjugate of X (c on
    Sp(2m) with m >= 2, w otherwise) does not commute with X proves G
    dense, and when every generator's does, G lies in N(T), or in
    Sp(2)^m x| S_m, and is not dense (Borel, Linear Algebraic Groups,
    secs. 8 and 13-14; Prasad-Rapinchuk 2014).  The `normalizer_test`
    step names the word, the tested matrix ("w" or "c") and, for a YES,
    the generator.
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
    symplectic = gs.kind is GroupKind.SYMPLECTIC
    certify = is_hyperoctahedral if symplectic else is_sn
    for index in (1, 2):
        letters = random_word_letters(gs, n, rng)
        trail.append({"step": "sample_word", "word": index, "length": n,
                      "letters": list(letters)})
        w = word_from_letters(gs, letters)
        if index == 2:
            trail.append({"step": "commutation_check", "commute": commutes(previous, w)})
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
        if galois.confirmed and (gs.dim > 2 or abs(w.rows[0][0] + w.rows[1][1]) > 2):
            if symplectic and gs.dim > 2:
                # c = w - J w^T J = w + J (J w)^T, and J permutes rows: no product
                rest = j_times(j_times(w).transpose())
                tested, x = "c", Matrix([map(operator.add, *rows)
                                         for rows in zip(w.rows, rest.rows)])
            else:
                tested, x = "w", w
            generator = _normalizer_test(gs, x)
            trail.append({"step": "normalizer_test", "word": index, "tested": tested,
                          "generator": generator})
            return verdict(generator is not None)
        previous = w
    return verdict(False, Certainty.MONTE_CARLO)


def general_zariski_dense(gs: GeneratorSet, eps, rng: Random) -> DensityVerdict:
    """Adjoint route: TRUE iff Ad(G) acts irreducibly over Q on the Lie
    algebra g of the ambient group, by the Burnside gate; both answers are
    certain, and eps is only recorded.

    The Lie algebra h of G's Zariski closure is a Q-subspace of g that
    Ad(G) keeps, so an irreducible Ad(G) has h = g (G is dense) or h = 0
    (G is finite).  A finite G keeps the positive-definite S = sum g^T g,
    and then Ad(G) keeps a proper nonzero subspace: {X : S X symmetric}
    in sl_n, the line of J^-1 S in sp_2n.  So Ad(G) is irreducible iff G
    is dense (Borel, Linear Algebraic Groups, sec. 7); the gate's Norton
    YES, lifted invariant subspace or algebra dimension below d^2 each
    settle density.
    """
    eps = as_epsilon(eps)
    if gs.dim == 1:
        trivial = {"step": "trivial_group", "dense": True}
        return DensityVerdict(True, Certainty.CERTAIN, eps, (trivial,))
    trail: list[dict] = []
    mats = adjoint_matrices(gs)  # validate gives at least one generator
    dense = _irreducible(mats, mats[0].dim, rng, trail)
    return DensityVerdict(dense, Certainty.CERTAIN, eps, tuple(trail))
