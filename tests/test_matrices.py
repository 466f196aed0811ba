from fractions import Fraction
from random import Random

import pytest

from zdense import kernels, matrices
from zdense.matrices import (
    GroupKind,
    Matrix,
    adjugate_inverse,
    characteristic_polynomial,
    commutes,
    multiply,
    random_word,
    random_word_letters,
    symplectic_form,
    validate,
    word_from_letters,
)
from zdense.polynomials import IntPoly, is_reciprocal

from conftest import random_unimodular

I2 = Matrix.identity(2)
S = Matrix([[0, -1], [1, 0]])
T = Matrix([[1, 1], [0, 1]])


def test_matrix_construction_rejects_nonsquare():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError):
        Matrix([])


@pytest.mark.parametrize("entry", [1.9, Fraction(3, 2), "7", 2.0])
def test_matrix_construction_rejects_non_integer_entries(entry):
    # int() would turn these into 1, 1, 7 and 2 without a word
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        Matrix([[entry, 0], [0, 1]])
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        validate(GroupKind.SPECIAL_LINEAR, 2, [Matrix([[1.9, 0.5], [0, 1]])])
    assert Matrix([[True, 0], [-(1 << 70), 1]]).rows == ((1, 0), (-(1 << 70), 1))


def test_multiply_examples():
    assert multiply(I2, I2) == I2
    assert multiply(T, Matrix([[1, 0], [1, 1]])) == Matrix([[2, 1], [1, 1]])
    with pytest.raises(ValueError):
        multiply(I2, Matrix.identity(3))


def assert_canonical(m, rows):
    """m is the Matrix that validation would build from `rows`."""
    assert m == Matrix(rows) and hash(m) == hash(Matrix(rows))
    assert type(m.rows) is tuple and all(type(row) is tuple for row in m.rows)
    assert all(type(v) is int for row in m.rows for v in row)


def _entries(n, rng, kind):
    if kind == "dense":
        draw = lambda: rng.randrange(-99, 100)
    elif kind == "sparse":
        draw = lambda: rng.randrange(-99, 100) if rng.random() < 0.1 else 0
    else:  # "big": beyond 2^64, either sign
        draw = lambda: rng.choice((-1, 1)) * rng.randrange(1 << 64, 1 << 90)
    rows = [[draw() for _ in range(n)] for _ in range(n)]
    if n > 1:  # an all-zero row and an all-zero column
        rows[rng.randrange(n)] = [0] * n
        col = rng.randrange(n)
        for row in rows:
            row[col] = 0
    return rows


@pytest.mark.parametrize("kind", ["dense", "sparse", "big"])
def test_multiply_matches_naive_triple_loop(kind):
    rng = Random(f"multiply-{kind}")
    for n in range(1, 31):
        a, b = _entries(n, rng, kind), _entries(n, rng, kind)
        naive = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
        assert_canonical(multiply(Matrix(a), Matrix(b)), naive)
        with pytest.raises(ValueError):
            multiply(Matrix(a), Matrix.identity(n + 1))


def test_adjugate_inverse_is_canonical():
    rng = Random(5)
    for dim in range(1, 7):
        a = random_unimodular(dim, rng)
        inv = adjugate_inverse(a)
        assert_canonical(inv, inv.rows)
        assert multiply(a, inv) == Matrix.identity(dim)


def test_multiply_inverse_roundtrip():
    rng = Random(3)
    for _ in range(25):
        dim = rng.randrange(1, 5)
        a = random_unimodular(dim, rng)
        assert multiply(a, adjugate_inverse(a)) == Matrix.identity(dim)


def test_adjugate_inverse_examples():
    assert adjugate_inverse(I2) == I2
    assert adjugate_inverse(T) == Matrix([[1, -1], [0, 1]])
    assert adjugate_inverse(Matrix([[2, 1], [1, 1]])) == Matrix([[1, -1], [-1, 2]])
    with pytest.raises(ValueError):
        adjugate_inverse(Matrix([[2, 0], [0, 1]]))  # det 2


def test_adjugate_inverse_two_sided():
    rng = Random(14)
    for _ in range(20):
        dim = rng.randrange(1, 6)
        a = random_unimodular(dim, rng)
        inv = adjugate_inverse(a)
        ident = Matrix.identity(dim)
        assert multiply(a, inv) == ident
        assert multiply(inv, a) == ident


def _cayley_hamilton_inverse(a: Matrix) -> Matrix:
    # Cayley-Hamilton, an O(dim^4) reference that shares no code with the
    # elimination: A (A^(n-1) + c_(n-1) A^(n-2) + ... + c_1 I) = -c_0 I,
    # and -c_0 = (-1)^(n+1) det A
    n = a.dim
    p = characteristic_polynomial(a)
    det = (-1) ** n * p[0]
    if det != 1:
        raise ValueError(f"adjugate inverse needs det = 1, got {det}")
    acc = Matrix.identity(n)
    for i in range(n - 1, 0, -1):
        rows = [list(row) for row in multiply(a, acc).rows]
        for r in range(n):
            rows[r][r] += p[i]
        acc = Matrix(rows)
    return acc if n % 2 else Matrix([[-v for v in row] for row in acc.rows])


def _leading_zero(a: Matrix) -> Matrix:
    """a with a row whose first entry is 0 moved to the top, the other row
    negated so that det is kept; a itself if no such row exists."""
    rows = [list(row) for row in a.rows]
    k = next((k for k, row in enumerate(rows) if row[0] == 0), None)
    if k is None or k == 0:
        return a
    rows[0], rows[k] = rows[k], [-v for v in rows[0]]
    return Matrix(rows)


def _scaled_row(a: Matrix, factor: int, rng: Random) -> Matrix:
    """a with one row times factor: det becomes factor * det a."""
    rows = [list(row) for row in a.rows]
    k = rng.randrange(a.dim)
    rows[k] = [factor * v for v in rows[k]]
    return Matrix(rows)


def _error(fn, a):
    with pytest.raises(ValueError) as exc:
        fn(a)
    return str(exc.value)


def test_adjugate_inverse_matches_cayley_hamilton_oracle():
    rng = Random(2026)
    swapped = 0
    for n in range(1, 13):
        for _ in range(6):
            a = random_unimodular(n, rng, steps=3 * n)
            for b in (a, _leading_zero(a)):
                swapped += b.rows[0][0] == 0
                assert_canonical(adjugate_inverse(b), _cayley_hamilton_inverse(b).rows)
            for factor in (0, -1, 2):
                bad = _scaled_row(a, factor, rng)
                message = _error(adjugate_inverse, bad)
                assert message == _error(_cayley_hamilton_inverse, bad)
                assert message == f"adjugate inverse needs det = 1, got {factor}"
    assert swapped >= 30  # a zero first pivot forces a row swap
    # the second pivot is 0 only after the first elimination step
    a = Matrix([[1, 1, 0], [1, 1, 1], [0, 1, 0]])  # det -1
    assert _error(adjugate_inverse, a) == _error(_cayley_hamilton_inverse, a)
    b = Matrix([[1, 1, 0], [1, 1, -1], [0, 1, 0]])  # det 1
    assert adjugate_inverse(b) == _cayley_hamilton_inverse(b)


def test_validate_computes_no_charpoly(monkeypatch, sp4):
    # exact inverses cost O(dim^3): validation never needs a charpoly
    rng = Random(12)
    g = random_unimodular(12, rng, steps=36)
    g_inv = adjugate_inverse(g)
    heisenberg = []
    for i in range(11):  # g (I + E_(i,i+1)) g^-1
        rows = [[int(r == c) for c in range(12)] for r in range(12)]
        rows[i][i + 1] = 1
        heisenberg.append(multiply(multiply(g, Matrix(rows)), g_inv))
    calls = []

    def counted(a):
        calls.append(a)
        return characteristic_polynomial(a)

    monkeypatch.setattr(matrices, "characteristic_polynomial", counted)
    for kind, dim, gens in (
        (GroupKind.SPECIAL_LINEAR, 12, heisenberg),
        (GroupKind.SYMPLECTIC, 4, sp4.generators),
    ):
        gs = validate(kind, dim, gens)
        assert all(multiply(x, y) == Matrix.identity(dim)
                   for x, y in zip(gs.generators, gs.inverses))
    assert calls == []


def test_charpoly_examples():
    assert characteristic_polynomial(I2) == IntPoly([1, -2, 1])
    # companion matrix of x^3 - 2x + 5
    companion = Matrix([[0, 0, -5], [1, 0, 2], [0, 1, 0]])
    assert characteristic_polynomial(companion) == IntPoly([5, -2, 0, 1])
    assert characteristic_polynomial(Matrix([[2, 1], [1, 1]])) == IntPoly([1, -3, 1])
    assert characteristic_polynomial(Matrix([[7]])) == IntPoly([-7, 1])


def _charpoly_cofactor(a: Matrix) -> IntPoly:
    # det(xI - A) by cofactor expansion over polynomial entries
    n = a.dim
    x = IntPoly.monomial(1)
    grid = [
        [x - IntPoly([a.rows[i][j]]) if i == j else IntPoly([-a.rows[i][j]]) for j in range(n)]
        for i in range(n)
    ]

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = IntPoly()
        for j, cell in enumerate(rows[0]):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = cell * det(minor)
            total = total + (term if j % 2 == 0 else -term)
        return total

    return det(grid)


def test_charpoly_matches_cofactor_oracle():
    rng = Random(2020)
    for _ in range(60):
        dim = rng.randrange(1, 6)
        a = Matrix([[rng.randrange(-9, 10) for _ in range(dim)] for _ in range(dim)])
        assert characteristic_polynomial(a) == _charpoly_cofactor(a)


def _berkowitz_reference(a: Matrix) -> IntPoly:
    # the row-reading Berkowitz iteration that characteristic_polynomial
    # replaced, kept as an oracle
    n = a.dim
    rows = a.rows
    p = [1, -rows[0][0]]
    for k in range(1, n):
        akk = rows[k][k]
        left = rows[k][:k]
        above = [rows[i][k] for i in range(k)]
        toep = [1, -akk]
        v = list(left)
        for _ in range(k):
            toep.append(-sum(x * y for x, y in zip(v, above)))
            v = [sum(v[i] * rows[i][j] for i in range(k)) for j in range(k)]
        p = [
            sum(toep[i - j] * p[j] for j in range(max(0, i - k - 1), min(i, k) + 1))
            for i in range(k + 2)
        ]
    return IntPoly(list(reversed(p)))


def _fraction_det(a: Matrix) -> Fraction:
    rows = [[Fraction(v) for v in row] for row in a.rows]
    n, det = a.dim, Fraction(1)
    for k in range(n):
        r = next((r for r in range(k, n) if rows[r][k]), None)
        if r is None:
            return Fraction(0)
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, n):
            c = rows[i][k] / rows[k][k]
            if c:
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[k])]
    return det


def _seeded_charpoly_inputs():
    """Matrices of size 1..24 with 1- to 200-bit entries, each also with a
    zero diagonal and with a zero column."""
    rng = Random(2036)
    for n in range(1, 25):
        for shape in ("dense", "zero diagonal", "zero column"):
            bits = rng.choice((1, 2, 8, 31, 64, 200))
            rows = [[rng.randrange(-(1 << bits), 1 << bits) for _ in range(n)] for _ in range(n)]
            if shape == "zero diagonal":
                for i in range(n):
                    rows[i][i] = 0
            elif shape == "zero column":
                j = rng.randrange(n)
                for row in rows:
                    row[j] = 0
            yield shape, Matrix(rows)


def test_charpoly_oracle_cayley_hamilton_trace_det_and_reference():
    for shape, a in _seeded_charpoly_inputs():
        n = a.dim
        f = characteristic_polynomial(a)
        assert f.degree == n and f[n] == 1, (shape, n)
        assert f == _berkowitz_reference(a), (shape, n)
        assert -f[n - 1] == sum(a.rows[i][i] for i in range(n)), (shape, n)
        assert (-1) ** n * f[0] == _fraction_det(a), (shape, n)
        if shape == "zero column":
            assert f[0] == 0
        # Cayley-Hamilton by Horner: f(A) = (...(A + f_(n-1)) A + ...) + f_0 = 0
        acc = Matrix.identity(n)
        for i in range(n - 1, -1, -1):
            rows = [list(row) for row in multiply(acc, a).rows]
            for r in range(n):
                rows[r][r] += f[i]
            acc = Matrix(rows)
        assert all(v == 0 for row in acc.rows for v in row), (shape, n)


def test_validate_sl2():
    gs = validate(GroupKind.SPECIAL_LINEAR, 2, [S, T])
    assert gs.norm_bound == 2  # frobenius of both is sqrt(2)..sqrt(3)
    assert len(gs.inverses) == 2
    assert multiply(gs.generators[0], gs.inverses[0]) == I2


def test_validate_rejects():
    with pytest.raises(ValueError):
        validate(GroupKind.SPECIAL_LINEAR, 2, [])
    with pytest.raises(ValueError):
        validate(GroupKind.SPECIAL_LINEAR, 2, [Matrix([[2, 0], [0, 1]])])
    with pytest.raises(ValueError):
        validate(GroupKind.SYMPLECTIC, 3, [Matrix.identity(3)])
    with pytest.raises(ValueError):
        validate(GroupKind.SPECIAL_LINEAR, 3, [S])  # wrong size
    with pytest.raises(ValueError, match="dimension must be positive"):
        validate(GroupKind.SPECIAL_LINEAR, 0, [S])


def test_validate_checks_sizes_before_building_the_form(monkeypatch):
    # a wrong-size generator is rejected before J is built for the declared dim
    def no_form(dim):
        raise AssertionError(f"symplectic_form({dim}) built before the size check")

    monkeypatch.setattr(matrices, "symplectic_form", no_form)
    with pytest.raises(ValueError, match="generator 0 has size 2, expected 4000"):
        validate(GroupKind.SYMPLECTIC, 4000, [I2])
    with pytest.raises(ValueError, match="generator 1 has size 2, expected 4"):
        validate(GroupKind.SYMPLECTIC, 4, [Matrix.identity(4), I2])


def test_validate_checks_the_form_with_one_product_per_generator(monkeypatch, sp4):
    # J g is a signed permutation of g's rows: g^T (J g) is the one product
    calls = []

    def counted(a, b):
        calls.append(1)
        return multiply(a, b)

    monkeypatch.setattr(matrices, "multiply", counted)
    validate(GroupKind.SYMPLECTIC, 4, sp4.generators)
    assert len(calls) == len(sp4.generators)


def test_j_times_is_the_product_with_the_form():
    rng = Random(29)
    for dim in (2, 4, 6, 10):
        x = Matrix([[rng.randrange(-9, 10) for _ in range(dim)] for _ in range(dim)])
        assert matrices.j_times(x) == multiply(symplectic_form(dim), x)


def test_validate_symplectic_blocks():
    # I + E_13 is [[I, S], [0, I]] with S = E_11 symmetric: allowed
    good = Matrix([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    gs = validate(GroupKind.SYMPLECTIC, 4, [good])
    assert gs.dim == 4
    # I + E_14 has S = E_12 which is not symmetric: rejected
    bad = Matrix([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError):
        validate(GroupKind.SYMPLECTIC, 4, [bad])


def test_symplectic_form_shape():
    j = symplectic_form(4)
    assert j.rows[0][2] == 1 and j.rows[2][0] == -1
    assert characteristic_polynomial(j)[0] == 1  # det J, dimension even


def test_random_word_identity_generator():
    gs = validate(GroupKind.SPECIAL_LINEAR, 2, [I2])
    assert random_word(gs, 5, Random(0)) == I2


def test_random_word_determinism():
    gs = validate(GroupKind.SPECIAL_LINEAR, 2, [S, T])
    assert random_word(gs, 30, Random(9)) == random_word(gs, 30, Random(9))
    letters = random_word_letters(gs, 30, Random(9))
    assert word_from_letters(gs, letters) == random_word(gs, 30, Random(9))


def test_random_word_single_generator_length_two():
    gs = validate(GroupKind.SPECIAL_LINEAR, 2, [T])
    t2 = multiply(T, T)
    t_inv = adjugate_inverse(T)
    options = {t2, I2, multiply(t_inv, t_inv)}
    for seed in range(12):
        assert random_word(gs, 2, Random(seed)) in options
    with pytest.raises(ValueError):
        random_word(gs, 0, Random(0))


def test_random_word_det_and_growth(sl2, sp4):
    rng = Random(4)
    for gs in (sl2, sp4):
        for length in (1, 5, 20):
            w = random_word(gs, length, rng)
            assert characteristic_polynomial(w)[0] == 1  # det w, dimension even
            bound = (gs.dim * gs.norm_bound) ** length
            assert max(abs(v) for v in w.flatten()) <= bound


def test_symplectic_word_charpoly_reciprocal(sp4):
    rng = Random(8)
    for _ in range(20):
        w = random_word(sp4, rng.randrange(1, 25), rng)
        assert is_reciprocal(characteristic_polynomial(w))


def _left_fold(gs, letters):
    """The word by one `multiply` per letter, from the identity."""
    acc = Matrix.identity(gs.dim)
    for letter in letters:
        acc = multiply(acc, gs.alphabet[letter])
    return acc


def _unit(n, cells):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, v in cells:
        rows[i][j] += v
    return rows


def _sl_letter(n, rng, c):
    """g (I + c e_ij) g^-1 for a random unimodular g: det 1, and entries
    of either sign in every row once g mixes them."""
    g = random_unimodular(n, rng, steps=8 * n)
    i, j = rng.sample(range(n), 2)
    return multiply(multiply(g, Matrix(_unit(n, [(i, j, c)]))), adjugate_inverse(g))


def _sp_letter(m, rng, c):
    """A product of symplectic root elements for J = [[0, I], [-I, 0]],
    one of them with parameter c and the others in {-2, -1, 1, 2}."""
    acc = Matrix.identity(2 * m)
    for step in range(2 * m + 2):
        x = c if step == m else rng.choice((-2, -1, 1, 2))
        a, b = rng.randrange(m), rng.randrange(m)
        kind = rng.randrange(3)
        if kind == 0 and a != b:  # diag(I + x e_ab, (I + x e_ab)^-T)
            cells = [(a, b, x), (m + b, m + a, -x)]
        elif kind == 1:  # [[I, S], [0, I]], S symmetric
            cells = [(a, m + b, x)] + ([(b, m + a, x)] if a != b else [])
        else:  # [[I, 0], [S, I]], S symmetric
            cells = [(m + a, b, x)] + ([(m + b, a, x)] if a != b else [])
        acc = multiply(acc, Matrix(_unit(2 * m, cells)))
    return acc


def _word_alphabets(rng):
    """(GeneratorSet, lengths): SL(1..12) and Sp(2..10) with small entries,
    and a few with 200-bit entries, whose words widen their slots again and
    again."""
    big = lambda: rng.choice((-1, 1)) * rng.randrange(1 << 199, 1 << 200)
    small = lambda: rng.choice((-2, -1, 1, 2))
    out = [(validate(GroupKind.SPECIAL_LINEAR, 1, [Matrix([[1]])]), (0, 1, 300))]
    for n in range(2, 13):
        gens = [_sl_letter(n, rng, small()) for _ in range(2)]
        out.append((validate(GroupKind.SPECIAL_LINEAR, n, gens), (0, 1, 2, 40, 300)))
    for m in range(1, 6):
        gens = [_sp_letter(m, rng, small()) for _ in range(3)]
        out.append((validate(GroupKind.SYMPLECTIC, 2 * m, gens), (0, 1, 2, 40, 300)))
    for n, lengths in ((2, (1, 2, 300)), (5, (1, 60)), (12, (1, 30))):
        gens = [_sl_letter(n, rng, big()) for _ in range(2)]
        out.append((validate(GroupKind.SPECIAL_LINEAR, n, gens), lengths))
    gens = [_sp_letter(3, rng, big()) for _ in range(2)]
    out.append((validate(GroupKind.SYMPLECTIC, 6, gens), (1, 60)))
    return out


def test_word_fold_matches_multiply_oracle(monkeypatch):
    widths = []  # the slot width of every decode: each repack, then the last
    unpack = kernels.unpack_signed
    monkeypatch.setattr(kernels, "unpack_signed",
                        lambda v, n, w: widths.append(w) or unpack(v, n, w))
    rng = Random("word-fold")
    for gs, lengths in _word_alphabets(rng):
        big = max(abs(v) for g in gs.generators for v in g.flatten()).bit_length() >= 199
        negative_rows = set()  # the slots that held a negative entry
        for length in lengths:  # the empty word included, which is I
            letters = [rng.randrange(len(gs.alphabet)) for _ in range(length)]
            expected = _left_fold(gs, letters)
            widths.clear()
            assert_canonical(word_from_letters(gs, letters), expected.rows)
            negative_rows.update(i for i, row in enumerate(expected.rows) if min(row) < 0)
            if big and length >= 30:  # 200-bit letters outgrow the first slots
                assert widths[-1] > widths[0]
        assert len(negative_rows) == gs.dim - (gs.dim == 1)


def test_words_form_no_pairwise_products(monkeypatch, sl2, sp4):
    # a word is one packed fold: none of its letters goes through `multiply`
    calls = []

    def counted(a, b):
        calls.append(1)
        return multiply(a, b)

    monkeypatch.setattr(matrices, "multiply", counted)
    for gs in (sl2, sp4):
        letters = random_word_letters(gs, 139, Random(gs.dim))
        word_from_letters(gs, letters)
        random_word(gs, 139, Random(gs.dim))
    assert calls == []
    Matrix.identity(2) * S  # the counter does see a product
    assert calls == [1]


def test_commutes():
    assert commutes(I2, S)
    assert commutes(T, Matrix([[1, 2], [0, 1]]))
    assert not commutes(T, Matrix([[1, 0], [1, 1]]))
    with pytest.raises(ValueError):
        commutes(I2, Matrix.identity(3))
