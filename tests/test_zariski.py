from fractions import Fraction
from random import Random

import pytest

from zdense import kernels, matrices, zariski
from zdense.matrices import (
    GroupKind,
    Matrix,
    adjugate_inverse,
    characteristic_polynomial,
    multiply,
    random_word,
    validate,
)
from zdense.modular import is_prime, random_prime_avoiding
from zdense.polynomials import IntPoly
from zdense.zariski import (
    Certainty,
    adjoint_matrices,
    general_zariski_dense,
    is_irreducible_algebra,
    word_length,
    zariski_dense,
    _walk,
)

from conftest import random_unimodular

S = Matrix([[0, -1], [1, 0]])
T = Matrix([[1, 1], [0, 1]])

# a prime from the walk's range [2^30, 2^31); Norton's test answers YES
# (and, in the routes' gate, NO) before the walk runs, so the walk's own
# behaviour is tested through _walk
WALK_PRIME = (1 << 31) - 1


def test_word_length_formula():
    assert word_length("1e-6") == 139  # ceil(10 * ln 1e6)
    assert word_length("0.9") == 16  # floor kicks in
    assert word_length("1e-6", Fraction("4.3")) == 60
    with pytest.raises(ValueError):
        word_length("1e-6", 0)
    for huge in (Fraction(10) ** 400, Fraction("1e308")):  # float(c) or the product overflows
        with pytest.raises(ValueError, match="word constant too large"):
            word_length("1e-6", huge)


def _fraction_rank(rows):
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][col]
        m[rank] = [x / inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                c = m[i][col]
                m[i] = [a - c * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _planted_system(rng, ncols, nkept, ndependent, coeff_bits):
    """kept rows d_i u_i, for small random u_i and d_i in 1..3, and rows
    sum of n_i u_i in their span, with coefficients n_i / d_i and n_i of
    up to coeff_bits bits."""
    units = [[rng.randrange(-4, 5) for _ in range(ncols)] for _ in range(nkept)]
    kept = [[d * x for x in u] for u, d in zip(units, [rng.randrange(1, 4) for _ in units])]
    top = 1 << coeff_bits
    extra = []
    for _ in range(ndependent):
        row = [0] * ncols
        for u in units:
            c = rng.randrange(-top, top + 1)
            row = [a + c * b for a, b in zip(row, u)]
        extra.append(row)
    return kept, extra


def _walk_relations(kept, extra, p):
    """Each row of extra with its coefficients on kept mod p, from one
    recording RowEchelon as the walk makes them, or None if kept is
    dependent mod p or a row of extra is independent of it."""
    echelon = kernels.RowEchelon(p, len(kept[0]), record=True)
    if not all(echelon.add(k) for k in kept):
        return None
    dependent = []
    for row in extra:
        if echelon.add(row):
            return None
        dependent.append((row, echelon.relation))
    return dependent


def test_lift_matches_fraction_elimination():
    # seeded systems with 0-3 rows dependent mod p, some pushed out of the
    # span by a multiple of p; small p makes the lift fold in more primes
    rng = Random(31)
    answers = []
    for p in (3, 101, WALK_PRIME):
        for _ in range(80):
            ncols = rng.randrange(1, 8)
            kept, extra = _planted_system(rng, ncols, rng.randrange(1, ncols + 1),
                                          rng.randrange(0, 4), 3)
            extra = [[a + p * rng.randrange(-2, 3) for a in row] if rng.random() < 0.3 else row
                     for row in extra]
            dependent = _walk_relations(kept, extra, p)
            if dependent is None:
                continue
            inside = all(_fraction_rank(kept + [row]) == len(kept) for row in extra)
            assert zariski._closed_over_q(kept, dependent, p) is inside, (p, kept, extra)
            answers.append(inside)
    assert answers.count(True) >= 100 and answers.count(False) >= 10, answers


def _recording_lift_primes(monkeypatch):
    used = []
    real = zariski._lift_primes

    def recording(avoid):
        for q in real(avoid):
            used.append(q)
            yield q

    monkeypatch.setattr(zariski, "_lift_primes", recording)
    return used


def test_lift_folds_in_primes_for_tall_coefficients(monkeypatch):
    # coefficients of about 40 bits over denominators up to 3 are beyond
    # one 31-bit prime's reconstruction bound of about 2^15
    used = _recording_lift_primes(monkeypatch)
    kept, extra = _planted_system(Random(5), 7, 4, 3, 40)
    dependent = _walk_relations(kept, extra, WALK_PRIME)
    assert all(_fraction_rank(kept + [row]) == len(kept) for row in extra)
    assert zariski._closed_over_q(kept, dependent, WALK_PRIME)
    assert len(used) >= 2 and WALK_PRIME not in used, used


def test_lift_refutes_a_row_dependent_only_mod_p(monkeypatch):
    # the third row reduces to a member of the span mod p, but is not one
    used = _recording_lift_primes(monkeypatch)
    rng = Random(7)
    kept, extra = _planted_system(rng, 6, 3, 3, 3)
    extra[2] = [a + WALK_PRIME * rng.randrange(1, 3) for a in extra[2]]
    dependent = _walk_relations(kept, extra, WALK_PRIME)
    assert [_fraction_rank(kept + [row]) == len(kept) for row in extra] == [True, True, False]
    assert zariski._closed_over_q(kept, dependent, WALK_PRIME) is False
    assert len(used) == 1  # the row is independent mod the first lift prime


def _algebra_dimension_over_q(mats, dim):
    """The dimension of the unital algebra the mats generate, by closing
    span{I} under them with Fraction ranks."""
    kept = [Matrix.identity(dim)]
    rows = [kept[0].flatten()]
    for b in kept:
        for g in mats:
            m = multiply(g, b)
            if _fraction_rank(rows + [m.flatten()]) > len(rows):
                kept.append(m)
                rows.append(m.flatten())
    return len(kept)


def test_walk_at_small_primes_is_exact_or_restarts():
    # small primes divide minors often: the walk must then return None,
    # and otherwise the exact dimension, never a wrong one
    rng = Random(99)
    restarts = 0
    for trial in range(150):
        dim = 1 + trial % 3
        mats = [Matrix([[rng.randrange(-3, 4) for _ in range(dim)] for _ in range(dim)])
                for _ in range(rng.randrange(0, 3))]
        want = _algebra_dimension_over_q(mats, dim)
        for p in (2, 3, 5, 7):
            res = _walk(mats, dim, p)
            if res is None:
                restarts += 1
            else:
                assert (res.irreducible, res.algebra_dimension) == (want == dim * dim, want), (mats, p)
    assert restarts >= 20, restarts


def test_irreducible_algebra_examples():
    res = is_irreducible_algebra([S, T], 2)
    assert res.irreducible and res.algebra_dimension == 4
    res = is_irreducible_algebra([T, Matrix([[1, 2], [0, 1]])], 2)
    assert not res.irreducible  # common invariant line e1
    res = is_irreducible_algebra([Matrix.identity(2)], 2)
    assert not res.irreducible and res.algebra_dimension == 1
    for dim, mats in ((1, [S]), (3, [S]), (1, [Matrix([[5]]), S])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            is_irreducible_algebra(mats, dim)
    with pytest.raises(ValueError, match="dimension must be positive"):
        is_irreducible_algebra([S], 0)


def test_unlucky_rank_prime_restarts_the_spin(monkeypatch):
    # mod 2 both generators collapse to I, so the spin stops at rank 1 while
    # the exact rank of I and the two products is 3: the first prime divided
    # a minor and a fresh one must be drawn
    real = zariski.random_prime_avoiding
    draws = []

    def first_prime_two(*args):
        draws.append(args)
        return 2 if len(draws) == 1 else real(*args)

    monkeypatch.setattr(zariski, "random_prime_avoiding", first_prime_two)
    cases = [
        ([Matrix([[1, 2], [0, 1]]), Matrix([[1, 0], [2, 1]])], (True, 4)),
        ([Matrix([[1, 2], [0, 1]]), Matrix([[1, 0], [0, 3]])], (False, 3)),
    ]
    for mats, expected in cases:
        draws.clear()
        res = is_irreducible_algebra(mats, 2)
        assert (res.irreducible, res.algebra_dimension) == expected
        assert len(draws) == 2


@pytest.fixture
def sl3_parabolic():
    # block upper triangular: stabilizes the plane spanned by e1, e2
    return validate(
        GroupKind.SPECIAL_LINEAR,
        3,
        [
            Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
            Matrix([[1, 0, 0], [1, 1, 0], [0, 0, 1]]),
            Matrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
            Matrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
        ],
    )


@pytest.fixture
def sp4_siegel_parabolic():
    # [[A, B], [0, A^-T]] with B symmetric: stabilizes the Lagrangian e1, e2
    return validate(
        GroupKind.SYMPLECTIC,
        4,
        [
            Matrix([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
            Matrix([[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
            Matrix([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]]),
            Matrix([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 0, 1]]),
        ],
    )


@pytest.mark.parametrize(
    "group, expected",
    [
        ("sl3", (True, 64)),
        ("sl3_parabolic", (False, 34)),
        ("sp4_siegel_parabolic", (False, 34)),
        ("sp4", (True, 100)),
    ],
)
def test_adjoint_irreducibility_pinned(group, expected, request):
    # recorded at commit f81fa9a, whose span loop re-multiplied and re-ranked
    # the whole basis every round
    mats = adjoint_matrices(request.getfixturevalue(group))
    res = is_irreducible_algebra(mats, mats[0].dim, Random(0))
    assert (res.irreducible, res.algebra_dimension) == expected


def _record_echelon_adds(monkeypatch):
    """(kept, pivots after the call) for every row the spin adds."""
    adds = []

    class RecordingEchelon(kernels.RowEchelon):
        def add(self, row):
            kept = super().add(row)
            adds.append((kept, len(self.pivots)))
            return kept

    monkeypatch.setattr(kernels, "RowEchelon", RecordingEchelon)
    return adds


@pytest.mark.parametrize("group", ["sl3_parabolic", "sp4_siegel_parabolic"])
def test_spin_multiplies_each_basis_element_once(group, request, monkeypatch):
    gs = request.getfixturevalue(group)
    mats = adjoint_matrices(gs)
    calls = []

    def counting_multiply(a, b):
        calls.append(1)
        return multiply(a, b)

    monkeypatch.setattr(zariski, "multiply", counting_multiply)
    adds = _record_echelon_adds(monkeypatch)
    res = _walk(mats, mats[0].dim, WALK_PRIME)
    assert not res.irreducible
    assert len(calls) == len(mats) * res.algebra_dimension
    # I, then each product reduced once mod p: re-ranking the basis every
    # round eliminated 220 and 194 rows here
    assert len(adds) == 1 + len(calls) == 137


@pytest.mark.parametrize("group", ["sl3_parabolic", "sp4_siegel_parabolic"])
def test_exact_step_checks_each_dependent_product_once(group, request, monkeypatch):
    # the exact step checks every product the echelon did not keep, once,
    # and never a kept row: they are the basis it checks against
    mats = adjoint_matrices(request.getfixturevalue(group))
    adds = []

    class RecordingEchelon(kernels.RowEchelon):
        def add(self, row):
            kept = super().add(row)
            adds.append((row, kept))
            return kept

    checked = []
    real = zariski._lies_in_span

    def recording_check(row, *args):
        checked.append(row)
        return real(row, *args)

    monkeypatch.setattr(kernels, "RowEchelon", RecordingEchelon)
    monkeypatch.setattr(zariski, "_lies_in_span", recording_check)
    res = _walk(mats, mats[0].dim, WALK_PRIME)
    assert not res.irreducible
    dependent = [row for row, kept in adds if not kept]
    assert len(dependent) == len(adds) - res.algebra_dimension > 0
    assert checked == dependent
    assert all(any(c is row for c in checked) is not kept for row, kept in adds)


@pytest.mark.parametrize("group", ["sl3", "sp4"])
def test_spin_stops_at_the_row_that_completes_the_rank(group, request, monkeypatch):
    mats = adjoint_matrices(request.getfixturevalue(group))
    dim = mats[0].dim
    target = dim * dim
    adds = _record_echelon_adds(monkeypatch)
    assert _walk(mats, dim, WALK_PRIME).irreducible
    assert adds[-1] == (True, target)
    assert all(pivots < target for _, pivots in adds[:-1])


@pytest.mark.parametrize(
    "group, action", [("sl3", "adjoint"), ("sp4", "adjoint"), ("sp4", "standard")]
)
def test_spin_forms_no_product_after_the_completing_row(group, action, request, monkeypatch):
    # every product formed is ranked, and the walk returns at the row that
    # fills the rank
    gs = request.getfixturevalue(group)
    if action == "adjoint":
        mats = adjoint_matrices(gs)
        dim = mats[0].dim
    else:
        mats, dim = gs.generators, gs.dim
    products = []

    def counting_multiply(a, b):
        products.append(1)
        return multiply(a, b)

    monkeypatch.setattr(zariski, "multiply", counting_multiply)
    adds = _record_echelon_adds(monkeypatch)
    assert _walk(mats, dim, WALK_PRIME).irreducible
    assert len(products) == len(adds) - 1


def test_irreducible_algebra_scalars_on_line(monkeypatch):
    adds = _record_echelon_adds(monkeypatch)
    res = _walk([Matrix([[5]])], 1, WALK_PRIME)
    assert res.irreducible  # M_1 is the scalars
    assert adds == [(True, 1)]  # I alone fills it


def _lie_dim(kind, dim):
    m = dim // 2
    return dim * dim - 1 if kind is GroupKind.SPECIAL_LINEAR else m * (2 * m + 1)


def _form_j(dim):
    m = dim // 2
    return Matrix([[(c == r + m) - (r == c + m) for c in range(dim)] for r in range(dim)])


def _cells_matrix(cells, dim):
    rows = [[0] * dim for _ in range(dim)]
    for i, j, v in cells:
        rows[i][j] = v
    return Matrix(rows)


def test_lie_algebra_basis_shapes():
    for kind, dim in ((GroupKind.SPECIAL_LINEAR, 2), (GroupKind.SPECIAL_LINEAR, 3),
                      (GroupKind.SYMPLECTIC, 2), (GroupKind.SYMPLECTIC, 4),
                      (GroupKind.SYMPLECTIC, 6)):
        basis = [_cells_matrix(cells, dim) for cells in zariski._basis_cells(kind, dim)]
        expected = _lie_dim(kind, dim)
        assert len(basis) == expected
        vecs = [b.flatten() for b in basis]
        assert _fraction_rank(vecs) == expected  # linearly independent
        if kind is GroupKind.SPECIAL_LINEAR:
            for b in basis:
                assert sum(b.rows[i][i] for i in range(dim)) == 0
        else:
            j = _form_j(dim)
            for b in basis:
                lhs = multiply(b.transpose(), j)
                rhs = multiply(j, b)
                total = Matrix(
                    [
                        [lhs.rows[r][c] + rhs.rows[r][c] for c in range(dim)]
                        for r in range(dim)
                    ]
                )
                assert all(v == 0 for row in total.rows for v in row)
    with pytest.raises(ValueError):
        zariski._basis_cells(GroupKind.SPECIAL_LINEAR, 1)


_LAYOUTS = [(GroupKind.SPECIAL_LINEAR, n) for n in range(2, 7)] + [
    (GroupKind.SYMPLECTIC, n) for n in range(2, 9, 2)
]


@pytest.mark.parametrize("kind, dim", _LAYOUTS)
def test_adjoint_of_identity_is_identity(kind, dim):
    # coordinates read back from the first cells invert the basis
    gs = validate(kind, dim, [Matrix.identity(dim)])
    assert adjoint_matrices(gs) == [Matrix.identity(_lie_dim(kind, dim))]


@pytest.mark.parametrize("kind, dim", _LAYOUTS)
def test_first_cell_of_each_basis_element_is_its_own(kind, dim):
    cells = zariski._basis_cells(kind, dim)
    basis = [_cells_matrix(c, dim) for c in cells]
    assert len(cells) == _lie_dim(kind, dim)
    for k, (i, j, v) in enumerate(c[0] for c in cells):
        assert v == 1 and basis[k].rows[i][j] == 1
        assert all(b.rows[i][j] == 0 for other, b in enumerate(basis) if other != k)
        assert all((i, j) not in [cell[:2] for cell in c] for c in cells[:k] + cells[k + 1:])


def _conjugation_oracle(gs):
    """Ad(g) the long way: g B g^-1 for each basis matrix B, read at the
    first cells."""
    cells = zariski._basis_cells(gs.kind, gs.dim)
    firsts = [c[0][:2] for c in cells]
    out = []
    for g, g_inv in zip(gs.generators, gs.inverses):
        columns = []
        for b in cells:
            rows = multiply(multiply(g, _cells_matrix(b, gs.dim)), g_inv).rows
            columns.append([rows[i][j] for i, j in firsts])
        out.append(Matrix(list(zip(*columns))))
    return out


def _seeded_generators(kind, dim, rng, bits):
    """Unipotent generators with entries below 2^bits (and J for Sp), each
    conjugated by one word in them."""
    unit = [[int(r == c) for c in range(dim)] for r in range(dim)]
    entry = lambda: rng.choice((-1, 1)) * rng.randrange(1, 1 << bits)
    gens = []
    if kind is GroupKind.SPECIAL_LINEAR:
        for _ in range(3):
            i, j = rng.sample(range(dim), 2)
            rows = [r[:] for r in unit]
            rows[i][j] = entry()
            gens.append(Matrix(rows))
    else:
        m = dim // 2
        gens.append(_form_j(dim))
        for top, left in ((0, m), (m, 0)):  # [[I, S], [0, I]], then [[I, 0], [S, I]]
            rows = [r[:] for r in unit]
            for a in range(m):
                for b in range(a, m):
                    rows[top + a][left + b] = rows[top + b][left + a] = entry()
            gens.append(Matrix(rows))
    c = random_word(validate(kind, dim, gens), 3, rng)
    c_inv = adjugate_inverse(c)
    return validate(kind, dim, [c * g * c_inv for g in gens])


@pytest.mark.parametrize("kind, dim", _LAYOUTS)
def test_adjoint_matrices_match_the_conjugation_oracle(kind, dim):
    rng = Random(dim)
    for bits in (2, 2, 100):
        gs = _seeded_generators(kind, dim, rng, bits)
        if bits == 100:
            assert max(abs(v) for g in gs.generators for v in g.flatten()).bit_length() >= 100
        assert adjoint_matrices(gs) == _conjugation_oracle(gs)


def test_adjoint_matrices_form_no_product(monkeypatch, sl3, sp4):
    sets = (sl3, sp4, _sp6())  # validate multiplies to check the form
    calls = []

    def counted(a, b):
        calls.append(1)
        return multiply(a, b)

    monkeypatch.setattr(zariski, "multiply", counted)
    monkeypatch.setattr(matrices, "multiply", counted)
    for gs in sets:
        adjoint_matrices(gs)
    assert calls == []
    is_irreducible_algebra([T], 2)  # the counter does see the walk's products
    assert calls


def test_adjoint_of_shear_matches_hand_computation(sl2):
    gs = validate(GroupKind.SPECIAL_LINEAR, 2, [T])
    assert adjoint_matrices(gs)[0] == Matrix([[1, -2, -1], [0, 1, 1], [0, 0, 1]])


def test_adjoint_identity_and_inverse(sl3, sp4):
    for gs in (sl3, sp4):
        ads = adjoint_matrices(gs)
        ident = Matrix.identity(_lie_dim(gs.kind, gs.dim))
        for ad, g, g_inv in zip(ads, gs.generators, gs.inverses):
            inv_gs = validate(gs.kind, gs.dim, [g_inv])
            ad_inv = adjoint_matrices(inv_gs)[0]
            assert multiply(ad, ad_inv) == ident
            assert characteristic_polynomial(ad)[0] == 1  # det ad, dimension even


def _sp6():
    j = [[0] * 6 for _ in range(6)]
    for i in range(3):
        j[i][3 + i] = 1
        j[3 + i][i] = -1
    n1 = [[1 if a == b else 0 for b in range(6)] for a in range(6)]
    n1[0][3] = 1  # [[I, E_11], [0, I]]
    n2 = [[1 if a == b else 0 for b in range(6)] for a in range(6)]
    n2[1][5] = 1
    n2[2][4] = 1  # symmetric block E_23 + E_32
    return validate(GroupKind.SYMPLECTIC, 6, [Matrix(j), Matrix(n1), Matrix(n2)])


def test_adjoint_is_multiplicative(sl3, sp4):
    rng = Random(606)
    for gs in (sl3, sp4, _sp6()):
        for _ in range(20):
            g = random_word(gs, rng.randrange(1, 6), rng)
            h = random_word(gs, rng.randrange(1, 6), rng)
            ad = lambda m: adjoint_matrices(validate(gs.kind, gs.dim, [m]))[0]
            assert ad(multiply(g, h)) == multiply(ad(g), ad(h))


def test_zariski_dense_sl2(sl2):
    v = zariski_dense(sl2, "1e-6", Random(1000))
    assert v.dense and v.certainty is Certainty.CERTAIN
    assert v.epsilon == Fraction(1, 10**6)
    steps = [s["step"] for s in v.trail]
    # the first word certifies and is hyperbolic, so it decides alone
    assert steps == ["sample_word", "galois_certificate", "normalizer_test"]
    assert v.trail[-1] == {"step": "normalizer_test", "word": 1, "tested": "w",
                           "generator": 0}
    _recheck_normalizer_test(sl2, v)


def test_zariski_dense_heisenberg(heisenberg):
    for seed in range(5):
        v = zariski_dense(heisenberg, "1e-6", Random(seed))
        assert not v.dense
        assert v.epsilon == Fraction(1, 10**6)


def test_zariski_commuting_pair_fails_at_gate():
    gs = validate(GroupKind.SPECIAL_LINEAR, 2, [T])
    v = zariski_dense(gs, "1e-6", Random(3))
    assert not v.dense and v.certainty is Certainty.MONTE_CARLO
    gate = [s for s in v.trail if s["step"] == "commutation_check"]
    assert gate and gate[0]["commute"]


def test_zariski_finite_order_guard_fires(sl2):
    # seed found by scanning: both words certify S_2, but the first is
    # elliptic (x^2 + 1, order 4), so it is passed over and the second,
    # hyperbolic, runs the normalizer test
    v = zariski_dense(sl2, "1e-2", Random(32))
    certs = [s for s in v.trail if s["step"] == "galois_certificate"]
    assert [(c["word"], c["charpoly"], c["verdict"]["answer"]) for c in certs] == [
        (1, [1, 0, 1], "confirmed_sn"), (2, [1, 90, 1], "confirmed_sn")]
    assert v.trail[-1] == {"step": "normalizer_test", "word": 2, "tested": "w",
                           "generator": 0}
    assert v.dense and v.certainty is Certainty.CERTAIN
    _recheck_normalizer_test(sl2, v)


def test_zariski_dense_sp4(sp4):
    v = zariski_dense(sp4, "1e-6", Random(4001), word_constant=Fraction("4.3"))
    assert v.dense and v.certainty is Certainty.CERTAIN
    (step,) = [s for s in v.trail if s["step"] == "normalizer_test"]
    assert step["tested"] == "c" and step["generator"] is not None
    _recheck_normalizer_test(sp4, v)


def test_zariski_block_sl2_pair_in_sp4_not_dense():
    # two commuting SL(2) blocks on the hyperbolic planes (1,3) and (2,4):
    # standard action is reducible, so density must never be claimed
    def embed(m, coords):
        rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        for a, ra in enumerate(coords):
            for b, rb in enumerate(coords):
                rows[ra][rb] = m.rows[a][b]
        return Matrix(rows)

    gens = [embed(S, (0, 2)), embed(T, (0, 2)), embed(S, (1, 3)), embed(T, (1, 3))]
    gs = validate(GroupKind.SYMPLECTIC, 4, gens)
    assert not is_irreducible_algebra(gens, 4).irreducible
    for seed in range(8):
        assert not zariski_dense(gs, "1e-4", Random(seed)).dense


def test_weyl_route_stays_monte_carlo_when_a_word_is_factored(sl3_parabolic):
    # every word keeps the plane e1, e2, so its charpoly has the factor
    # x - 1: the Galois stage proves that word not generic, with the factor,
    # but a fact about one word says nothing certain about the group
    for seed in range(4):
        v = zariski_dense(sl3_parabolic, "1e-6", Random(seed))
        assert not v.dense and v.certainty is Certainty.MONTE_CARLO
        step = v.trail[-1]
        assert step["step"] == "galois_certificate" and step["verdict"]["factor"] == [-1, 1]
        assert IntPoly(step["charpoly"]).divmod_monic(IntPoly([-1, 1]))[1].is_zero()


def _restrict_sqrt2(m):
    """A 2 x 2 matrix over Z[sqrt 2], entries (z0, z1) for z0 + z1 sqrt 2, as
    an integer 4 x 4 matrix on Z[sqrt 2]^2 in the coordinates (x0, x1, y1, y0).
    There Tr(det[u v] / (2 sqrt 2)) is the standard form J."""
    def times(a0, a1):  # z -> a z on (z0, z1)
        return [[a0, 2 * a1], [a1, a0]]

    coords = [(0, 0), (0, 1), (1, 1), (1, 0)]  # (vector component, z-coordinate)
    return Matrix([[times(*m[i][j])[k][l] for j, l in coords] for i, k in coords])


def _sqrt2_gens():
    one, zero = (1, 0), (0, 0)
    return [_restrict_sqrt2([[one, b], [zero, one]]) for b in ((1, 0), (0, 1))] + [
        _restrict_sqrt2([[one, zero], [b, one]]) for b in ((1, 0), (0, 1))
    ]


def test_weyl_route_refutes_restriction_of_scalars_for_certain():
    # SL2(Z[sqrt 2]) lies in Res SL2 over Q(sqrt 2), of dimension 6 < 10, so
    # it is not dense in Sp(4) although its words carry the full signed
    # permutation group; the closure is the long-root subgroup of a word's
    # torus, so every generator keeps the eigenplanes of c = w + w^-1
    gs = validate(GroupKind.SYMPLECTIC, 4, _sqrt2_gens())
    for seed in range(5):
        v = zariski_dense(gs, "1e-6", Random(seed))
        assert not v.dense and v.certainty is Certainty.CERTAIN
        certs = [s["verdict"]["answer"] for s in v.trail if s["step"] == "galois_certificate"]
        assert certs == ["confirmed_hyperoctahedral"]
        assert v.trail[-1] == {"step": "normalizer_test", "word": 1, "tested": "c",
                               "generator": None}
        _recheck_normalizer_test(gs, v)
    v = general_zariski_dense(gs, "1e-6", Random(0))
    assert not v.dense and v.certainty is Certainty.CERTAIN
    # Norton's spin stops short on a 4-dimensional subspace of the
    # 10-dimensional adjoint module, lifted and checked exactly
    subspace = [[1, 0, 0, -1, 0, 0, 0, 0, 0, 0],
                [0, 2, -1, 0, 0, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 2, 0, -1, 0, 0, 0],
                [0, 0, 0, 0, 0, 0, 0, 1, 0, -2]]
    assert v.trail[-1] == {"step": "adjoint_irreducibility", "irreducible": False,
                           "invariant_subspace": subspace}
    _recheck_invariant_subspace(adjoint_matrices(gs), subspace)


def _twisted_sqrt2_gens():
    # s = diag(1, -1, 1, -1) in Sp(4, Z) is Galois conjugation on Z[sqrt 2]^2
    # times diag(1, -1): it normalizes Res SL2 and swaps its two factors, so
    # the closure (SL2 x SL2) x| C2 acts absolutely irreducibly on Q^4
    return _sqrt2_gens() + [Matrix([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])]


def _recheck_normalizer_test(gs, v):
    """Re-derive a normalizer_test step from the input and the report alone:
    rebuild its word from the sample_word letters, check that its recorded
    charpoly is the word's and was certified, form X (w, or c = w + w^-1 by
    an adjugate inverse, independent of J), and check one exact commutator
    for a YES, one per generator for a NO."""
    trail = v.to_json()["trail"]
    (step,) = [s for s in trail if s["step"] == "normalizer_test"]
    (sample,) = [s for s in trail if s["step"] == "sample_word" and s["word"] == step["word"]]
    (cert,) = [s for s in trail if s["step"] == "galois_certificate"
               and s["word"] == step["word"]]
    w = Matrix.identity(gs.dim)
    for letter in sample["letters"]:
        w = multiply(w, gs.alphabet[letter])
    assert list(characteristic_polynomial(w).coeffs) == cert["charpoly"]
    assert cert["verdict"]["answer"].startswith("confirmed")
    if gs.dim == 2:
        assert abs(w.rows[0][0] + w.rows[1][1]) > 2
    symplectic = gs.kind is GroupKind.SYMPLECTIC and gs.dim > 2
    assert step["tested"] == ("c" if symplectic else "w")
    x = w
    if symplectic:
        w_inv = adjugate_inverse(w)
        x = Matrix([[a + b for a, b in zip(r, s)] for r, s in zip(w.rows, w_inv.rows)])

    def conjugate_commutes(i):
        g = gs.generators[i]
        y = multiply(multiply(g, x), adjugate_inverse(g))
        return multiply(x, y) == multiply(y, x)

    if step["generator"] is None:
        assert not v.dense and v.certainty is Certainty.CERTAIN
        assert all(conjugate_commutes(i) for i in range(len(gs.generators)))
    else:
        assert v.dense and v.certainty is Certainty.CERTAIN
        assert not conjugate_commutes(step["generator"])


def test_weyl_route_never_says_yes_on_the_twisted_sqrt2_group():
    # SL2(Z[sqrt 2]) with s: the closure's identity component is the
    # long-root subgroup Sp(V_1) x Sp(V_2) of a word's torus, and s swaps
    # V_1 and V_2; testing c, not w, sees that every generator permutes the
    # eigenplanes of c
    gs = validate(GroupKind.SYMPLECTIC, 4, _twisted_sqrt2_gens())
    certain = 0
    for seed in range(40):
        v = zariski_dense(gs, "1e-6", Random(seed))
        assert not v.dense, seed
        if v.trail[-1]["step"] == "normalizer_test":
            _recheck_normalizer_test(gs, v)
            certain += 1
        else:
            assert v.certainty is Certainty.MONTE_CARLO
    assert certain >= 30, certain


def test_weyl_route_certain_no_for_a_torus_and_for_restriction_of_scalars():
    # <companion of x^3 - x - 1> is Zariski dense in its own maximal torus
    companion = validate(GroupKind.SPECIAL_LINEAR, 3,
                         [Matrix([[0, 0, 1], [1, 0, 1], [0, 1, 0]])])
    sqrt2 = validate(GroupKind.SYMPLECTIC, 4, _sqrt2_gens())
    for gs, tested in ((companion, "w"), (sqrt2, "c")):
        for seed in range(3):
            v = zariski_dense(gs, "1e-6", Random(seed))
            assert not v.dense and v.certainty is Certainty.CERTAIN, seed
            assert v.trail[-1] == {"step": "normalizer_test", "word": 1, "tested": tested,
                                   "generator": None}
            _recheck_normalizer_test(gs, v)


def _conjugated_dense(kind, dim, rng):
    """A transvection and a signed cycle in SL(n), _sp_dense in Sp(2m), each
    conjugated as in _KNOWN_FAMILIES."""
    if kind is GroupKind.SPECIAL_LINEAR:
        g, gens = random_unimodular(dim, rng), [_unit_add(dim, [(0, 1, 1)]), _signed_cycle(dim)]
    else:
        g, gens = random_word(validate(kind, dim, _sp_dense(dim)), dim, rng), _sp_dense(dim)
    g_inv = adjugate_inverse(g)
    return validate(kind, dim, [multiply(multiply(g, x), g_inv) for x in gens])


@pytest.mark.parametrize("kind, dim", [(GroupKind.SPECIAL_LINEAR, n) for n in range(3, 9)]
                         + [(GroupKind.SYMPLECTIC, n) for n in (4, 6, 8)])
def test_weyl_route_certain_yes_on_dense_groups(kind, dim):
    # one certified word decides
    for seed in range(3):
        rng = Random(seed)
        gs = _conjugated_dense(kind, dim, rng)
        v = zariski_dense(gs, "1e-6", rng)
        assert v.dense and v.certainty is Certainty.CERTAIN, seed
        _recheck_normalizer_test(gs, v)


def _record_word_draws(monkeypatch):
    draws = []
    real = zariski.random_word_letters
    monkeypatch.setattr(zariski, "random_word_letters",
                        lambda *args: draws.append(args) or real(*args))
    return draws


def test_weyl_yes_from_the_first_word_forms_no_second(monkeypatch):
    # the second word is drawn only when the first fails, so a YES that the
    # first word decides draws one word and forms no commutator of two
    draws = _record_word_draws(monkeypatch)
    cases = ([(GroupKind.SPECIAL_LINEAR, n) for n in range(3, 7)]
             + [(GroupKind.SYMPLECTIC, n) for n in (4, 6)])
    by_first = []
    for kind, dim in cases:
        for seed in range(3):
            rng = Random(seed)
            gs = _conjugated_dense(kind, dim, rng)
            draws.clear()
            v = zariski_dense(gs, "1e-6", rng)
            assert v.dense and len(draws) == v.trail[-1]["word"], (kind, dim, seed)
            if len(draws) == 1:
                by_first.append((kind, dim, seed))
                assert [s["step"] for s in v.trail] == ["sample_word", "galois_certificate",
                                                        "normalizer_test"]
    # the first word's charpoly has a factor on SL(5) seed 0 (x^2 - 4x + 1)
    # and SL(6) seed 1 (x + 1), and there the second word decides
    assert len(by_first) == 16, by_first


def test_weyl_no_forms_the_second_word_after_the_first_fails(heisenberg, sl3_parabolic,
                                                             monkeypatch):
    # no word of these certifies, so both are drawn, and the commutation of
    # the two is recorded once the second is formed, before its certificate
    draws = _record_word_draws(monkeypatch)
    heisenberg4 = validate(GroupKind.SPECIAL_LINEAR, 4,
                           [_unit_add(4, [(i, i + 1, 1)]) for i in range(3)])
    for gs in (heisenberg4, sl3_parabolic):
        for seed in range(3):
            draws.clear()
            v = zariski_dense(gs, "1e-6", Random(seed))
            assert not v.dense and v.certainty is Certainty.MONTE_CARLO
            assert len(draws) == 2
            assert [(s["step"], s.get("word")) for s in v.trail] == [
                ("sample_word", 1), ("galois_certificate", 1), ("sample_word", 2),
                ("commutation_check", None), ("galois_certificate", 2)]


def _norton_runs(mats, dim, trials, lift=False):
    """Norton's answer on `trials` seeded (prime, rng) pairs."""
    answers = []
    for seed in range(trials):
        rng = Random(seed)
        p = random_prime_avoiding(1, 1 << 30, 1 << 31, rng)
        answers.append(zariski._norton(mats, dim, p, rng, lift))
    return answers


def _recheck_invariant_subspace(mats, rows):
    """A recorded invariant subspace, re-checked from its rows alone with
    Fractions: they are independent, span a proper nonzero subspace, and
    every matrix maps each of them into their span."""
    dim, k = mats[0].dim, len(rows)
    assert 0 < k < dim and _fraction_rank(rows) == k, rows
    for g in mats:
        for row in rows:
            image = [sum(a * b for a, b in zip(r, row)) for r in g.rows]
            assert _fraction_rank(rows + [image]) == k, (g, rows)


def test_charpoly_mod_matches_berkowitz():
    rng = Random(41)
    for p in (2, 3, 7, WALK_PRIME):
        for dim in range(1, 9):
            for _ in range(12):
                rows = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(dim)]
                        for _ in range(dim)]
                want = [c % p for c in characteristic_polynomial(Matrix(rows)).coeffs]
                assert zariski._charpoly_mod(rows, p) == want, (p, rows)


def _rank_mod(rows, ncols, p):
    echelon = kernels.RowEchelon(p, ncols)
    return sum(echelon.add(row) for row in rows)


def test_kernel_mod_spans_the_kernel():
    rng = Random(43)
    for p in (2, 5, WALK_PRIME):
        for _ in range(60):
            m, n = rng.randrange(1, 7), rng.randrange(1, 7)
            rank = rng.randrange(0, min(m, n) + 1)
            left = [[rng.randrange(p) for _ in range(rank)] for _ in range(m)]
            right = [[rng.randrange(p) for _ in range(n)] for _ in range(rank)]
            rows = [[sum(r[t] * right[t][j] for t in range(rank)) % p for j in range(n)]
                    for r in left]
            basis = zariski._kernel_mod(rows, p)
            for v in basis:
                assert not any(sum(a * b for a, b in zip(r, v)) % p for r in rows)
            # independent, and as many as n minus the rank
            assert _rank_mod(basis, n, p) == len(basis)
            assert len(basis) == n - _rank_mod(rows, n, p)


def _gauss_jordan(rows, p):
    """The reference: the nonzero rows of the reduced row echelon form mod p,
    by list Gauss-Jordan elimination, and their pivot columns."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        prow = rows[r] = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            c = row[col]
            if c and i != r:
                rows[i] = [(x - c * y) % p for x, y in zip(row, prow)]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def _gauss_jordan_kernel(rows, p):
    """The reference kernel basis: e_j minus row i's entry j at pivot i,
    for each free column j."""
    echelon, pivots = _gauss_jordan(rows, p)
    n = len(rows[0])
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[free] = 1
        for row, col in zip(echelon, pivots):
            v[col] = -row[free] % p
        basis.append(v)
    return basis


def _seeded_rank_matrices(rng, p):
    """Seeded m x n matrices mod p of every rank, as products of an m x r
    and an r x n matrix, with the shapes 1 x n, m x 1, the zero matrix and
    full rank among them."""
    shapes = [(1, n) for n in range(1, 7)] + [(m, 1) for m in range(1, 7)]
    shapes += [(rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(60)]
    for m, n in shapes:
        for rank in range(min(m, n) + 1):
            left = [[rng.randrange(p) for _ in range(rank)] for _ in range(m)]
            right = [[rng.randrange(p) for _ in range(n)] for _ in range(rank)]
            yield [[sum(r[t] * right[t][j] for t in range(rank)) % p for j in range(n)]
                   for r in left]


def test_kernel_and_echelon_mod_match_gauss_jordan():
    # the reduced echelon form and the kernel basis read off it are unique,
    # and Norton's spin starts from the kernel basis's first vector: both
    # must be the reference's, list for list
    rng = Random(47)
    for p in (2, 3, 5, WALK_PRIME):
        ranks = set()
        for rows in _seeded_rank_matrices(rng, p):
            echelon, pivots = _gauss_jordan(rows, p)
            assert zariski._rref_mod(rows, p) == (echelon, pivots), (p, rows)
            assert zariski._kernel_mod(rows, p) == _gauss_jordan_kernel(rows, p), (p, rows)
            ranks.add((len(pivots), len(rows), len(rows[0])))
        assert any(r == 0 for r, _, _ in ranks)  # a zero matrix
        assert any(r == m == n > 1 for r, m, n in ranks)  # an invertible one
        assert any(0 < r < min(m, n) for r, m, n in ranks)  # a rank-deficient one


def test_norton_yes_agrees_with_the_walk_on_random_matrices():
    # seeded small sets, singular ones included: a YES from Norton's test
    # must be a YES of the walk, and most walk YESes above dim 1 get one
    rng = Random(2024)
    walk_yes = norton_yes = lifted_no = 0
    for trial in range(120):
        dim = 1 + trial % 6
        mats = [
            Matrix([[rng.randrange(-2, 3) for _ in range(dim)] for _ in range(dim)])
            for _ in range(rng.randrange(1, 4))
        ]
        walk = _walk(mats, dim, WALK_PRIME)
        answers = _norton_runs(mats, dim, 3)
        assert set(answers) <= {True, None}, answers
        assert walk.irreducible or True not in answers, mats
        if walk.irreducible and dim > 1:
            walk_yes += 1
            norton_yes += True in answers
        for answer in _norton_runs(mats, dim, 3, lift=True):
            if isinstance(answer, list):
                assert not walk.irreducible, mats
                _recheck_invariant_subspace(mats, answer)
                lifted_no += 1
            else:
                assert answer is None or walk.irreducible, mats
    assert walk_yes >= 20 and norton_yes >= walk_yes - 2, (walk_yes, norton_yes)
    assert lifted_no >= 20, lifted_no


# how many of the 40 seeded runs of Norton's test with the lift answered on
# each reducible fixture by an invariant subspace of each dimension, and by
# None (no attempt found a line, or none lifted)
_LIFTED_DIMENSIONS = {
    ("sl3_parabolic", "standard"): {2: 40},
    ("sl3_parabolic", "adjoint"): {2: 8, 3: 17, 5: 15},
    ("sp4_siegel_parabolic", "standard"): {2: 38, None: 2},
    ("sp4_siegel_parabolic", "adjoint"): {3: 14, 4: 26},
}


def _lifted_dimensions(mats, answers):
    """{dimension of each subspace answer, re-checked, or None: count}."""
    counts = {}
    for rows in answers:
        if rows is not None:
            _recheck_invariant_subspace(mats, rows)
        key = None if rows is None else len(rows)
        counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("action", ["standard", "adjoint"])
@pytest.mark.parametrize(
    "group, dense",
    [("sl3", True), ("sp4", True), ("sl3_parabolic", False), ("sp4_siegel_parabolic", False)],
)
def test_norton_yes_agrees_with_the_walk(group, dense, action, request):
    gs = request.getfixturevalue(group)
    mats = adjoint_matrices(gs) if action == "adjoint" else list(gs.generators)
    dim = mats[0].dim
    assert _walk(mats, dim, WALK_PRIME).irreducible is dense
    answers = _norton_runs(mats, dim, 40)
    # never YES on a reducible set; almost always YES on a dense one
    assert set(answers) <= {True, None}, answers
    assert answers.count(True) >= 36 if dense else True not in answers, answers
    # with the lift, a reducible set's answers are subspaces that re-check,
    # of the dimensions pinned for it
    lifted = _norton_runs(mats, dim, 40, lift=True)
    if dense:
        assert lifted == answers
    else:
        assert _lifted_dimensions(mats, lifted) == _LIFTED_DIMENSIONS[group, action]


@pytest.mark.parametrize("action", ["standard", "adjoint"])
def test_norton_never_says_yes_without_absolute_irreducibility(action):
    # SL2(Z[sqrt 2]) acts irreducibly over Q on Q^4 but not absolutely: mod
    # p its module is irreducible with End = F_p^2 when 2 is not a square,
    # so every eigenspace of theta in F_p has even dimension
    gens = _sqrt2_gens()
    mats = adjoint_matrices(validate(GroupKind.SYMPLECTIC, 4, gens)) if action == "adjoint" else gens
    dim = mats[0].dim
    assert not _walk(mats, dim, WALK_PRIME).irreducible
    assert _norton_runs(mats, dim, 40) == [None] * 40
    # Q^4 has no invariant subspace over Q, so the lift never answers there
    # (though the module splits mod half the primes); the adjoint module
    # keeps a 4-dimensional subspace, found at every prime
    lifted = _norton_runs(mats, dim, 40, lift=True)
    assert _lifted_dimensions(mats, lifted) == ({None: 40} if action == "standard" else {4: 40})


class _ZeroRng:
    """randrange always 0: every coefficient of theta is 0, and theta is the
    square of the first generator."""

    def randrange(self, n):
        return 0


def test_norton_rejects_an_eigenspace_wider_than_a_line():
    # Random coefficients reach an F_p-eigenvalue of the sqrt 2 set only
    # with probability about 1/p, so theta is pinned to u^2 for the unipotent
    # u = [[1, 1], [0, 1]] over Z[sqrt 2]: eigenvalue 1 on an F_(p^2)-line,
    # an F_p-plane.  With 2 not a square mod p the module is irreducible, so
    # both spins from that plane succeed, and only the nullity rules YES out.
    p = next(q for q in range(WALK_PRIME, 0, -2) if q % 8 in (3, 5) and is_prime(q))
    gens = _sqrt2_gens()
    assert not _walk(gens, 4, p).irreducible
    theta = [[x % p for x in row] for row in multiply(gens[0], gens[0]).rows]
    for i in range(4):
        theta[i][i] -= 1
    assert len(zariski._kernel_mod(theta, p)) == 2
    assert zariski._norton(gens, 4, p, _ZeroRng()) is None
    assert zariski._norton(gens, 4, p, _ZeroRng(), lift=True) is None


def test_norton_answers_yes_before_the_walk(sl3, monkeypatch):
    # a dense set needs no product from the walk, and the round draws one prime
    mats = adjoint_matrices(sl3)
    walks, draws = [], []

    def counting_draw(*args):
        draws.append(args)
        return random_prime_avoiding(*args)

    monkeypatch.setattr(zariski, "_walk", lambda *args: walks.append(args))
    monkeypatch.setattr(zariski, "random_prime_avoiding", counting_draw)
    res = is_irreducible_algebra(mats, mats[0].dim, Random(3))
    assert (res.irreducible, res.algebra_dimension) == (True, 64)
    assert walks == [] and len(draws) == 1


def _block_triangular(rng, dim):
    """1-2 random matrices with entries in {-1, 0, 1} that keep span(e_1..e_k)
    for a random 0 < k < dim, conjugated by one random unimodular matrix: a
    set that is reducible over Q, with its invariant subspace hidden.  (With
    larger entries or more matrices the walk, the reference, takes seconds
    at dims 8-10.)"""
    k = rng.randrange(1, dim)
    c = random_unimodular(dim, rng, steps=dim)
    c_inv = adjugate_inverse(c)
    return [
        multiply(multiply(c, Matrix([[rng.randrange(-1, 2) if i < k or j >= k else 0
                                      for j in range(dim)] for i in range(dim)])), c_inv)
        for _ in range(rng.randrange(1, 3))
    ]


def _record_spins(monkeypatch):
    """For each of Norton's spins, whether it reached everything."""
    spins = []
    real = zariski._spin

    def recording(v, gens, p):
        kept = real(v, gens, p)
        spins.append(len(kept) == len(v))
        return kept

    monkeypatch.setattr(zariski, "_spin", recording)
    return spins


def test_gate_no_carries_an_invariant_subspace_that_rechecks(
        sl3_parabolic, sp4_siegel_parabolic, monkeypatch):
    # seeded sets reducible over Q, standard at dims 2-10 and adjoint at
    # dims 3, 8 and 10: the gate answers NO as the walk does, and records a
    # subspace that re-checks from the trail alone.  An attempt whose v spins
    # to everything lifts the annihilator of w's spin; both kinds answer.
    spins = _record_spins(monkeypatch)
    rng = Random(23)
    cases = [_block_triangular(rng, 2 + trial % 9) for trial in range(36)]
    borel = validate(GroupKind.SPECIAL_LINEAR, 2, [T, Matrix([[-1, 3], [0, -1]])])
    for gs in (borel, sl3_parabolic, sp4_siegel_parabolic):
        for _ in range(4):
            g = random_word(gs, 4, rng)
            g_inv = adjugate_inverse(g)
            conjugated = [multiply(multiply(g_inv, x), g) for x in gs.generators]
            cases.append(adjoint_matrices(validate(gs.kind, gs.dim, conjugated)))
    by_spin = {"v": 0, "w": 0, "walk": 0}
    for seed, mats in enumerate(cases):
        dim = mats[0].dim
        walk = _walk(mats, dim, WALK_PRIME)
        assert not walk.irreducible, mats
        spins.clear()
        trail = []
        assert zariski._irreducible(mats, dim, Random(seed), trail) is False
        (step,) = trail
        if "algebra_dimension" in step:  # no attempt answered: the walk's NO
            assert step == {"step": "adjoint_irreducibility", "irreducible": False,
                            "algebra_dimension": walk.algebra_dimension}
            by_spin["walk"] += 1
            continue
        assert step.keys() == {"step", "irreducible", "invariant_subspace"}, step
        _recheck_invariant_subspace(mats, step["invariant_subspace"])
        by_spin["w" if spins[-2:] == [True, False] else "v"] += 1
    assert by_spin == {"v": 40, "w": 7, "walk": 1}, by_spin


def _reducible_only_mod(p, rng, dim):
    """Two matrices B + p R, for random B that keep span(e_1..e_k), 0 < k <
    dim, and random R: reducible mod p, and mostly irreducible over Q."""
    k = rng.randrange(1, dim)
    return [Matrix([[(rng.randrange(-2, 3) if i < k or j >= k else 0) + p * rng.randrange(-1, 2)
                     for j in range(dim)] for i in range(dim)])
            for _ in range(2)]


def test_lift_at_a_prime_that_splits_an_irreducible_set_never_answers(monkeypatch):
    # sets irreducible over Q but reducible mod 7: Norton's spins at 7 stop
    # short, and many of their subspaces reconstruct (entries in {-1, 0, 1}
    # mod 7), but none may pass the exact check; the gate answers YES
    p = 7
    checks = []
    real_check = zariski._lies_in_span
    monkeypatch.setattr(zariski, "_lies_in_span",
                        lambda *args: checks.append(args) or real_check(*args))
    lifts = []  # (answer, whether the exact check ran)
    real_lift = zariski._lift_invariant

    def recording(basis, mats, q):
        ran = len(checks)
        lifts.append((real_lift(basis, mats, q), len(checks) > ran))
        return lifts[-1][0]

    monkeypatch.setattr(zariski, "_lift_invariant", recording)
    draws = []

    def seven_first(*args):
        draws.append(args)
        return p if len(draws) == 1 else random_prime_avoiding(*args)

    monkeypatch.setattr(zariski, "random_prime_avoiding", seven_first)
    rng = Random(17)
    irreducible = 0
    for trial in range(40):
        dim = 2 + trial % 5
        mats = _reducible_only_mod(p, rng, dim)
        if not _walk(mats, dim, WALK_PRIME).irreducible:
            continue
        irreducible += 1
        assert zariski._norton(mats, dim, p, Random(trial), lift=True) is None
        draws.clear()
        trail = []
        assert zariski._irreducible(mats, dim, Random(trial), trail)
        assert trail == [{"step": "adjoint_irreducibility", "irreducible": True,
                          "algebra_dimension": dim * dim}]
        assert len(draws) >= 2  # 7 answered nothing
    answers = {answer for answer, _ in lifts}
    checked = sum(ran for _, ran in lifts)
    assert (irreducible, answers, checked) == (38, {None}, 440), (irreducible, answers, checked)


def test_zariski_block_sl2_in_sl3_not_dense():
    # SL(2) x 1 block subgroup: words always keep the eigenvalue 1, so the
    # cubic characteristic polynomial is reducible and never certifies S_3
    def pad(m):
        return Matrix([[m.rows[0][0], m.rows[0][1], 0], [m.rows[1][0], m.rows[1][1], 0], [0, 0, 1]])

    gs = validate(GroupKind.SPECIAL_LINEAR, 3, [pad(S), pad(T)])
    for seed in range(8):
        assert not zariski_dense(gs, "1e-4", Random(seed)).dense


def test_zariski_trivial_group_dim1():
    gs = validate(GroupKind.SPECIAL_LINEAR, 1, [Matrix([[1]])])
    assert zariski_dense(gs, "1e-6", Random(0)).dense
    assert general_zariski_dense(gs, "1e-6", Random(0)).dense


def test_zariski_seed_determinism(sl2, sp4):
    for gs in (sl2, sp4):
        a = zariski_dense(gs, "1e-6", Random(77))
        b = zariski_dense(gs, "1e-6", Random(77))
        assert a == b


def test_zariski_trail_witnesses_reproduce(sl2):
    from zdense.modular import factor_degrees_mod
    from zdense.polynomials import IntPoly

    v = zariski_dense(sl2, "1e-6", Random(1000))
    for step in v.trail:
        if step["step"] != "galois_certificate":
            continue
        f = IntPoly(step["charpoly"])
        for witness in step["verdict"]["witnesses"]:
            assert factor_degrees_mod(f, witness["prime"]) == tuple(witness["degrees"])


def test_general_zariski_dense(sl2, heisenberg):
    v = general_zariski_dense(sl2, "1e-6", Random(11))
    assert v.dense and v.certainty is Certainty.CERTAIN
    gate = [s for s in v.trail if s["step"] == "adjoint_irreducibility"]
    assert gate and gate[0]["algebra_dimension"] == 9

    # a unipotent group: Norton's spin from theta's wide eigenspace stops
    # on a line of the adjoint module, lifted and checked exactly
    v = general_zariski_dense(heisenberg, "1e-6", Random(12))
    assert not v.dense and v.certainty is Certainty.CERTAIN
    assert v.trail == ({"step": "adjoint_irreducibility", "irreducible": False,
                        "invariant_subspace": [[0, 1, 0, 0, 0, 0, 0, 0]]},)


def test_general_zariski_single_rotation():
    # <S> has order 4 and fixes the line of S itself, e - f in (e, h, f)
    gs = validate(GroupKind.SPECIAL_LINEAR, 2, [S])
    v = general_zariski_dense(gs, "1e-6", Random(13))
    assert not v.dense and v.certainty is Certainty.CERTAIN
    assert v.trail == ({"step": "adjoint_irreducibility", "irreducible": False,
                        "invariant_subspace": [[1, 0, -1]]},)


def _unit_add(dim, cells):
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for i, j, c in cells:
        rows[i][j] += c
    return Matrix(rows)


def _signed_cycle(n):
    """e_i -> e_(i+1), with one sign flipped when n is even: det 1."""
    rows = [[int(i == (j + 1) % n) for j in range(n)] for i in range(n)]
    if n % 2 == 0:
        rows[0][n - 1] = -1
    return Matrix(rows)


def _diag2(a):
    """diag(a, a) for a signed permutation a, which is orthogonal: in Sp."""
    m = a.dim
    return Matrix([[*row, *[0] * m] for row in a.rows] + [[*[0] * m, *row] for row in a.rows])


def _sp_dense(dim):
    # J, a long-root transvection, a short-root element and a signed cycle on
    # the Levi: their conjugates give the root groups of every simple root
    # and its negative, which generate sp_2m
    m = dim // 2
    short = _unit_add(dim, [(0, 1, 1), (m + 1, m, -1)])
    return [_form_j(dim), _unit_add(dim, [(0, m, 1)]), short, _diag2(_signed_cycle(m))]


def _signed_perms(n):
    """A signed n-cycle and e_1 -> -e_2, e_2 -> e_1: a finite group."""
    swap = _unit_add(n, [(0, 0, -1), (1, 1, -1), (0, 1, 1), (1, 0, -1)])
    return [_signed_cycle(n), swap]


SL, SP = GroupKind.SPECIAL_LINEAR, GroupKind.SYMPLECTIC
# name -> (kind, dim, generators, dense); each is decided on seeds 0-4, after
# a conjugation by 8 random transvections in SL, or by a word of length
# `dim` in the dense group in Sp
_KNOWN_FAMILIES = {
    # finite groups: their closure is themselves
    **{f"signed_perms_sl{n}": (SL, n, _signed_perms(n), False) for n in range(3, 7)},
    "signed_perms_sp4": (SP, 4, [_form_j(4), _diag2(_signed_cycle(2))], False),
    "order_4_sl2": (SL, 2, [S], False),
    "order_6_sl2": (SL, 2, [Matrix([[1, -1], [1, 0]])], False),
    "order_3_sl2": (SL, 2, [Matrix([[0, -1], [1, -1]])], False),
    # unipotent groups
    **{f"heisenberg_sl{n}": (SL, n, [_unit_add(n, [(i, i + 1, 1)]) for i in range(n - 1)],
                             False) for n in range(3, 7)},
    "t_sl2": (SL, 2, [T], False),
    # proper algebraic subgroups of positive dimension
    "sp4_in_sl4": (SL, 4, _sp_dense(4), False),
    "sp6_in_sl6": (SL, 6, _sp_dense(6), False),
    "sl2_sqrt2_in_sl4": (SL, 4, _sqrt2_gens(), False),
    # dense: a transvection and a signed cycle, and _sp_dense
    **{f"dense_sl{n}": (SL, n, [_unit_add(n, [(0, 1, 1)]), _signed_cycle(n)], True)
       for n in range(2, 6)},
    "dense_sp4": (SP, 4, _sp_dense(4), True),
    "dense_sp6": (SP, 6, _sp_dense(6), True),
}


@pytest.mark.parametrize("family", list(_KNOWN_FAMILIES))
def test_adjoint_route_decides_known_families_for_certain(family):
    # Ad(G) irreducible over Q iff G is dense, for finite, unipotent and
    # positive-dimensional proper subgroups alike: every answer is certain,
    # and every NO carries a certificate that re-checks
    kind, dim, gens, dense = _KNOWN_FAMILIES[family]
    for seed in range(5):
        rng = Random(seed)
        if kind is SL:
            g = random_unimodular(dim, rng)
        else:
            g = random_word(validate(SP, dim, _sp_dense(dim)), dim, rng)
        g_inv = adjugate_inverse(g)
        gs = validate(kind, dim, [multiply(multiply(g, x), g_inv) for x in gens])
        v = general_zariski_dense(gs, "1e-6", rng)
        assert (v.dense, v.certainty) == (dense, Certainty.CERTAIN), (family, seed)
        (step,) = v.trail
        assert step["step"] == "adjoint_irreducibility", step
        mats = adjoint_matrices(gs)
        if "invariant_subspace" in step:
            assert not dense
            _recheck_invariant_subspace(mats, step["invariant_subspace"])
        else:  # the walk's exact dimension: d^2 iff YES
            assert (step["algebra_dimension"] == mats[0].dim ** 2) is dense, step


def test_general_zariski_sp4(sp4):
    v = general_zariski_dense(sp4, "1e-6", Random(14))
    assert v.dense
    gate = [s for s in v.trail if s["step"] == "adjoint_irreducibility"]
    assert gate[0]["algebra_dimension"] == 100  # 10x10 adjoint fills up


def test_epsilon_validation(sl2):
    for bad in (0, 1, 2, -0.5):
        with pytest.raises(ValueError):
            zariski_dense(sl2, bad, Random(0))
