"""Seeded instance generators with answers known by construction.

Every family builds its inputs from plain integer lists, never through
zdense, and states next to its code the one-line reason its answer is what
it is.  An instance is a dict with the JSON input (`doc`), the CLI mode,
the known answer (`yes`), and the seed handed to the decider.
"""

from __future__ import annotations

from random import Random

# ---------------------------------------------------------------- matrices


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def unit_add(n, cells):
    """I plus the given (i, j, value) entries."""
    m = identity(n)
    for i, j, v in cells:
        m[i][j] += v
    return m


def signed_cycle(n):
    """The n-cycle e_i -> e_(i+1) with one sign flipped when n is even, so
    the determinant is 1."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[(i + 1) % n][i] = 1
    if n % 2 == 0:
        m[0][n - 1] = -1
    return m


def block_diag(a, b):
    n, k = len(a), len(b)
    m = [[0] * (n + k) for _ in range(n + k)]
    for i in range(n):
        m[i][:n] = a[i]
    for i in range(k):
        m[n + i][n:] = b[i]
    return m


def inverse_transpose_unit(a_cells, m):
    """(I + N)^-T for I + N unipotent with N^2 = 0 (one off-diagonal cell)."""
    return unit_add(m, [(j, i, -v) for i, j, v in a_cells])


def conjugate(gens, g, g_inv):
    return [matmul(matmul(g, x), g_inv) for x in gens]


def sl_conjugator(n, length, rng):
    """Random product of elementary transvections I + c e_ij and its exact
    inverse; entry size grows with `length`."""
    g, g_inv = identity(n), identity(n)
    for _ in range(length):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        g = matmul(g, unit_add(n, [(i, j, c)]))
        g_inv = matmul(unit_add(n, [(i, j, -c)]), g_inv)
    return g, g_inv


def sp_root_element(m, rng):
    """A random integral root-group element of Sp(2m) for J = [[0, I], [-I, 0]]
    and its inverse (the same element with c -> -c)."""
    c = rng.choice((-2, -1, 1, 2))
    a, b = rng.randrange(m), rng.randrange(m)
    kind = rng.randrange(3)
    if kind == 0 and a != b:
        # diag(I + c e_ab, (I + c e_ab)^-T)
        x = unit_add(2 * m, [(a, b, c), (m + b, m + a, -c)])
        y = unit_add(2 * m, [(a, b, -c), (m + b, m + a, c)])
    elif kind == 1:
        # [[I, S], [0, I]] with S symmetric
        cells = [(a, m + b, c)] + ([(b, m + a, c)] if a != b else [])
        x = unit_add(2 * m, cells)
        y = unit_add(2 * m, [(i, j, -v) for i, j, v in cells])
    else:
        # [[I, 0], [S, I]] with S symmetric
        cells = [(m + a, b, c)] + ([(m + b, a, c)] if a != b else [])
        x = unit_add(2 * m, cells)
        y = unit_add(2 * m, [(i, j, -v) for i, j, v in cells])
    return x, y


def sp_conjugator(m, length, rng):
    g, g_inv = identity(2 * m), identity(2 * m)
    for _ in range(length):
        x, y = sp_root_element(m, rng)
        g = matmul(g, x)
        g_inv = matmul(y, g_inv)
    return g, g_inv


# ------------------------------------------------------- generator families


def sl_dense_gens(n):
    # Conjugating I + e_12 by powers of the cycle gives every adjacent root
    # group plus the (n, 1) one; their Lie algebra is sl_n, so the closure
    # is SL_n.
    return [unit_add(n, [(0, 1, 1)]), signed_cycle(n)]


def sp_dense_gens(m):
    # J, a long-root transvection, a short-root element and a signed cycle on
    # the Levi: conjugates give root groups of every simple root and its
    # negative, which generate sp_2m, so the closure is Sp_2m.
    n = 2 * m
    j = [[0] * n for _ in range(n)]
    for i in range(m):
        j[i][m + i] = 1
        j[m + i][i] = -1
    long_root = unit_add(n, [(0, m, 1)])
    short_cells = [(0, 1, 1)]
    short = block_diag(unit_add(m, short_cells), inverse_transpose_unit(short_cells, m))
    cyc = signed_cycle(m)
    cyc_inv_t = [list(r) for r in cyc]  # a signed permutation is orthogonal
    return [j, long_root, short, block_diag(cyc, cyc_inv_t)]


def sl_parabolic_gens(n):
    # Every generator is block upper triangular, so span(e_1..e_k) is
    # invariant: the action is reducible and the group is not dense.
    k = n // 2
    gens = [block_diag(x, identity(n - k)) for x in sl_dense_gens(k)] if k > 1 else []
    gens += [block_diag(identity(k), y) for y in sl_dense_gens(n - k)]
    gens.append(unit_add(n, [(k - 1, k, 1)]))
    return gens


def sp_parabolic_gens(m):
    # Siegel parabolic [[A, B], [0, A^-T]]: the Lagrangian span(e_1..e_m) is
    # invariant, so the action is reducible and the group is not dense.
    n = 2 * m
    gens = [unit_add(n, [(0, m, 1)])]
    if m > 1:
        cells = [(0, 1, 1)]
        gens.append(block_diag(unit_add(m, cells), inverse_transpose_unit(cells, m)))
        cyc = signed_cycle(m)
        gens.append(block_diag(cyc, [list(r) for r in cyc]))
    return gens


def signed_perm_gens(n):
    # Signed permutation matrices form a finite group, so the closure is
    # finite and not SL_n.
    swap = [[0] * n for _ in range(n)]
    swap[0][1], swap[1][0] = 1, -1
    for i in range(2, n):
        swap[i][i] = 1
    return [signed_cycle(n), swap]


def heisenberg_gens(n):
    # Upper unitriangular generators: the closure is unipotent, not SL_n.
    return [unit_add(n, [(i, i + 1, 1)]) for i in range(n - 1)]


def _group_doc(kind, n, gens):
    return {
        "group": kind,
        "dim": n,
        "generators": [[[_json_int(v) for v in row] for row in g] for g in gens],
    }


def _json_int(v):
    return v if -(1 << 53) < v < 1 << 53 else str(v)


# ------------------------------------------------------------- polynomials


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def taylor_shift(coeffs, a):
    """Coefficients of f(x + a), constant term first (Horner on f)."""
    out = [0]
    for c in reversed(coeffs):
        # out <- out * (x + a) + c
        nxt = [0] * (len(out) + 1)
        for i, v in enumerate(out):
            nxt[i] += v * a
            nxt[i + 1] += v
        nxt[0] += c
        out = nxt
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def cyclotomic(m):
    """Phi_m by exact division of x^m - 1 by Phi_d for the proper divisors d."""
    # Gal(Phi_m) = (Z/m)^* has order phi(m), below the order of S_phi(m) and
    # of the signed permutations on phi(m)/2 pairs whenever phi(m) >= 4.
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = _exact_div(num, cyclotomic(d))
    return num


def _exact_div(a, b):
    a = list(a)
    db = len(b) - 1
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        quo[i - db] = c
        for j, v in enumerate(b):
            a[i - db + j] -= c * v
    assert not any(a), "inexact division"
    return quo


def osada(n):
    # x^n - x - 1 has Galois group S_n for every n (Osada 1987).
    return [-1, -1] + [0] * (n - 2) + [1]


def pure_power(n, c):
    # The splitting field of x^n - c is Q(c^(1/n), zeta_n), of degree at most
    # n * phi(n) < n! for n >= 4: not S_n.
    return [-c] + [0] * (n - 1) + [1]


def pure_power_product(a, b):
    # (x^a - 2)(x^b - 3) is reducible, so its Galois group is intransitive:
    # not S_(a+b).  The factors share no root, so it is squarefree.
    return poly_mul(pure_power(a, 2), pure_power(b, 3))


def cyclotomic_product(a, b):
    # Phi_a Phi_b (a != b) is reducible and squarefree: intransitive group.
    return poly_mul(cyclotomic(a), cyclotomic(b))


# ---------------------------------------------------------------- workloads


def _instance(name, mode, doc, yes, rng):
    return {
        "name": name,
        "mode": mode,
        "doc": doc,
        "yes": yes,
        "seed": rng.randrange(1 << 63),
    }


# Every batch has three parts.  A large body of cheap instances holds the
# medians, so they fall inside a dense run of costs.  A band of copies of
# one known-NO instance, whose cost varies little between copies, holds the
# tail percentile.  A few top instances reach the largest sizes.  Copies
# differ in their conjugator (or shift) and decider seed.  The band is also
# heavy enough that the tops, whose cost depends strongly on the decider
# seed, do not dominate the summed time behind `verdicts_per_s`.

# (family, group, dimension, copies); the conjugator length is the dimension
WEYL_GRID = (
    # body
    ("sl_dense", "SL", 4, 30), ("sl_dense", "SL", 5, 25), ("sp_dense", "Sp", 4, 30),
    ("sp_in_sl", "SL", 4, 30), ("sl_parabolic", "SL", 4, 15),
    ("signed_perm", "SL", 4, 8), ("signed_perm", "SL", 6, 8),
    ("heisenberg", "SL", 4, 8), ("heisenberg", "SL", 6, 8),
    # band
    ("heisenberg", "SL", 12, 50),
    # top
    ("sl_dense", "SL", 16, 1), ("sl_dense", "SL", 24, 1), ("sp_dense", "Sp", 10, 1),
    ("sl_parabolic", "SL", 16, 1), ("signed_perm", "SL", 24, 1),
)


def weyl_batch(rng: Random):
    return [
        _matrix_instance(family, kind, n, n, "weyl", rng)
        for family, kind, n, copies in WEYL_GRID
        for _ in range(copies)
    ]


# (family, group, dimension, copies); copy k uses a conjugator of length
# 2 + k % 7
ADJOINT_GRID = (
    ("sl_dense", "SL", 3, 20), ("sl_parabolic", "SL", 3, 20),  # body
    ("sp_parabolic", "Sp", 4, 12),  # band
    ("sp_dense", "Sp", 4, 2),  # top
)


def adjoint_batch(rng: Random):
    return [
        _matrix_instance(family, kind, n, 2 + copy % 7, "adjoint", rng)
        for family, kind, n, copies in ADJOINT_GRID
        for copy in range(copies)
    ]


def _matrix_instance(family, kind, n, length, mode, rng):
    if family == "sl_dense":
        g, gi = sl_conjugator(n, length, rng)
        gens, yes = conjugate(sl_dense_gens(n), g, gi), True
    elif family == "sp_dense":
        g, gi = sp_conjugator(n // 2, length, rng)
        gens, yes = conjugate(sp_dense_gens(n // 2), g, gi), True
    elif family == "sp_in_sl":
        # A conjugate of Sp(n) is a proper algebraic subgroup of SL(n), n >= 4.
        g, gi = sl_conjugator(n, length, rng)
        gens, yes = conjugate(sp_dense_gens(n // 2), g, gi), False
    elif family == "sl_parabolic":
        g, gi = sl_conjugator(n, length, rng)
        gens, yes = conjugate(sl_parabolic_gens(n), g, gi), False
    elif family == "sp_parabolic":
        g, gi = sp_conjugator(n // 2, length, rng)
        gens, yes = conjugate(sp_parabolic_gens(n // 2), g, gi), False
    elif family == "signed_perm":
        g, gi = sl_conjugator(n, length, rng)
        gens, yes = conjugate(signed_perm_gens(n), g, gi), False
    elif family == "heisenberg":
        g, gi = sl_conjugator(n, length, rng)
        gens, yes = conjugate(heisenberg_gens(n), g, gi), False
    else:
        raise ValueError(family)
    name = f"{mode}/{family}/{kind}{n}/g{length}"
    return _instance(name, mode, _group_doc(kind, n, gens), yes, rng)


SHIFT_BITS = 32


def galois_batch(rng: Random):
    """Each polynomial as given or Taylor-shifted by a seeded 32-bit a:
    f(x + a) has the roots of f moved by -a, hence the same Galois group,
    and coefficients about deg * 32 bits long.  Copy k is shifted when k is
    odd, and every band copy and the degree-30 top are shifted, so that
    the tail percentile and the tops hold large-coefficient inputs."""
    grid = [  # (label, coefficients, known S_n / hyperoctahedral, copies, all shifted)
        # body
        # degrees 6 and 7 cost about the same, so the YES median falls
        # inside their joint run of costs
        ("osada/5", osada(5), True, 10, False),
        *((f"osada/{n}", osada(n), True, 70, False) for n in (6, 7)),
        *((f"osada/{n}", osada(n), True, 1, False) for n in (3, 4, *range(8, 15))),
        ("osada/16", osada(16), True, 2, False),
        *((f"pure_power/{n}", pure_power(n, 2), False, 5, False) for n in range(4, 10)),
        *((f"cyclotomic/{m}", cyclotomic(m), False, 3, False) for m in (7, 9, 15, 16, 20, 24)),
        *((f"pure_power_product/{a}+{b}", pure_power_product(a, b), False, 2, False)
          for a, b in ((4, 5), (6, 7))),
        *((f"cyclotomic_product/{a}*{b}", cyclotomic_product(a, b), False, 2, False)
          for a, b in ((5, 7), (8, 9))),
        # band
        ("pure_power_product/8+9", pure_power_product(8, 9), False, 30, True),
        # top
        ("osada/22", osada(22), True, 2, False),
        ("osada/30", osada(30), True, 1, True),
    ]
    out = []
    for label, coeffs, yes, copies, all_shifted in grid:
        for copy in range(copies):
            name = label
            if all_shifted or copy % 2:
                a = rng.randrange(1 << (SHIFT_BITS - 1), 1 << SHIFT_BITS) * rng.choice((-1, 1))
                coeffs_k = taylor_shift(coeffs, a)
                name += f"/shift{SHIFT_BITS}"
            else:
                coeffs_k = coeffs
            doc = {"poly": [_json_int(c) for c in coeffs_k]}
            out.append(_instance(f"galois/{name}", "galois", doc, yes, rng))
    return out


BATCHES = {"weyl": weyl_batch, "adjoint": adjoint_batch, "galois": galois_batch}
