"""The hot kernels against oracles that do not share their code."""

import hashlib
import importlib
import itertools
import math
from fractions import Fraction
from random import Random

import pytest

from zdense import _kernel_py
from zdense import kernels


@pytest.fixture(params=["zdense._kernel_py"])  # the test ids name the module
def impl(request):
    return importlib.import_module(request.param)


def test_backend_reports_something():
    assert kernels.BACKEND == "python"


def test_ddf_known_patterns(impl):
    assert impl.ddf_degrees([1, 0, 1], 5) == [1, 1]
    assert impl.ddf_degrees([1, 0, 1], 3) == [2]
    assert impl.ddf_degrees([0, -1, 0, 1], 5) == [1, 1, 1]
    assert impl.ddf_degrees([12, 0, 1], 13) == [1, 1]
    assert impl.ddf_degrees([-1, -1, 0, 1], 5) == [1, 2]
    # non-monic input: only the degrees of the reduction mod q count
    assert impl.ddf_degrees([2, 0, 2], 5) == [1, 1]
    assert impl.ddf_degrees([-3, -3, 0, 3], 7) == [1, 2]  # 3(x^3 - x - 1)
    assert impl.ddf_degrees([1, 0, 1, 5], 5) == [1, 1]  # leading coefficient 0 mod q
    with pytest.raises(ValueError):
        impl.ddf_degrees([1, -2, 1], 5)  # (x-1)^2
    with pytest.raises(ValueError):
        impl.ddf_degrees([3], 5)


def _divmod_monic(a, b, p):
    """Quotient and remainder of a by monic b over F_p, by long division."""
    a = [c % p for c in a]
    db = len(b) - 1
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1 - db, -1, -1):
        c = quo[i] = a[i + db]
        for j, bj in enumerate(b):
            a[i + j] = (a[i + j] - c * bj) % p
    return quo, a[:db]


def _monic_irreducibles(p, max_degree):
    """Monic irreducibles over F_p by degree, found by trial division."""
    found = []
    for d in range(1, max_degree + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if all(
                any(_divmod_monic(g, h, p)[1])
                for h in found
                if 2 * (len(h) - 1) <= d
            ):
                found.append(g)
    return found


def _factors(f, p, irreducibles):
    """The monic irreducible factors of a monic f over F_p, or None if f has
    a repeated factor; every factor of degree <= deg f / 2 is in
    irreducibles."""
    factors = []
    for g in irreducibles:
        if 2 * (len(g) - 1) > len(f) - 1:
            break
        quo, rem = _divmod_monic(f, g, p)
        if any(rem):
            continue
        if not any(_divmod_monic(quo, g, p)[1]):
            return None
        factors.append(g)
        f = quo
    if len(f) > 1:
        factors.append(f)
    return factors


def _factor_degrees(f, p, irreducibles):
    """Sorted factor degrees of a monic f over F_p, or None if f has a
    repeated factor."""
    factors = _factors(f, p, irreducibles)
    return None if factors is None else sorted(len(g) - 1 for g in factors)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ddf_matches_trial_division(p):
    irreducibles = _monic_irreducibles(p, 4)
    rng = Random(p)
    repeated = 0
    for _ in range(120):
        if rng.random() < 0.3:
            # g^2 h: never squarefree
            g = [rng.randrange(p) for _ in range(rng.randrange(1, 3))] + [1]
            h = [rng.randrange(p) for _ in range(rng.randrange(0, 5))] + [1]
            f = [c % p for c in _poly_mul(_poly_mul(g, g), h)]
        else:
            f = [rng.randrange(p) for _ in range(rng.randrange(1, 9))] + [1]
        expected = _factor_degrees(f, p, irreducibles)
        # hide f behind a unit leading coefficient and multiples of p
        unit = rng.randrange(1, p)
        coeffs = [unit * c + p * rng.randrange(-9, 10) for c in f]
        if expected is None:
            repeated += 1
            with pytest.raises(ValueError, match="not squarefree"):
                _kernel_py.ddf_degrees(coeffs, p)
        else:
            assert _kernel_py.ddf_degrees(coeffs, p) == expected, (f, p)
    assert repeated > 20


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ddf_parts_match_trial_division(p):
    # each part is the monic product of the factors of its degree
    irreducibles = _monic_irreducibles(p, 4)
    rng = Random(100 + p)
    checked = 0
    for _ in range(120):
        f = [rng.randrange(p) for _ in range(rng.randrange(1, 9))] + [1]
        factors = _factors(f, p, irreducibles)
        if factors is None:
            continue
        want = {}
        for g in factors:
            d = len(g) - 1
            want[d] = [c % p for c in _poly_mul(want.get(d, [1]), g)]
        unit = rng.randrange(1, p)
        coeffs = [unit * c + p * rng.randrange(-9, 10) for c in f]
        assert list(_kernel_py.ddf_parts(coeffs, p)) == sorted(want.items()), (f, p)
        # ddf_degrees hands the same parts to a caller's dict
        parts = {}
        degrees = _kernel_py.ddf_degrees(coeffs, p, parts=parts)
        assert parts == want and degrees == sorted(len(g) - 1 for g in factors), (f, p)
        checked += 1
    assert checked > 60


def _strip(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _gcd_monic(a, b, p):
    """Monic gcd of a and b over F_p, by Euclid."""
    a, b = _strip([c % p for c in a]), _strip([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, _strip(_divmod_monic(a, b, p)[1])
    return a


def _powmod(a, e, f, p):
    """a^e mod the monic f over F_p, by square-and-multiply on schoolbook
    products."""
    result = [1]
    while e:
        if e & 1:
            result = _divmod_monic(_poly_mul(result, a), f, p)[1]
        a = _divmod_monic(_poly_mul(a, a), f, p)[1]
        e >>= 1
    return result


def _ddf_square_and_multiply(coeffs, q):
    """Distinct-degree factorization degrees over F_q, or None if f is not
    squarefree: h = x^(q^d) mod f is raised to the q-th power afresh at
    every degree d, each gcd(f, h - x) is divided out exactly."""
    f = _strip([c % q for c in coeffs])
    inv = pow(f[-1], -1, q)
    f = [c * inv % q for c in f]
    deriv = [i * c for i, c in enumerate(f)][1:]
    if len(_gcd_monic(f, deriv, q)) != 1:
        return None
    degrees, d, h = [], 0, [0, 1]
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod(h, q, f, q)
        hx = h + [0] * (2 - len(h))
        hx[1] -= 1
        g = _gcd_monic(f, hx, q)
        if len(g) > 1:
            degrees += [d] * ((len(g) - 1) // d)
            f, rem = _divmod_monic(f, g, q)
            assert not any(rem)
            h = _divmod_monic(h, f, q)[1]
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return sorted(degrees)


def test_ddf_matches_square_and_multiply_oracle():
    rng = Random(7)
    primes = [2, 3, 5, 7, 11, 13, 101, 1048583, 2147483647]
    repeated = 0
    for trial in range(600):
        q = primes[trial % len(primes)]
        coeffs = [rng.randrange(-50, 50) for _ in range(rng.randrange(1, 10))] + [1]
        expected = _ddf_square_and_multiply(coeffs, q)
        if expected is None:
            repeated += 1
            with pytest.raises(ValueError, match="not squarefree"):
                _kernel_py.ddf_degrees(coeffs, q)
        else:
            assert _kernel_py.ddf_degrees(coeffs, q) == expected, (coeffs, q)
    assert repeated > 20


def _taylor_shift(coeffs, a):
    """coeffs(x + a), by Horner."""
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        out = _poly_mul(out, [a, 1])
        out[0] += c
    return out


def _osada(n):
    return [-1, -1] + [0] * (n - 2) + [1]


_PINNED_PRIMES = (1048583, 2097143, (1 << 62) - 57, (1 << 63) + 29)
_BAND = _taylor_shift(_poly_mul([-2] + [0] * 7 + [1], [-3] + [0] * 8 + [1]), 3141592653)

# recorded at commit 71230c9, whose kernel raised to the q-th power by
# schoolbook square-and-multiply at every degree step; one list per prime
# in _PINNED_PRIMES
_PINNED_DDF = [
    (_osada(17), [[2, 2, 4, 9], [1, 1, 1, 14], [6, 11], [3, 3, 4, 7]]),
    (_osada(22), [[4, 5, 13], [1, 4, 17], [1, 4, 17], [7, 15]]),
    (
        _osada(30),
        [[1, 1, 2, 4, 4, 18], [1, 5, 10, 14], [1, 2, 2, 5, 20], [1, 2, 3, 4, 20]],
    ),
    (
        _BAND,
        [
            [1, 1, 1, 2, 2, 2, 2, 6],
            [1, 1, 1, 2, 2, 2, 2, 2, 2, 2],
            [1, 1, 2, 2, 2, 3, 3, 3],
            [1, 1, 1, 1, 1, 1, 1, 1, 1, 8],
        ],
    ),
]


@pytest.mark.parametrize(
    "coeffs, expected", _PINNED_DDF, ids=["osada17", "osada22", "osada30", "band17"]
)
def test_ddf_pinned_large_degrees(coeffs, expected):
    for q, degrees in zip(_PINNED_PRIMES, expected):
        assert _kernel_py.ddf_degrees(coeffs, q) == degrees, q


def test_rank_mod_semantics(impl):
    rank, kept = impl.rank_mod([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 7)
    assert rank == 2
    assert list(kept) == [0, 2]  # row 1 is a multiple of row 0 mod 7
    rank, kept = impl.rank_mod([[0, 0], [0, 5]], 7)
    assert rank == 1 and list(kept) == [1]


def _greedy_independent(rows, p):
    """Indices of the rows independent of the kept rows before them over
    GF(p), by elimination on plain lists against a reduced echelon basis."""
    echelon = {}  # lead column -> row with 1 there and 0 in every other lead
    kept = []
    for idx, row in enumerate(rows):
        v = [x % p for x in row]
        for lead, e in echelon.items():
            if v[lead]:
                c = v[lead]
                v = [(a - c * b) % p for a, b in zip(v, e)]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inv = pow(v[lead], -1, p)
        v = [x * inv % p for x in v]
        for other, e in echelon.items():
            if e[lead]:
                c = e[lead]
                echelon[other] = [(a - c * b) % p for a, b in zip(e, v)]
        echelon[lead] = v
        kept.append(idx)
    return kept


def _seeded_matrices(p):
    """24 seeded integer matrices, some rows planted as combinations of
    earlier rows shifted by multiples of p."""
    rng = Random(p % 1000)
    for trial in range(24):
        ncols = 100 if trial < 3 else rng.randrange(1, 30)
        rows = []
        for _ in range(rng.randrange(1, ncols + 12)):
            if rows and rng.random() < 0.3:
                # planted: a combination of earlier rows, shifted by p
                row = [0] * ncols
                for src in rng.sample(rows, min(len(rows), 3)):
                    c = rng.randrange(-3, 4)
                    row = [a + c * b for a, b in zip(row, src)]
                rows.append([a + p * rng.randrange(-2, 3) for a in row])
            else:
                bound = rng.choice([p, 3 * p, 1 << 70])
                rows.append([rng.randrange(-bound, bound) for _ in range(ncols)])
        yield trial, rows


_ORACLE_PRIMES = [2, 3, (1 << 31) - 1, (1 << 61) - 1, (1 << 63) + 29]


@pytest.mark.parametrize("p", _ORACLE_PRIMES)
def test_rank_mod_matches_greedy_oracle(p):
    for trial, rows in _seeded_matrices(p):
        expected = _greedy_independent(rows, p)
        rank, kept = _kernel_py.rank_mod(rows, p)
        assert (rank, list(kept)) == (len(expected), expected), trial
    assert _kernel_py.rank_mod([], p) == (0, [])


@pytest.mark.parametrize("p", _ORACLE_PRIMES)
def test_row_echelon_fed_in_chunks_matches_greedy_oracle(p):
    # the Burnside walk feeds one echelon as it forms rows; what it keeps
    # must not depend on where the feeding breaks the row sequence
    chunks = Random(p % 1000 + 1)
    for trial, rows in _seeded_matrices(p):
        echelon = kernels.RowEchelon(p, len(rows[0]))
        kept, start = [], 0
        while start < len(rows):
            stop = min(start + chunks.randrange(1, 9), len(rows))
            kept += [i for i in range(start, stop) if echelon.add(rows[i])]
            start = stop
        assert kept == _greedy_independent(rows, p), trial
        assert len(echelon.pivots) == len(kept)


# sha256 of repr((add's bools, pivots)) over _seeded_matrices(p), first 16
# hex digits, as the echelon made them before it could record relations
_PIVOT_DIGESTS = {
    2: "32a2d5f9ea21feb7",
    3: "cadc398335f2e5c6",
    (1 << 31) - 1: "90abfd964743c039",
    (1 << 61) - 1: "00ed983fb9116ecd",
    (1 << 63) + 29: "ca4e386b6f024f65",
}


@pytest.mark.parametrize("p", _ORACLE_PRIMES)
def test_row_echelon_without_recording_is_unchanged(p):
    # recording is off by default: the same bools and the same packed pivots
    digest = hashlib.sha256()
    for trial, rows in _seeded_matrices(p):
        plain = kernels.RowEchelon(p, len(rows[0]))
        recording = kernels.RowEchelon(p, len(rows[0]), record=True)
        bools = [plain.add(row) for row in rows]
        assert [recording.add(row) for row in rows] == bools, trial
        # the recorded combination sits above the ncols slots of each row
        low = (1 << (plain.w * plain.ncols)) - 1
        assert [(shift, v & low) for shift, v in recording.pivots] == plain.pivots, trial
        digest.update(repr((bools, plain.pivots)).encode())
    assert digest.hexdigest()[:16] == _PIVOT_DIGESTS[p]


@pytest.mark.parametrize("p", [3, (1 << 31) - 1])
def test_row_echelon_relation_reproduces_each_dependent_row(p):
    # rank-deficient seeded matrices, zero rows and rows past full rank
    rng = Random(p % 1000 + 2)
    dependent = 0
    for trial, rows in _seeded_matrices(p):
        ncols = len(rows[0])
        rows = rows + [[0] * ncols] + [[rng.randrange(-p, p) for _ in range(ncols)]
                                       for _ in range(3)]
        rng.shuffle(rows)
        echelon = kernels.RowEchelon(p, ncols, record=True)
        kept = []
        for row in rows:
            if echelon.add(row):
                kept.append(row)
                continue
            dependent += 1
            relation = echelon.relation
            assert len(relation) == len(kept) and all(0 <= c < p for c in relation)
            combination = [sum(c * k[j] for c, k in zip(relation, kept)) for j in range(ncols)]
            assert [(a - b) % p for a, b in zip(row, combination)] == [0] * ncols, trial
    assert dependent >= 100


def _brute_reconstruction(u, m):
    bound = math.isqrt((m - 1) // 2)
    found = {  # every d, and the n = d u mod m of each, in [-bound, bound]
        (n // math.gcd(n, d), d // math.gcd(n, d))
        for d in range(1, bound + 1)
        for n in (d * u % m, d * u % m - m)
        if math.gcd(d, m) == 1 and abs(n) <= bound
    }
    assert len(found) <= 1  # 2 bound^2 < m
    return found.pop() if found else None


def test_rational_reconstruction_matches_brute_force():
    outcomes = set()
    for m in list(range(1, 80)) + [97 * 89, 2 * 3 * 5 * 7 * 11]:
        for u in range(-m, 2 * m):
            want = _brute_reconstruction(u, m)
            got = kernels.rational_reconstruction([u], m)
            assert got == (None if want is None else (want[1], [want[0]])), (u, m)
            outcomes.add("none" if want is None else "negative" if want[0] < 0 else "other")
    assert outcomes == {"none", "negative", "other"}


def test_rational_reconstruction_finds_a_common_denominator():
    # fractions n_i / D with D and |n_i| within the bound come back over
    # their least common denominator; residues of no such fractions may not
    rng = Random(47)
    for m in (10007, (1 << 31) - 1, ((1 << 31) - 1) * ((1 << 31) - 19)):
        bound = math.isqrt((m - 1) // 2)
        for _ in range(200):
            den = rng.randrange(1, bound + 1)
            fracs = [Fraction(rng.randrange(-bound, bound + 1), den)
                     for _ in range(rng.randrange(1, 8))]
            residues = [f.numerator * pow(f.denominator, -1, m) % m for f in fracs]
            lcm = math.lcm(*(f.denominator for f in fracs))
            assert kernels.rational_reconstruction(residues, m) == (
                lcm, [int(f * lcm) for f in fracs]), (m, fracs)


def test_crt_matches_brute_force():
    for m, q in ((1, 7), (4, 9), (10, 21), (2, (1 << 31) - 1)):
        for a in range(0, m, max(1, m // 5)):
            for b in range(0, q, max(1, q // 7)):
                x = kernels.crt(a, m, b, q)
                assert 0 <= x < m * q and x % m == a and x % q == b


@pytest.mark.parametrize("q", [3, 101, 2147483647])
def test_power_matches_square_and_multiply_oracle(q):
    # x, x + c and a general element, the three products power forms
    rng = Random(q)
    for _ in range(40):
        n = rng.randrange(2, 13)
        f = [rng.randrange(q) for _ in range(n)] + [1]
        ring = _kernel_py._PackedRing(f, q)
        general = [rng.randrange(q) for _ in range(n)]
        for a in (ring.x, [rng.randrange(1, q), 1] + [0] * (n - 2), general):
            e = rng.randrange(1, 1 << 40)
            want = _strip(_powmod(a, e, f, q))
            assert _strip(ring.power(a, e)) == want, (f, a, e)


def _roots(f, q):
    return {r for r in range(q) if sum(c * pow(r, i, q) for i, c in enumerate(f)) % q == 0}


@pytest.mark.parametrize("q", [3, 5, 7, 13, 31])
def test_find_root_matches_brute_force(q):
    rng = Random(q)
    misses = 0
    for _ in range(150):
        f = [rng.randrange(q) for _ in range(rng.randrange(1, 9))] + [rng.randrange(1, q)]
        roots = _roots(f, q)
        # hide f behind multiples of q, and a leading term that vanishes mod q
        coeffs = [c + q * rng.randrange(-9, 10) for c in f] + [q]
        got = _kernel_py.find_root(coeffs, q, rng)
        if roots:
            assert got in roots, (f, q)
        else:
            misses += 1
            assert got is None, (f, q)
    assert misses > 5
    with pytest.raises(ValueError, match="constant"):
        _kernel_py.find_root([4, q], q, rng)


def test_find_root_on_planted_roots():
    # distinct and repeated roots next to a quadratic without one, mod a
    # 31-bit prime where a root cannot be found by search
    q = 2147483647
    rng = Random(17)
    nonsquare = next(n for n in range(2, 100) if pow(n, (q - 1) // 2, q) == q - 1)
    for trial in range(30):
        planted = [rng.randrange(q) for _ in range(trial % 5)]
        if trial % 3 == 0 and planted:
            planted.append(planted[0])
        f = [-nonsquare, 0, 1]
        for r in planted:
            f = _poly_mul(f, [-r, 1])
        got = _kernel_py.find_root(f, q, rng)
        assert got in set(planted) if planted else got is None, trial


def _symmetric(c, m):
    c %= m
    return c - m if c > m // 2 else c


@pytest.mark.parametrize("q", [3, 5, 7])
def test_hensel_lift_is_the_unique_lift_dividing_f_mod_m(q):
    # brute force: among all monic G = g mod q with coefficients in
    # (-M/2, M/2], exactly one divides f mod M (M the least q^(2^k) above
    # 2 max(bounds)); hensel_lift returns it when every coefficient is
    # within its bound, and None otherwise
    irreducibles = _monic_irreducibles(q, 3)
    rng = Random(200 + q)
    outcomes = set()
    for trial in range(80):
        f = [rng.randrange(-30, 31) for _ in range(rng.randrange(2, 6))] + [1]
        factors = _factors([c % q for c in f], q, irreducibles)
        if factors is None or len(factors) < 2:
            continue
        chosen = [g for g in factors if rng.random() < 0.5] or factors[:1]
        if len(chosen) == len(factors):
            chosen = chosen[1:]
        g = [1]
        for x in chosen:
            g = [c % q for c in _poly_mul(g, x)]
        k = len(g) - 1
        big = q * q if trial % 3 else q**4  # the modulus the lift stops at
        if (big // q) ** k > 3000:
            continue
        top = rng.randrange(math.isqrt(big) + 1, big) // 2  # sqrt(big) <= 2 top < big
        bounds = [rng.randrange(top // 3, top + 1) for _ in range(k)] + [top]
        assert bounds[-1] == max(bounds)
        want = []
        for digits in itertools.product(range(big // q), repeat=k):
            cand = [_symmetric(c + q * i, big) for c, i in zip(g, digits)] + [1]
            if not any(_divmod_monic(f, cand, big)[1]):
                want.append(cand)
        assert len(want) == 1, (f, g, q)
        (lift,) = want
        within = all(abs(c) <= b for c, b in zip(lift, bounds))
        got = kernels.hensel_lift(f, g, q, bounds)
        assert got == (lift if within else None), (f, g, q, bounds)
        outcomes.add(within)
    assert outcomes == {True, False}


def test_hensel_lift_recovers_planted_factors():
    # f = g h over Z: where f is squarefree mod q the lift of g mod q is g,
    # up to 60-digit coefficients, and its quotient is h over Q
    rng = Random(61)
    lifted = 0
    for trial in range(150):
        size = 10 ** rng.choice((1, 3, 12, 60))
        g = [rng.randrange(-size, size + 1) for _ in range(rng.randrange(1, 7))] + [1]
        h = [rng.randrange(-size, size + 1) for _ in range(rng.randrange(1, 7))] + [1]
        f = _poly_mul(g, h)
        q = (3, 101, 1048583)[trial % 3]
        if _ddf_square_and_multiply(f, q) is None:
            continue
        bounds = [max(map(abs, g))] * len(g)
        lift = kernels.hensel_lift(f, [c % q for c in g], q, bounds)
        assert lift == g, (f, g, q)
        quo, rem = _fraction_divmod(f, lift)
        assert quo == h and not any(rem)
        lifted += 1
    assert lifted > 100


def _fraction_divmod(a, b):
    """Quotient and remainder of a by b over Q, in Fractions."""
    a = [Fraction(c) for c in a]
    quo = [Fraction(0)] * (len(a) - len(b) + 1)
    for i in range(len(quo) - 1, -1, -1):
        c = quo[i] = a[i + len(b) - 1] / b[-1]
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    return quo, a[: len(b) - 1]


def test_kronecker_product_matches_schoolbook():
    rng = Random(67)
    for _ in range(200):
        m = rng.choice((2, 7, 1048583, (1 << 61) - 1, 3**200))
        a = [rng.randrange(m) for _ in range(rng.randrange(0, 20))]
        b = [rng.randrange(m) for _ in range(rng.randrange(0, 20))]
        want = _strip([c % m for c in _poly_mul(a, b)]) if a and b else []
        assert _kernel_py.kmul(_strip(a), _strip(b), m) == want


def _shift_sum(values, w):
    return sum(v << (w * i) for i, v in enumerate(values))


# 0 and 1 slots, and both sides of each shifts-or-bytes crossover
_SLOT_COUNTS = sorted({0, 1, 2} | {c + d for c in (_kernel_py._PACK_BYTES_FROM,
                                                   _kernel_py._UNPACK_BYTES_FROM)
                                   for d in (-1, 0, 1)})


def test_slot_bits_is_the_least_multiple_of_8_above():
    for bits in range(200):
        w = kernels.slot_bits(bits)
        assert w % 8 == 0 and bits < w <= bits + 8


@pytest.mark.parametrize("w", [8, 16, 48, 72, 520, 4104])
def test_pack_matches_the_shift_sum_oracle(w):
    rng = Random(w)
    top = (1 << w) - 1
    for n in _SLOT_COUNTS:
        values = [rng.choice((0, top, rng.randrange(top + 1))) for _ in range(n)]
        if n:
            values[0], values[-1] = top, top  # both ends at the slot limit
        v = _kernel_py.pack(values, w)
        assert v == _shift_sum(values, w), (w, n)
        m = rng.choice((2, (1 << 31) - 1, rng.randrange(2, 1 << (w + 3))))
        assert _kernel_py.unpack(v, n, w, m) == [x % m for x in values], (w, n, m)
        assert _kernel_py.unpack(v, n, w, 1 << w) == values


@pytest.mark.parametrize("w", [8, 16, 48, 72, 520, 4104])
def test_signed_pack_matches_the_shift_sum_oracle(w):
    rng = Random(-w)
    half = 1 << (w - 1)
    for n in _SLOT_COUNTS:
        values = [rng.choice((-half, half - 1, rng.randrange(-half, half))) for _ in range(n)]
        if n > 1:
            values[0], values[-1] = -half, half - 1
        v = kernels.pack_signed(values, w)
        assert v == _shift_sum(values, w), (w, n)
        assert kernels.unpack_signed(v, n, w) == values, (w, n)
        if n:  # the top slot one past either end leaves the packed range
            for past in (-half - 1, half):
                with pytest.raises(ArithmeticError):
                    kernels.unpack_signed(_shift_sum(values[:-1] + [past], w), n, w)
