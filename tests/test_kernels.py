"""Backend parity: the compiled kernels must be bit-for-bit interchangeable
with the pure-Python twins, and ddf_degrees must agree with oracles that do
not share its code."""

import importlib.util
import itertools
import os
import re
import shutil
import sysconfig
from pathlib import Path
from random import Random

import pytest

from zdense import _kernel_py
from zdense import kernels

_SRC = Path(__file__).resolve().parent.parent / "src" / "zdense"


@pytest.fixture(scope="session")
def kernel_cy(tmp_path_factory):
    """zdense._kernel_cy compiled from the shipped _kernel_cy.c into a
    temporary directory (no Cython needed), loaded without touching src/."""
    compiler = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler ({compiler}) to build the compiled kernels")
    if not (Path(sysconfig.get_paths()["include"]) / "Python.h").exists():
        pytest.skip("no Python headers to build the compiled kernels")
    from setuptools import Distribution, Extension

    out = tmp_path_factory.mktemp("kernel_cy")
    ext = Extension("zdense._kernel_cy", [str(_SRC / "_kernel_cy.c")], extra_compile_args=["-O2"])
    build = Distribution({"ext_modules": [ext]}).get_command_obj("build_ext")
    build.build_lib, build.build_temp = str(out), str(out / "tmp")
    build.ensure_finalized()
    build.run()
    spec = importlib.util.spec_from_file_location(
        "zdense._kernel_cy", build.get_ext_fullpath("zdense._kernel_cy")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["zdense._kernel_py", "zdense._kernel_cy"])
def impl(request):
    if request.param == "zdense._kernel_py":
        return _kernel_py
    return request.getfixturevalue("kernel_cy")


def test_backend_reports_something():
    assert kernels.BACKEND in ("cython", "python")


def test_ddf_known_patterns(impl):
    assert impl.ddf_degrees([1, 0, 1], 5) == [1, 1]
    assert impl.ddf_degrees([1, 0, 1], 3) == [2]
    assert impl.ddf_degrees([0, -1, 0, 1], 5) == [1, 1, 1]
    assert impl.ddf_degrees([12, 0, 1], 13) == [1, 1]
    assert impl.ddf_degrees([-1, -1, 0, 1], 5) == [1, 2]
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


def _factor_degrees(f, p, irreducibles):
    """Sorted factor degrees of a monic f over F_p, or None if f has a
    repeated factor; every factor of degree <= deg f / 2 is in irreducibles."""
    degrees = []
    for g in irreducibles:
        if 2 * (len(g) - 1) > len(f) - 1:
            break
        quo, rem = _divmod_monic(f, g, p)
        if any(rem):
            continue
        if not any(_divmod_monic(quo, g, p)[1]):
            return None
        degrees.append(len(g) - 1)
        f = quo
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return sorted(degrees)


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
    # the last prime is above 2^63, where zdense.kernels always takes the
    # pure-Python kernel
    assert _PINNED_PRIMES[-1] >= 1 << 63
    for q, degrees in zip(_PINNED_PRIMES, expected):
        assert _kernel_py.ddf_degrees(coeffs, q) == degrees, q
        assert kernels.ddf_degrees(coeffs, q) == degrees, q


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


@pytest.mark.parametrize("p", [2, 3, (1 << 61) - 1, (1 << 63) + 29])
def test_rank_mod_matches_greedy_oracle(p):
    # above 2^63, zdense.kernels always takes the pure-Python kernel
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
        expected = _greedy_independent(rows, p)
        for impl in (_kernel_py, kernels):
            rank, kept = impl.rank_mod(rows, p)
            assert (rank, list(kept)) == (len(expected), expected), (trial, impl)
    assert _kernel_py.rank_mod([], p) == (0, [])


def test_ddf_backend_parity(kernel_cy):
    rng = Random(7)
    primes = [2, 3, 5, 7, 11, 13, 101, 1048583, 2147483647]
    for trial in range(600):
        q = primes[trial % len(primes)]
        deg = rng.randrange(1, 10)
        coeffs = [rng.randrange(-50, 50) for _ in range(deg)] + [1]
        try:
            a, err_a = _kernel_py.ddf_degrees(coeffs, q), None
        except ValueError:
            a, err_a = None, True
        try:
            b, err_b = kernel_cy.ddf_degrees(list(coeffs), q), None
        except ValueError:
            b, err_b = None, True
        assert (a, err_a) == (b, err_b), (coeffs, q)


def test_rank_backend_parity(kernel_cy):
    rng = Random(8)
    big_prime = (1 << 61) - 1  # Mersenne
    for trial in range(300):
        nrows = rng.randrange(1, 10)
        ncols = rng.randrange(1, 8)
        rows = [
            [rng.randrange(-(10**12), 10**12) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        p = (5, 97, big_prime)[trial % 3]
        ra, ka = _kernel_py.rank_mod(rows, p)
        rb, kb = kernel_cy.rank_mod(rows, p)
        assert (ra, list(ka)) == (rb, list(kb))


def test_wrapper_routes_large_moduli_to_python(kernel_cy, monkeypatch):
    # a 64-bit-plus modulus exceeds the compiled kernel's contract
    monkeypatch.setattr(kernels, "_compiled", kernel_cy)
    p = (1 << 89) - 1
    rows = [[1, 2], [2, 4]]
    assert kernels.rank_mod(rows, p) == _kernel_py.rank_mod(rows, p)


_MARKED = "# <<<<<<<<<<<<<<"


def _embedded_source_lines(c_text):
    """(pyx line number, marked line) for every source block that Cython
    copied into the generated C file."""
    blocks = re.finditer(r'/\* "zdense/_kernel_cy\.pyx":(\d+)\n(.*?)\*/', c_text, re.S)
    for block in blocks:
        marked = [l for l in block.group(2).splitlines() if l.endswith(_MARKED)]
        assert len(marked) == 1, block.group(0)
        yield int(block.group(1)), marked[0][len(" * "):-len(_MARKED)].rstrip()


def test_shipped_c_file_matches_pyx():
    # the tracked _kernel_cy.c must be generated from the current .pyx:
    # each embedded block marks line N of the .pyx it was compiled from
    pyx = (_SRC / "_kernel_cy.pyx").read_text().splitlines()
    embedded = list(_embedded_source_lines((_SRC / "_kernel_cy.c").read_text()))
    assert embedded
    for number, line in embedded:
        assert line == pyx[number - 1].rstrip(), (number, line)
