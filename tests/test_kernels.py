"""Backend parity: the compiled kernels must be bit-for-bit interchangeable
with the pure-Python twins."""

import re
from pathlib import Path
from random import Random

import pytest

from zdense import _kernel_py
from zdense import kernels

try:
    from zdense import _kernel_cy
except ImportError:
    _kernel_cy = None

needs_compiled = pytest.mark.skipif(
    _kernel_cy is None, reason="compiled kernels not built"
)


def test_backend_reports_something():
    assert kernels.BACKEND in ("cython", "python")


@pytest.mark.parametrize("impl", [b for b in (_kernel_py, _kernel_cy) if b is not None])
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


@pytest.mark.parametrize("impl", [b for b in (_kernel_py, _kernel_cy) if b is not None])
def test_rank_mod_semantics(impl):
    rank, kept = impl.rank_mod([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 7)
    assert rank == 2
    assert list(kept) == [0, 2]  # row 1 is a multiple of row 0 mod 7
    rank, kept = impl.rank_mod([[0, 0], [0, 5]], 7)
    assert rank == 1 and list(kept) == [1]


@needs_compiled
def test_ddf_backend_parity():
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
            b, err_b = _kernel_cy.ddf_degrees(list(coeffs), q), None
        except ValueError:
            b, err_b = None, True
        assert (a, err_a) == (b, err_b), (coeffs, q)


@needs_compiled
def test_rank_backend_parity():
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
        rb, kb = _kernel_cy.rank_mod(rows, p)
        assert (ra, list(ka)) == (rb, list(kb))


@needs_compiled
def test_wrapper_routes_large_moduli_to_python():
    # a 64-bit-plus modulus exceeds the compiled kernel's contract
    p = (1 << 89) - 1
    rows = [[1, 2], [2, 4]]
    assert kernels.rank_mod(rows, p) == _kernel_py.rank_mod(rows, p)


_SRC = Path(__file__).resolve().parent.parent / "src" / "zdense"
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
