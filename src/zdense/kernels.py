"""Hot-kernel backend selection.

The compiled extension is used when it was built and the modulus fits in a
machine word; otherwise the pure-Python twin takes over.
"""

from __future__ import annotations

from typing import Sequence

from . import _kernel_py

_WORD_LIMIT = 1 << 63

try:
    from . import _kernel_cy as _compiled  # type: ignore[attr-defined]
except ImportError:
    _compiled = None

BACKEND = "cython" if _compiled is not None else "python"


def ddf_degrees(coeffs: Sequence[int], q: int) -> list[int]:
    """Sorted degrees of the irreducible factors of a squarefree polynomial
    mod q (distinct-degree factorization, no splitting within a degree)."""
    if _compiled is not None and q < _WORD_LIMIT:
        return _compiled.ddf_degrees(list(coeffs), q)
    return _kernel_py.ddf_degrees(coeffs, q)


def rank_mod(rows: Sequence[Sequence[int]], p: int) -> tuple[int, list[int]]:
    """Rank of an integer matrix mod p and the greedily kept pivot rows."""
    if _compiled is not None and p < _WORD_LIMIT:
        return _compiled.rank_mod([list(r) for r in rows], p)
    return _kernel_py.rank_mod(rows, p)
