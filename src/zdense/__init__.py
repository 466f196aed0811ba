"""Exact-arithmetic certification of Zariski density in SL(n,Z) and
Sp(2n,Z) through large Galois groups of characteristic polynomials.

YES answers are certain, and so are adjoint-route NOs, Weyl NOs after a
certified word and Galois NOs from f's shape or a factor; other NO answers
are one-sided Monte Carlo with a caller-chosen error bound.
"""

from .galois import (
    GaloisAnswer,
    GaloisVerdict,
    has_long_prime_cycle,
    has_transposition_pattern,
    is_hyperoctahedral,
    is_sn,
    is_transitive,
    sumset,
)
from .kernels import BACKEND as KERNEL_BACKEND
from .matrices import (
    GeneratorSet,
    GroupKind,
    Matrix,
    adjugate_inverse,
    characteristic_polynomial,
    commutes,
    multiply,
    random_word,
    validate,
)
from .modular import factor_degrees_mod, is_prime, random_prime_avoiding
from .polynomials import (
    IntPoly,
    cyclotomic,
    discriminant,
    is_cyclotomic_product,
    is_reciprocal,
    l1_norm,
    mahler_bound,
    trace_polynomial,
)
from .zariski import (
    DensityVerdict,
    adjoint_matrices,
    general_zariski_dense,
    is_irreducible_algebra,
    zariski_dense,
)

__version__ = "0.1.0"

__all__ = [
    "GaloisAnswer",
    "GaloisVerdict",
    "GeneratorSet",
    "GroupKind",
    "IntPoly",
    "KERNEL_BACKEND",
    "Matrix",
    "DensityVerdict",
    "adjoint_matrices",
    "adjugate_inverse",
    "characteristic_polynomial",
    "commutes",
    "cyclotomic",
    "discriminant",
    "factor_degrees_mod",
    "general_zariski_dense",
    "has_long_prime_cycle",
    "has_transposition_pattern",
    "is_cyclotomic_product",
    "is_hyperoctahedral",
    "is_irreducible_algebra",
    "is_prime",
    "is_reciprocal",
    "is_sn",
    "is_transitive",
    "l1_norm",
    "mahler_bound",
    "multiply",
    "random_prime_avoiding",
    "random_word",
    "sumset",
    "trace_polynomial",
    "validate",
    "zariski_dense",
]
