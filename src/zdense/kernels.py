"""The hot kernels, ddf_degrees, find_root, RowEchelon and rank_mod, and
the lift helpers hensel_lift, crt and rational_reconstruction (see
zdense._kernel_py).  ddf_degrees reads the degree pattern off the
distinct-degree factorization, and fills a caller's dict with the
factorization itself, the product of the degree-d factors for each d, in
the same run; hensel_lift lifts a union of those parts to a candidate
factor over Z, for the Galois layer's exact factor NO.
find_root finds one root of a polynomial mod an odd prime by an
equal-degree split.  RowEchelon reduces each added row once against the
rows it has kept, and reads off their reduced echelon form and a kernel
basis; rank_mod is one pass of rows through it.  crt and
rational_reconstruction lift a reduced echelon form mod p (by CRT over
further primes when p is not enough) to Q, for the Burnside layer's two
exact NO checks, the walk's span and Norton's invariant subspace.  The
callers check every lift exactly.  kmul is one
product mod m; slot_bits, pack_signed and unpack_signed give the word fold
and the span check the kernels' packed-integer format.

Callers import them from here; BACKEND fills the reports' kernel_backend.
"""

from ._kernel_py import (
    RowEchelon, crt, ddf_degrees, find_root, hensel_lift, kmul, pack_signed, rank_mod,
    rational_reconstruction, slot_bits, unpack_signed,
)

BACKEND = "python"
