"""The hot kernels, ddf_degrees, find_root, RowEchelon and rank_mod, and
the lift helpers hensel_lift, crt and rational_reconstruction (see
zdense._kernel_py).  ddf_degrees reads the degree pattern off the
distinct-degree factorization, and fills a caller's dict with the
factorization itself, the product of the degree-d factors for each d, in
the same run; hensel_lift lifts a union of those parts to a candidate
factor over Z, for the Galois layer's exact factor NO.
find_root finds one root of a polynomial mod an odd prime by an
equal-degree split.  RowEchelon reduces each added row once against the
rows it has kept, and with record=True gives each dependent row's
coefficients on the kept rows mod p; rank_mod is one pass of rows through
it.  crt and rational_reconstruction turn such coefficients into
fractions, for the Burnside walk's exact NO check, and
rational_reconstruction also lifts the reduced echelon rows of Norton's
invariant subspaces.  The callers check every lift exactly.  kmul is one
product mod m; slot_bits, pack_signed and unpack_signed give the word fold
and the span check the kernels' packed-integer format.

Callers import them from here; BACKEND fills the reports' kernel_backend.
"""

from ._kernel_py import (
    RowEchelon, crt, ddf_degrees, find_root, hensel_lift, kmul, pack_signed, rank_mod,
    rational_reconstruction, slot_bits, unpack_signed,
)

BACKEND = "python"
