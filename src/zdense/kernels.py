"""The hot kernels, ddf_degrees, find_root, RowEchelon and rank_mod, and
the lift helpers crt and rational_reconstruction (see zdense._kernel_py).
find_root finds one root of a polynomial mod an odd prime by an
equal-degree split.  RowEchelon reduces each added row once against the
rows it has kept, and with record=True gives each dependent row's
coefficients on the kept rows mod p; rank_mod is one pass of rows through
it.  crt and rational_reconstruction turn such coefficients into
fractions, for the Burnside walk's exact NO check.

Callers import them from here; BACKEND fills the reports' kernel_backend.
"""

from ._kernel_py import RowEchelon, crt, ddf_degrees, find_root, rank_mod, rational_reconstruction

BACKEND = "python"
