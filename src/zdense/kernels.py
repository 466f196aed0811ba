"""The hot kernels, ddf_degrees, find_root, RowEchelon and rank_mod (see
zdense._kernel_py).  find_root finds one root of a polynomial mod an odd
prime by an equal-degree split.  RowEchelon reduces each added row once
against the rows it has kept; rank_mod is one pass of rows through it.

Callers import them from here; BACKEND fills the reports' kernel_backend.
"""

from ._kernel_py import RowEchelon, ddf_degrees, find_root, rank_mod

BACKEND = "python"
