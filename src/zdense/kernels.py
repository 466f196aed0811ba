"""The hot kernels, ddf_degrees and rank_mod (see zdense._kernel_py).

Callers import them from here; BACKEND fills the reports' kernel_backend.
"""

from ._kernel_py import ddf_degrees, rank_mod

BACKEND = "python"
