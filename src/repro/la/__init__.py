"""Linear-algebra substrate: dense and batched kernels built from scratch.

This package is the computational core the paper's GPU MIP solver relies
on (paper §4).  Everything is implemented on NumPy *primitives* (element
wise ops, slicing, matmul) rather than delegating to LAPACK drivers, so
the operation mix — and therefore the simulated-device cost accounting —
matches what a cuBLAS/MAGMA-backed solver would issue:

- :mod:`repro.la.dense` — LU (partial pivoting), Cholesky, triangular
  solves.
- :mod:`repro.la.updates` — product-form-of-inverse eta files and the
  explicit inverse under rank-1 updates (paper §4.3, §5.1).
- :mod:`repro.la.batch` — MAGMA-style batched factor/solve over 3-D
  arrays (paper §4.3, §5.5).
- :mod:`repro.la.flops` — analytic flop/byte counts used by the device
  cost model.

The sparse side of the paper's §4.2 argument is *priced, not executed*:
:func:`repro.device.kernels.spmv_kernel` and the ``sparse_*`` builders
charge an SpMV / level-scheduled sparse LU at a given nnz and level
count; no sparse arithmetic runs (DESIGN.md "The device is a meter").
"""

from repro.la.dense import (
    LUFactors,
    back_substitution,
    cholesky,
    forward_substitution,
    lu_factor,
    lu_solve,
    solve,
)
from repro.la.updates import EtaFile, ExplicitInverse, ProductFormInverse
from repro.la.batch import (
    batched_back_substitution,
    batched_forward_substitution,
    batched_lu_factor,
    batched_lu_solve,
)

__all__ = [
    "LUFactors",
    "lu_factor",
    "lu_solve",
    "solve",
    "cholesky",
    "forward_substitution",
    "back_substitution",
    "EtaFile",
    "ExplicitInverse",
    "ProductFormInverse",
    "batched_lu_factor",
    "batched_lu_solve",
    "batched_forward_substitution",
    "batched_back_substitution",
]
