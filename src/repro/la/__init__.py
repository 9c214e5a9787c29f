"""Linear-algebra substrate: dense/sparse/batched kernels built from scratch.

This package is the computational core the paper's GPU MIP solver relies
on (paper §4).  Everything is implemented on NumPy *primitives* (element
wise ops, slicing, matmul) rather than delegating to LAPACK drivers, so
the operation mix — and therefore the simulated-device cost accounting —
matches what a cuBLAS/MAGMA-backed solver would issue:

- :mod:`repro.la.dense` — LU (partial pivoting), Cholesky, Householder QR,
  triangular solves.
- :mod:`repro.la.updates` — product-form-of-inverse eta files and
  Sherman–Morrison rank-1 updates (paper §4.3, §5.1).
- :mod:`repro.la.sparse` — CSR/CSC matrices from scratch.
- :mod:`repro.la.sparse_lu` — Gilbert–Peierls left-looking sparse LU with
  symbolic analysis and level scheduling (GLU-style, paper §4.2).
- :mod:`repro.la.batch` — MAGMA-style batched factor/solve over 3-D
  arrays (paper §4.3, §5.5).
- :mod:`repro.la.flops` — analytic flop/byte counts used by the device
  cost model.
"""

from repro.la.dense import (
    LUFactors,
    back_substitution,
    cholesky,
    forward_substitution,
    lu_factor,
    lu_factor_blocked,
    lu_solve,
    qr_householder,
    qr_solve,
    solve,
)
from repro.la.sparse import CSCMatrix, CSRMatrix, coo_to_csr
from repro.la.sparse_lu import SparseLU, sparse_lu_factor
from repro.la.updates import (
    EtaFile,
    ExplicitInverse,
    ProductFormInverse,
    sherman_morrison_update,
)
from repro.la.batch import (
    batched_back_substitution,
    batched_cholesky,
    batched_forward_substitution,
    batched_gemm,
    batched_lu_factor,
    batched_lu_solve,
)

__all__ = [
    "LUFactors",
    "lu_factor",
    "lu_factor_blocked",
    "lu_solve",
    "solve",
    "cholesky",
    "qr_householder",
    "qr_solve",
    "forward_substitution",
    "back_substitution",
    "CSRMatrix",
    "CSCMatrix",
    "coo_to_csr",
    "SparseLU",
    "sparse_lu_factor",
    "EtaFile",
    "ExplicitInverse",
    "ProductFormInverse",
    "sherman_morrison_update",
    "batched_lu_factor",
    "batched_lu_solve",
    "batched_cholesky",
    "batched_gemm",
    "batched_forward_substitution",
    "batched_back_substitution",
]
