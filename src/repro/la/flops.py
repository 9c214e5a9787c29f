"""Analytic flop and byte counts for the kernels the MIP solver issues.

These formulas drive the simulated-device cost model
(:mod:`repro.device.kernels`).  They use the standard dense counts from
Golub & Van Loan and treat a fused multiply-add as two flops, matching
how GPU vendors quote peak rates.
"""

from __future__ import annotations

FLOAT64_BYTES = 8
#: Bytes of one sparse index (32-bit column indices and row pointers).
INDEX_BYTES = 4


def gemm_flops(m: int, n: int, k: int) -> int:
    """Flops for C(m,n) += A(m,k) @ B(k,n)."""
    return 2 * m * n * k


def gemv_flops(m: int, n: int) -> int:
    """Flops for y(m) += A(m,n) @ x(n)."""
    return 2 * m * n


def dot_flops(n: int) -> int:
    """Flops for an n-element dot product."""
    return 2 * n


def axpy_flops(n: int) -> int:
    """Flops for y += alpha * x over n elements."""
    return 2 * n


def lu_flops(n: int) -> int:
    """Flops for LU factorization of an n×n matrix (2/3 n^3)."""
    return (2 * n ** 3) // 3


def cholesky_flops(n: int) -> int:
    """Flops for Cholesky factorization of an n×n matrix (1/3 n^3)."""
    return n ** 3 // 3


def trsv_flops(n: int) -> int:
    """Flops for a dense triangular solve with one right-hand side."""
    return n * n


def trsm_flops(n: int, nrhs: int) -> int:
    """Flops for a dense triangular solve with ``nrhs`` right-hand sides."""
    return n * n * nrhs


def spmv_flops(nnz: int) -> int:
    """Flops for sparse matrix-vector product with ``nnz`` stored entries."""
    return 2 * nnz


def sparse_lu_flops(factor_nnz: int) -> int:
    """Approximate flops for a sparse LU given the factor's fill-in.

    Gilbert–Peierls does ~2 flops per factor entry per update column; a
    widely used estimate is ``2 * sum_j (nnz in column j of L) * (nnz in
    row j of U)``, which we approximate as proportional to the square of
    the average column fill.  For the cost model we charge 4 flops per
    stored factor entry, the constant used by GLU-style analyses.
    """
    return 4 * factor_nnz


def gemm_bytes(m: int, n: int, k: int) -> int:
    """Bytes moved by a non-resident GEMM (read A, B; write C)."""
    return FLOAT64_BYTES * (m * k + k * n + m * n)


def gemv_bytes(m: int, n: int) -> int:
    """Bytes moved by a GEMV (read A, x; write y)."""
    return FLOAT64_BYTES * (m * n + n + m)


def vector_bytes(n: int) -> int:
    """Bytes for an n-element float64 vector."""
    return FLOAT64_BYTES * n


def matrix_bytes(m: int, n: int) -> int:
    """Bytes for a dense m×n float64 matrix."""
    return FLOAT64_BYTES * m * n


def csr_bytes(m: int, nnz: int) -> int:
    """Bytes for a CSR matrix: values + 32-bit column indices + row pointers."""
    return FLOAT64_BYTES * nnz + INDEX_BYTES * (nnz + m + 1)
