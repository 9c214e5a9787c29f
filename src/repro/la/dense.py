"""Dense factorizations and solves built on NumPy primitives.

These are the routines a GPU MIP solver would obtain from cuSOLVER /
MAGMA (paper §4.1): LU with partial pivoting, Cholesky, Householder QR,
and the triangular solves that consume them.  They are written as
right-looking outer-product algorithms — the same data-parallel shape the
GPU kernels use — with the per-column update vectorized, so the arithmetic
actually performed matches the analytic counts in :mod:`repro.la.flops`.

scipy/LAPACK drivers are intentionally *not* called here; tests use scipy
only as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.config import DEFAULT_TOLERANCES
from repro.errors import NotPositiveDefiniteError, ShapeError, SingularMatrixError


def _require_square(a: np.ndarray, who: str) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{who} requires a square 2-D matrix, got shape {a.shape}")
    return a.shape[0]


@dataclass(frozen=True)
class LUFactors:
    """Packed LU factorization ``P A = L U``.

    ``lu`` stores L strictly below the diagonal (unit diagonal implied)
    and U on/above it; ``piv`` holds, for each elimination step k, the row
    swapped with row k (LAPACK ``getrf`` convention).

    One factorization serves many solves, so it carries its *solve
    forms* (:attr:`row_order`, :attr:`transposed_triangles`): built on
    first use, kept for the life of the object and so shared by every
    ``ProductFormInverse.clone()``.  They are a host-side view of the
    same resident factors (``payload_nbytes`` counts ``lu``/``piv``
    only) and assume ``lu``/``piv`` are never written after construction.
    """

    lu: np.ndarray
    piv: np.ndarray

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.lu.shape[0]

    def lower(self) -> np.ndarray:
        """Explicit unit-lower-triangular L factor (copy)."""
        lower = np.tril(self.lu, -1)
        np.fill_diagonal(lower, 1.0)
        return lower

    def upper(self) -> np.ndarray:
        """Explicit upper-triangular U factor (copy)."""
        return np.triu(self.lu)

    @cached_property
    def row_order(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(perm, inverse)``: ``b[perm]`` is ``P b``, ``x[inverse]`` is ``Pᵀ x``
        (the ``piv`` swaps composed once; a gather moves the same bits)."""
        n = self.n
        perm = np.arange(n)
        for k, pk in enumerate(self.piv):
            perm[k], perm[pk] = perm[pk], perm[k]
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(n)
        return perm, inverse

    @cached_property
    def transposed_triangles(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(Uᵀ, strict Lᵀ)`` for ``Aᵀ x = b``, as *strided views*.

        Not contiguous copies: NumPy's dot rounds differently on a
        strided row (195 of 200 random n=8 transposed solves differ in
        the last bit; DESIGN.md "Priced launches and factor-time solve
        forms") and the search is pinned to the strided result.
        """
        return np.triu(self.lu).T, np.tril(self.lu, -1).T

    def permutation(self) -> np.ndarray:
        """Row permutation ``p`` such that ``A[p] = L @ U`` (a copy)."""
        return self.row_order[0].copy()


def lu_factor(a: np.ndarray, pivot_tol: float = DEFAULT_TOLERANCES.pivot) -> LUFactors:
    """Right-looking LU factorization with partial pivoting.

    Raises :class:`SingularMatrixError` when no acceptable pivot exists at
    some step (matrix is singular to within ``pivot_tol``).
    """
    n = _require_square(a, "lu_factor")
    lu = np.array(a, dtype=np.float64, copy=True)
    piv = np.zeros(n, dtype=np.int64)
    for k in range(n):
        col = np.abs(lu[k:, k])
        pk = k + int(np.argmax(col))
        if np.abs(lu[pk, k]) <= pivot_tol:
            raise SingularMatrixError("lu_factor", float(lu[pk, k]))
        piv[k] = pk
        if pk != k:
            lu[[k, pk], :] = lu[[pk, k], :]
        if k + 1 < n:
            lu[k + 1 :, k] /= lu[k, k]
            # Rank-1 (outer product) trailing update — the GPU-shaped step.
            lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return LUFactors(lu=lu, piv=piv)


def lu_factor_blocked(
    a: np.ndarray,
    block_size: int = 32,
    pivot_tol: float = DEFAULT_TOLERANCES.pivot,
) -> LUFactors:
    """Right-looking *blocked* LU with partial pivoting.

    The algorithm GPU libraries actually run: factor a narrow panel with
    the unblocked kernel, apply its row swaps across the matrix, solve
    the block row with a triangular solve, and update the trailing
    submatrix with one GEMM — turning 2/3·n³ of the work into large
    matrix-matrix multiplies.  Results are identical (same pivot choices)
    to :func:`lu_factor`.
    """
    n = _require_square(a, "lu_factor_blocked")
    lu = np.array(a, dtype=np.float64, copy=True)
    piv = np.zeros(n, dtype=np.int64)
    for k0 in range(0, n, block_size):
        k1 = min(k0 + block_size, n)
        # Panel factorization (unblocked on the tall panel).
        for k in range(k0, k1):
            col = np.abs(lu[k:, k])
            pk = k + int(np.argmax(col))
            if np.abs(lu[pk, k]) <= pivot_tol:
                raise SingularMatrixError("lu_factor_blocked", float(lu[pk, k]))
            piv[k] = pk
            if pk != k:
                lu[[k, pk], :] = lu[[pk, k], :]
            if k + 1 < n:
                lu[k + 1 :, k] /= lu[k, k]
                if k + 1 < k1:
                    # Rank-1 update restricted to the panel.
                    lu[k + 1 :, k + 1 : k1] -= np.outer(
                        lu[k + 1 :, k], lu[k, k + 1 : k1]
                    )
        if k1 < n:
            # Block row: solve L11 · U12 = A12 (unit lower triangular).
            l11 = np.tril(lu[k0:k1, k0:k1], -1) + np.eye(k1 - k0)
            for j in range(k1, n, block_size):
                j1 = min(j + block_size, n)
                rhs = lu[k0:k1, j:j1]
                for r in range(k1 - k0):
                    if r:
                        rhs[r] -= l11[r, :r] @ rhs[:r]
            # Trailing update: one big GEMM.
            lu[k1:, k1:] -= lu[k1:, k0:k1] @ lu[k0:k1, k1:]
    return LUFactors(lu=lu, piv=piv)


def forward_substitution(
    lower: np.ndarray, b: np.ndarray, unit_diagonal: bool = False
) -> np.ndarray:
    """Solve ``L x = b`` for lower-triangular ``L`` (vectorized per row)."""
    n = _require_square(lower, "forward_substitution")
    if b.shape[0] != n:
        raise ShapeError(f"rhs length {b.shape[0]} != matrix dim {n}")
    x = np.array(b, dtype=np.float64, copy=True)
    for i in range(n):
        if i:
            x[i] -= lower[i, :i] @ x[:i]
        if not unit_diagonal:
            diag = lower[i, i]
            if diag == 0.0:
                raise SingularMatrixError("forward_substitution", 0.0)
            x[i] /= diag
    return x


def back_substitution(upper: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``U x = b`` for upper-triangular ``U`` (vectorized per row)."""
    n = _require_square(upper, "back_substitution")
    if b.shape[0] != n:
        raise ShapeError(f"rhs length {b.shape[0]} != matrix dim {n}")
    x = np.array(b, dtype=np.float64, copy=True)
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= upper[i, i + 1 :] @ x[i + 1 :]
        diag = upper[i, i]
        if diag == 0.0:
            raise SingularMatrixError("back_substitution", 0.0)
        x[i] /= diag
    return x


def lu_solve(factors: LUFactors, b: np.ndarray, transposed: bool = False) -> np.ndarray:
    """Solve ``A x = b`` (or ``A^T x = b``) from a packed LU factorization.

    What depends on the factorization alone comes from its solve forms;
    per call: a row gather and the two row-oriented substitutions (same
    loops and operand layout as ever, hence the same bits).
    """
    lu = factors.lu
    n = lu.shape[0]
    if b.shape[0] != n:
        raise ShapeError(f"rhs length {b.shape[0]} != matrix dim {n}")
    perm, inverse = factors.row_order
    if not transposed:
        # Gather into a copy that keeps b's memory order (same dot kernels).
        y = np.array(b, dtype=np.float64, copy=True)
        y[...] = y[perm]
        y = forward_substitution(lu, y, unit_diagonal=True)
        return back_substitution(lu, y)
    # A^T x = b  =>  U^T y = b, L^T z = y, x = P^T z.
    ut, lt = factors.transposed_triangles
    y = forward_substitution(ut, np.asarray(b, dtype=np.float64))
    x = np.array(y, copy=True)
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= lt[i, i + 1 :] @ x[i + 1 :]
    x[...] = x[inverse]
    return x


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convenience: factor then solve ``A x = b``."""
    return lu_solve(lu_factor(a), b)


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    Right-looking outer-product form; raises
    :class:`NotPositiveDefiniteError` on a non-positive pivot.
    """
    n = _require_square(a, "cholesky")
    l = np.array(a, dtype=np.float64, copy=True)
    for k in range(n):
        pivot = l[k, k]
        if pivot <= 0.0 or not np.isfinite(pivot):
            raise NotPositiveDefiniteError(
                f"cholesky pivot {pivot:.3e} at step {k}"
            )
        root = np.sqrt(pivot)
        l[k, k] = root
        if k + 1 < n:
            l[k + 1 :, k] /= root
            l[k + 1 :, k + 1 :] -= np.outer(l[k + 1 :, k], l[k + 1 :, k])
    return np.tril(l)


def qr_householder(a: np.ndarray) -> tuple:
    """Householder QR of an m×n matrix (m ≥ n): returns ``(Q, R)``.

    Q is m×m orthogonal, R is m×n upper-trapezoidal.  Used by the
    interior-point method's least-squares fallback and exposed for
    completeness of the LAPACK-like surface the paper calls for.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"qr_householder requires a 2-D matrix, got {a.shape}")
    m, n = a.shape
    if m < n:
        raise ShapeError(f"qr_householder requires m >= n, got {a.shape}")
    r = a.copy()
    q = np.eye(m)
    for k in range(min(m - 1, n)):
        x = r[k:, k]
        normx = np.linalg.norm(x)
        if normx == 0.0:
            continue
        v = x.copy()
        v[0] += np.copysign(normx, x[0] if x[0] != 0 else 1.0)
        vnorm2 = v @ v
        if vnorm2 == 0.0:
            continue
        # Apply H = I - 2 v v^T / (v^T v) to the trailing block and to Q.
        r[k:, k:] -= np.outer(v, (2.0 / vnorm2) * (v @ r[k:, k:]))
        q[:, k:] -= np.outer(q[:, k:] @ v, (2.0 / vnorm2) * v)
    return q, np.triu(r)


def qr_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solve of ``A x ≈ b`` via Householder QR (m ≥ n)."""
    q, r = qr_householder(a)
    n = a.shape[1]
    rhs = q.T @ np.asarray(b, dtype=np.float64)
    return back_substitution(r[:n, :n], rhs[:n])
