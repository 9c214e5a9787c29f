"""Dense factorizations and solves built on NumPy primitives.

These are the routines a GPU MIP solver would obtain from cuSOLVER /
MAGMA (paper §4.1): LU with partial pivoting, Cholesky, and the
triangular solves that consume them.  They are written as
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
    first use and kept for the life of the object, so every later solve
    on these factors — a ``ProductFormInverse``'s, through its whole eta
    chain — reuses them.  They are a host-side view of the
    same resident factors (a device footprint counts ``lu``/``piv``
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


def lu_factor(a: np.ndarray) -> LUFactors:
    """Right-looking LU factorization with partial pivoting.

    Raises :class:`SingularMatrixError` when no acceptable pivot exists at
    some step (matrix is singular to within ``DEFAULT_TOLERANCES.pivot``).
    """
    n = _require_square(a, "lu_factor")
    lu = np.array(a, dtype=np.float64, copy=True)
    piv = np.zeros(n, dtype=np.int64)
    for k in range(n):
        col = np.abs(lu[k:, k])
        pk = k + int(np.argmax(col))
        if np.abs(lu[pk, k]) <= DEFAULT_TOLERANCES.pivot:
            raise SingularMatrixError("lu_factor", float(lu[pk, k]))
        piv[k] = pk
        if pk != k:
            lu[[k, pk], :] = lu[[pk, k], :]
        if k + 1 < n:
            lu[k + 1 :, k] /= lu[k, k]
            # Rank-1 (outer product) trailing update — the GPU-shaped step.
            lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
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
