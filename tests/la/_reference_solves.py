"""The pre-ISSUE-18 dense LU solve, kept verbatim as the test oracle.

This is ``repro.la.dense.lu_solve`` (and the helpers it called) exactly
as it stood before ``LUFactors`` started carrying its solve forms: row
pivots applied by a Python swap loop over ``piv`` on every call, and
``np.triu(lu).T`` / ``np.tril(lu, -1).T`` rebuilt inside every transposed
solve.  ``tests/la/test_solve_forms.py`` pins the production solve to it
bit for bit (values, signed zeros, dtype).  Test-only: nothing under
``src/`` imports this module.
"""

import numpy as np

from repro.errors import ShapeError, SingularMatrixError


def _require_square(a: np.ndarray, who: str) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{who} requires a square 2-D matrix, got shape {a.shape}")
    return a.shape[0]


def _apply_row_pivots(b: np.ndarray, piv: np.ndarray) -> np.ndarray:
    out = np.array(b, dtype=np.float64, copy=True)
    for k, pk in enumerate(piv):
        if pk != k:
            out[[k, pk]] = out[[pk, k]]
    return out


def _apply_row_pivots_transposed(b: np.ndarray, piv: np.ndarray) -> np.ndarray:
    out = np.array(b, dtype=np.float64, copy=True)
    for k in range(len(piv) - 1, -1, -1):
        pk = piv[k]
        if pk != k:
            out[[k, pk]] = out[[pk, k]]
    return out


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


def lu_solve(factors, b: np.ndarray, transposed: bool = False) -> np.ndarray:
    """Solve ``A x = b`` (or ``A^T x = b``) from a packed LU factorization."""
    n = factors.n
    if b.shape[0] != n:
        raise ShapeError(f"rhs length {b.shape[0]} != matrix dim {n}")
    lu = factors.lu
    if not transposed:
        y = _apply_row_pivots(b, factors.piv)
        y = forward_substitution(lu, y, unit_diagonal=True)
        return back_substitution(lu, y)
    # A^T x = b  =>  U^T y = b, L^T z = y, x = P^T z.
    y = forward_substitution(np.triu(lu).T, np.asarray(b, dtype=np.float64))
    lt = np.tril(lu, -1).T
    x = np.array(y, copy=True)
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= lt[i, i + 1 :] @ x[i + 1 :]
    return _apply_row_pivots_transposed(x, factors.piv)


def permutation(factors) -> np.ndarray:
    """Row permutation ``p`` such that ``A[p] = L @ U`` (the swap loop)."""
    perm = np.arange(factors.n)
    for k, pk in enumerate(factors.piv):
        perm[k], perm[pk] = perm[pk], perm[k]
    return perm
