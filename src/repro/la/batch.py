"""MAGMA-style batched dense kernels over 3-D arrays.

Paper §4.3 and §5.5: the ideal GPU linear-algebra support for MIP is a
*batch* routine — the same factorization or solve applied to many small
independent matrices in one launch, so thousands of SIMD cores stay busy
and the per-kernel launch latency is paid once per batch instead of once
per matrix.  These routines operate on arrays of shape ``(k, n, n)`` /
``(k, n)`` and vectorize every elimination step **across the batch
dimension** — precisely the execution shape of a batched GPU kernel,
where step ``t`` of every matrix in the batch runs in lockstep.

Experiment E10 uses these to reproduce the batched-vs-looped crossover.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.config import DEFAULT_TOLERANCES
from repro.errors import ShapeError, SingularMatrixError


def _require_batch_square(a: np.ndarray, who: str) -> Tuple[int, int]:
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ShapeError(f"{who} requires shape (k, n, n), got {a.shape}")
    return a.shape[0], a.shape[1]


def batched_lu_factor(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """LU with partial pivoting on every matrix of a ``(k, n, n)`` batch.

    Returns ``(lu, piv)`` with ``lu`` packed as in
    :class:`repro.la.dense.LUFactors` and ``piv`` of shape ``(k, n)``.
    All k eliminations advance in lockstep; raises
    :class:`SingularMatrixError` naming the first singular batch member.
    """
    k, n = _require_batch_square(a, "batched_lu_factor")
    lu = np.array(a, dtype=np.float64, copy=True)
    piv = np.zeros((k, n), dtype=np.int64)
    batch_ids = np.arange(k)
    for step in range(n):
        col = np.abs(lu[:, step:, step])  # (k, n-step)
        rel = np.argmax(col, axis=1)
        pivots = col[batch_ids, rel]
        bad = pivots <= DEFAULT_TOLERANCES.pivot
        if bad.any():
            first = int(np.argmax(bad))
            raise SingularMatrixError(
                f"batched_lu_factor (batch member {first}, step {step})",
                float(pivots[first]),
            )
        pk = step + rel
        piv[:, step] = pk
        # Lockstep row swap: gather both rows across the batch and swap.
        need = pk != step
        if need.any():
            ids = batch_ids[need]
            rows_k = lu[ids, step, :].copy()
            lu[ids, step, :] = lu[ids, pk[need], :]
            lu[ids, pk[need], :] = rows_k
        if step + 1 < n:
            pivot_vals = lu[:, step, step][:, None]  # (k, 1)
            lu[:, step + 1 :, step] /= pivot_vals[:, 0][:, None]
            # Batched rank-1 trailing update via einsum (k outer products).
            lu[:, step + 1 :, step + 1 :] -= np.einsum(
                "ki,kj->kij", lu[:, step + 1 :, step], lu[:, step, step + 1 :]
            )
    return lu, piv


def batched_apply_pivots(b: np.ndarray, piv: np.ndarray) -> np.ndarray:
    """Apply recorded row swaps to a ``(k, n)`` batch of right-hand sides."""
    out = np.array(b, dtype=np.float64, copy=True)
    k, n = out.shape
    batch_ids = np.arange(k)
    for step in range(n):
        pk = piv[:, step]
        need = pk != step
        if need.any():
            ids = batch_ids[need]
            tmp = out[ids, step].copy()
            out[ids, step] = out[ids, pk[need]]
            out[ids, pk[need]] = tmp
    return out


def batched_forward_substitution(
    lower: np.ndarray, b: np.ndarray, unit_diagonal: bool = False
) -> np.ndarray:
    """Solve ``L x = b`` for every batch member (lockstep rows)."""
    k, n = _require_batch_square(lower, "batched_forward_substitution")
    if b.shape != (k, n):
        raise ShapeError(f"rhs shape {b.shape} != ({k}, {n})")
    x = np.array(b, dtype=np.float64, copy=True)
    for i in range(n):
        if i:
            x[:, i] -= np.einsum("kj,kj->k", lower[:, i, :i], x[:, :i])
        if not unit_diagonal:
            diag = lower[:, i, i]
            if np.any(diag == 0.0):
                raise SingularMatrixError("batched_forward_substitution", 0.0)
            x[:, i] /= diag
    return x


def batched_back_substitution(upper: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``U x = b`` for every batch member (lockstep rows)."""
    k, n = _require_batch_square(upper, "batched_back_substitution")
    if b.shape != (k, n):
        raise ShapeError(f"rhs shape {b.shape} != ({k}, {n})")
    x = np.array(b, dtype=np.float64, copy=True)
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[:, i] -= np.einsum("kj,kj->k", upper[:, i, i + 1 :], x[:, i + 1 :])
        diag = upper[:, i, i]
        if np.any(diag == 0.0):
            raise SingularMatrixError("batched_back_substitution", 0.0)
        x[:, i] /= diag
    return x


def batched_lu_solve(
    lu: np.ndarray, piv: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Solve ``A x = b`` for a batch from packed batched LU factors.

    ``lu``/``piv`` come from :func:`batched_lu_factor`; ``b`` has shape
    ``(k, n)``.
    """
    k, n = _require_batch_square(lu, "batched_lu_solve")
    if b.shape != (k, n):
        raise ShapeError(f"rhs shape {b.shape} != ({k}, {n})")
    y = batched_apply_pivots(b, piv)
    y = batched_forward_substitution(lu, y, unit_diagonal=True)
    return batched_back_substitution(lu, y)
