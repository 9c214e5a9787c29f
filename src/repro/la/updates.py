"""Rank-1 basis updates: product form and explicit inverse.

Paper §4.3/§5.1: the defining linear-algebra pattern of a simplex-based
MIP solver is *not* one factorization per solve but a long chain of rank-1
updates to a resident basis matrix — variables entering and leaving the
basis — with periodic refactorization.  The product form of inverse (PFI)
represents ``B⁻¹`` as a chain of elementary "eta" matrices applied to an
initial LU factorization; each simplex iteration appends one eta and
performs *zero* host↔device transfers when the factors live on the device
(the paper's §5.1 claim, measured in experiment E4).

The modified product form of inverse the paper cites ([28], extended in
[31]) is exactly this eta-chain scheme.

:class:`ExplicitInverse` is the other §5.1 representation — ``B⁻¹`` held
as a dense matrix, each basis change one rank-1 GER on it — and is what
the warm dual simplex pivots on: a tree node takes a pivot or two on a
small basis, where one GEMV per solve beats two triangular sweeps plus
an eta chain (ablation A3 has the crossover).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.config import DEFAULT_TOLERANCES
from repro.errors import ShapeError, SingularMatrixError
from repro.la.dense import LUFactors, lu_factor, lu_solve


@dataclass(frozen=True)
class EtaFile:
    """One elementary (eta) matrix: identity except column ``pos``.

    Applying it costs O(n) — an axpy plus a scale — which is why a chain
    of etas is so much cheaper than refactorization per iteration
    (applied inline by :meth:`ProductFormInverse.ftran` / ``btran``).
    """

    pos: int
    column: np.ndarray  # full n-vector; column[pos] is the diagonal entry


def make_eta(w: np.ndarray, pos: int) -> EtaFile:
    """Build the eta matrix for replacing basis position ``pos``.

    ``w = B⁻¹ a_q`` is the ftran of the entering column; the update is
    singular when ``w[pos]`` vanishes (the entering column is dependent).
    """
    wr = float(w[pos])
    if abs(wr) <= DEFAULT_TOLERANCES.pivot:
        raise SingularMatrixError("eta update", wr)
    column = -np.asarray(w, dtype=np.float64) / wr
    column[pos] = 1.0 / wr
    return EtaFile(pos=pos, column=column)


class ProductFormInverse:
    """``B⁻¹`` as eta-chain ∘ LU(B₀), with refactorization support.

    This is the basis-management object the revised simplex keeps resident
    on the (simulated) device.  ``ftran`` solves ``B x = b``; ``btran``
    solves ``Bᵀ y = c``; ``update`` appends one eta per basis change.

    The eta representation differs from the true matrix E in
    :class:`EtaFile` only in bookkeeping: we store the *combined* column
    (off-pivot entries are the axpy coefficients, the pivot entry is the
    scale), so apply is two vector ops.

    Both solves go through :func:`lu_solve`, whose per-factorization
    constants live on the shared :class:`LUFactors`.  The eta file stays
    a list: applying it is sequential, and a blocked or multi-rhs form
    would reorder the sums the search's node counts are pinned to.
    """

    def __init__(self, basis_matrix: np.ndarray):
        n = basis_matrix.shape[0]
        if basis_matrix.ndim != 2 or basis_matrix.shape[1] != n:
            raise ShapeError(
                f"basis matrix must be square, got {basis_matrix.shape}"
            )
        self._n = n
        self._factors: LUFactors = lu_factor(basis_matrix)
        self._etas: List[EtaFile] = []

    @property
    def n(self) -> int:
        """Basis dimension."""
        return self._n

    @property
    def num_etas(self) -> int:
        """Number of rank-1 updates since the last refactorization."""
        return len(self._etas)

    def ftran(self, b: np.ndarray) -> np.ndarray:
        """Solve ``B x = b``: LU solve then apply etas oldest-first."""
        x = lu_solve(self._factors, b)
        for eta in self._etas:
            xr = x[eta.pos]
            if xr != 0.0:
                x = x + eta.column * xr
                x[eta.pos] = eta.column[eta.pos] * xr
            else:
                x[eta.pos] = 0.0
        return x

    def ftran_block(self, columns: np.ndarray) -> np.ndarray:
        """``ftran`` of each column of the m × L ``columns``, as one block.

        Solved column by column, so each result is the bits ``ftran``
        gives it alone (a flip run's candidates, :mod:`repro.lp.simplex`).
        """
        return np.stack([self.ftran(column) for column in columns.T], axis=1)

    def btran(self, c: np.ndarray) -> np.ndarray:
        """Solve ``Bᵀ y = c``: apply eta transposes newest-first, then LUᵀ."""
        y = np.array(c, dtype=np.float64, copy=True)
        for eta in reversed(self._etas):
            y[eta.pos] = float(eta.column @ y)
        return lu_solve(self._factors, y, transposed=True)

    def update(self, entering_column_ftran: np.ndarray, pos: int) -> None:
        """Record that basis position ``pos`` was replaced.

        ``entering_column_ftran`` must be ``self.ftran(a_q)`` for the
        entering column ``a_q`` (the simplex already computes it).
        """
        if entering_column_ftran.shape[0] != self._n:
            raise ShapeError(
                f"ftran column length {entering_column_ftran.shape[0]} != {self._n}"
            )
        self._etas.append(make_eta(entering_column_ftran, pos))

    def refactorize(self, basis_matrix: np.ndarray) -> None:
        """Drop the eta chain and refactorize the current basis matrix."""
        if basis_matrix.shape != (self._n, self._n):
            raise ShapeError(
                f"basis matrix shape {basis_matrix.shape} != ({self._n}, {self._n})"
            )
        self._factors = lu_factor(basis_matrix)
        self._etas = []


class ExplicitInverse:
    """``B⁻¹`` as a resident dense matrix, updated by rank-1 GERs.

    Same surface as :class:`ProductFormInverse` (``ftran`` / ``btran`` /
    ``update`` / ``refactorize`` / ``num_etas``) so the dual loop's
    refactor-interval rule reads the same on either, plus ``row``: a row
    of ``B⁻¹`` is a ``btran`` of a unit vector the matrix already holds.  The matrix
    is never written in place — ``update`` and ``refactorize`` rebind it
    — so ``clone`` shares it, which is how a child pivots on its
    parent's resident inverse without corrupting it for the sibling.
    """

    def __init__(self, basis_matrix: np.ndarray):
        self._inverse = _invert(basis_matrix)
        self._updates = 0

    @property
    def n(self) -> int:
        """Basis dimension."""
        return self._inverse.shape[0]

    @property
    def num_etas(self) -> int:
        """Number of rank-1 updates since the last refactorization."""
        return self._updates

    def ftran(self, b: np.ndarray) -> np.ndarray:
        """Solve ``B x = b``: one GEMV."""
        return self._inverse @ b

    def btran(self, c: np.ndarray) -> np.ndarray:
        """Solve ``Bᵀ y = c``: one transposed GEMV."""
        return c @ self._inverse

    def row(self, pos: int) -> np.ndarray:
        """Row ``pos`` of ``B⁻¹``, which is ``btran(e_pos)``: read, not
        solved for.

        A view of the resident matrix, which ``update`` and
        ``refactorize`` rebind and never write, so it keeps its values;
        the caller must not write to it.
        """
        return self._inverse[pos]

    def update(self, entering_column_ftran: np.ndarray, pos: int) -> None:
        """Replace basis position ``pos``: ``B⁻¹ ← E B⁻¹``, one GER.

        ``entering_column_ftran`` must be ``self.ftran(a_q)``; singular
        (the entering column is dependent) when its ``pos`` entry vanishes.
        """
        w = entering_column_ftran
        if w.shape[0] != self.n:
            raise ShapeError(f"ftran column length {w.shape[0]} != {self.n}")
        wr = float(w[pos])
        if abs(wr) <= DEFAULT_TOLERANCES.pivot:
            raise SingularMatrixError("inverse update", wr)
        pivot_row = self._inverse[pos] / wr
        inverse = self._inverse - np.outer(w, pivot_row)
        inverse[pos] = pivot_row
        self._inverse = inverse
        self._updates += 1

    def refactorize(self, basis_matrix: np.ndarray) -> None:
        """Re-invert the current basis matrix from scratch (LU + inverse)."""
        if basis_matrix.shape != self._inverse.shape:
            raise ShapeError(
                f"basis matrix shape {basis_matrix.shape} != {self._inverse.shape}"
            )
        self._inverse = _invert(basis_matrix)
        self._updates = 0

    def clone(self) -> "ExplicitInverse":
        """Independent handle on the same (never mutated) inverse."""
        copy = object.__new__(ExplicitInverse)
        copy._inverse = self._inverse
        copy._updates = self._updates
        return copy


def _invert(basis_matrix: np.ndarray) -> np.ndarray:
    """``B⁻¹`` as getrf + getri: factor, then solve for the identity."""
    return lu_solve(lu_factor(basis_matrix), np.eye(basis_matrix.shape[0]))
