"""Linear program representation and standard-form conversion.

:class:`LinearProgram` is the user-facing form (paper Eq. 1):

    maximize  cᵀx
    s.t.      A_ub x ≤ b_ub
              A_eq x = b_eq
              lb ≤ x ≤ ub

:class:`StandardFormLP` is the solver-facing equality form the paper
describes ("the inequality Ax ≤ b can be replaced with equality with the
introduction of slack variables y ≥ 0"):

    maximize  ĉᵀx̂ + offset
    s.t.      Â x̂ = b̂,  x̂ ≥ 0

Conversion: finite lower bounds are shifted out, free variables are
split into positive/negative parts, finite upper bounds become rows,
and every inequality row gains a slack column.  The mapping back to
original variables is retained for postsolve.

:meth:`LinearProgram.to_bounded_form` is the same type's second layout,
the one the tree solves on: real rows only, finite upper bounds in
``upper``.  The row form stays the contract form; :func:`export_row_form`
and :func:`import_row_form` are the only code that knows both.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.errors import ProblemFormatError
from repro.lp.result import LPResult


@dataclass
class LinearProgram:
    """A maximization LP over dense data.

    Any of the constraint blocks may be ``None``; bounds default to
    ``x ≥ 0`` (lb=0, ub=+inf) when omitted.
    """

    c: np.ndarray
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=np.float64)
        n = self.n
        if self.a_ub is not None:
            self.a_ub = np.atleast_2d(np.asarray(self.a_ub, dtype=np.float64))
            self.b_ub = np.atleast_1d(np.asarray(self.b_ub, dtype=np.float64))
            if self.a_ub.shape[1] != n:
                raise ProblemFormatError(
                    f"a_ub has {self.a_ub.shape[1]} columns, expected {n}"
                )
            if self.a_ub.shape[0] != self.b_ub.shape[0]:
                raise ProblemFormatError("a_ub/b_ub row mismatch")
        elif self.b_ub is not None:
            raise ProblemFormatError("b_ub given without a_ub")
        if self.a_eq is not None:
            self.a_eq = np.atleast_2d(np.asarray(self.a_eq, dtype=np.float64))
            self.b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=np.float64))
            if self.a_eq.shape[1] != n:
                raise ProblemFormatError(
                    f"a_eq has {self.a_eq.shape[1]} columns, expected {n}"
                )
            if self.a_eq.shape[0] != self.b_eq.shape[0]:
                raise ProblemFormatError("a_eq/b_eq row mismatch")
        elif self.b_eq is not None:
            raise ProblemFormatError("b_eq given without a_eq")
        self.lb = (
            np.zeros(n) if self.lb is None else np.asarray(self.lb, dtype=np.float64)
        )
        self.ub = (
            np.full(n, np.inf)
            if self.ub is None
            else np.asarray(self.ub, dtype=np.float64)
        )
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise ProblemFormatError("bound vectors must have length n")
        if np.any(self.lb > self.ub + 1e-12):
            raise ProblemFormatError("lb > ub for some variable")

    @property
    def n(self) -> int:
        """Number of decision variables."""
        return self.c.shape[0]

    @property
    def num_ub_rows(self) -> int:
        """Number of inequality rows."""
        return 0 if self.a_ub is None else self.a_ub.shape[0]

    @property
    def num_eq_rows(self) -> int:
        """Number of equality rows."""
        return 0 if self.a_eq is None else self.a_eq.shape[0]

    def with_bounds(self, index: int, lb: float = None, ub: float = None) -> "LinearProgram":
        """Copy with one variable's bounds tightened (branching helper)."""
        new_lb = self.lb.copy()
        new_ub = self.ub.copy()
        if lb is not None:
            new_lb[index] = max(new_lb[index], lb)
        if ub is not None:
            new_ub[index] = min(new_ub[index], ub)
        return LinearProgram(
            c=self.c.copy(),
            a_ub=None if self.a_ub is None else self.a_ub.copy(),
            b_ub=None if self.b_ub is None else self.b_ub.copy(),
            a_eq=None if self.a_eq is None else self.a_eq.copy(),
            b_eq=None if self.b_eq is None else self.b_eq.copy(),
            lb=new_lb,
            ub=new_ub,
        )

    def with_bound_vectors(self, lb: np.ndarray, ub: np.ndarray) -> "LinearProgram":
        """This problem under other bounds (a B&B node: the root plus its
        path's tightenings).  ``c`` and the constraint blocks are shared
        and not validated again; the bounds are."""
        if np.any(lb > ub + 1e-12):
            raise ProblemFormatError("lb > ub for some variable")
        other = object.__new__(LinearProgram)
        other.__dict__.update(self.__dict__, lb=lb, ub=ub)
        return other

    def density(self) -> float:
        """Nonzero fraction of the combined constraint matrix."""
        blocks = [m for m in (self.a_ub, self.a_eq) if m is not None]
        if not blocks:
            return 0.0
        total = sum(m.size for m in blocks)
        nnz = sum(int(np.count_nonzero(m)) for m in blocks)
        return nnz / total if total else 0.0

    def to_standard_form(self) -> "StandardFormLP":
        """Convert to equality standard form with x ≥ 0."""
        return StandardFormLP.from_linear_program(self)

    def to_bounded_form(self) -> "StandardFormLP":
        """Equality form over the real rows only, ``0 ≤ x ≤ upper``.

        A finite upper bound becomes ``upper = ub - lb`` on the
        variable's column (0 for a fixed variable); only a variable free
        below keeps its bound row, its split columns cannot carry it.
        """
        return StandardFormLP.from_linear_program(self, bounded=True)

    def bounded_shape(self) -> tuple:
        """``to_bounded_form()``'s ``(m, n)``, without building it."""
        free = ~np.isfinite(self.lb)
        ineq = self.num_ub_rows + int((free & np.isfinite(self.ub)).sum())
        return ineq + self.num_eq_rows, self.n + int(free.sum()) + ineq


@dataclass
class StandardFormLP:
    """Equality-form LP: maximize cᵀx + offset s.t. Ax = b, 0 ≤ x ≤ upper."""

    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    offset: float = 0.0
    #: Number of *structural* columns before slacks were appended.
    num_structural: int = 0
    #: For original variable i: column of its positive part.
    pos_col: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    #: For original variable i: column of its negative part, or -1.
    neg_col: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    #: Shift applied to each original variable (its finite lb, else 0).
    shift: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: Column upper bounds; ``None`` ≡ all +inf (the row form, where
    #: every finite bound is a row of ``a``).
    upper: Optional[np.ndarray] = None

    @property
    def m(self) -> int:
        """Number of rows."""
        return self.a.shape[0]

    @property
    def n(self) -> int:
        """Number of columns (structural + slack)."""
        return self.a.shape[1]

    @classmethod
    def from_linear_program(
        cls, lp: LinearProgram, bounded: bool = False
    ) -> "StandardFormLP":
        """Build the row form, or the ``bounded`` layout (module docstring).

        Runs at every B&B node, hence index vectors and masks rather
        than a loop over variables (same single operation per entry).
        """
        n = lp.n
        # One structural column per variable with a finite lower bound
        # (shifted to 0), two for one free below: x_i = x⁺ - x⁻.
        finite_lb = np.isfinite(lp.lb)
        shift = np.zeros(n)
        shift[finite_lb] = lp.lb[finite_lb]
        width = 2 - finite_lb.astype(np.int64)
        pos_col = width.cumsum() - width
        neg_col = np.where(finite_lb, -1, pos_col + 1)
        num_structural = int(width.sum())
        # Per structural column: the original variable and its sign.
        col_var = np.arange(n).repeat(width)
        col_sign = np.ones(num_structural)
        col_sign[neg_col[~finite_lb]] = -1.0

        # Finite upper bounds become rows x_i ≤ ub_i - shift_i; in the
        # bounded layout only those of variables free below do.
        finite_ub = np.isfinite(lp.ub)
        ub_vars = (finite_ub & ~finite_lb if bounded else finite_ub).nonzero()[0]
        num_ub = lp.num_ub_rows
        num_ineq = num_ub + ub_vars.shape[0]
        num_eq = lp.num_eq_rows

        a = np.zeros((num_ineq + num_eq, num_structural + num_ineq))
        b = np.zeros(num_ineq + num_eq)
        if lp.a_ub is not None:
            a[:num_ub, :num_structural] = col_sign * lp.a_ub[:, col_var]
            b[:num_ub] = lp.b_ub - lp.a_ub @ shift
        ub_rows = np.arange(num_ub, num_ineq)
        a[ub_rows, pos_col[ub_vars]] = 1.0
        neg = neg_col[ub_vars]
        a[ub_rows[neg >= 0], neg[neg >= 0]] = -1.0
        b[num_ub:num_ineq] = lp.ub[ub_vars] - shift[ub_vars]
        # Every inequality row gains its slack column.
        ineq_rows = np.arange(num_ineq)
        a[ineq_rows, num_structural + ineq_rows] = 1.0
        if lp.a_eq is not None:
            a[num_ineq:, :num_structural] = col_sign * lp.a_eq[:, col_var]
            b[num_ineq:] = lp.b_eq - lp.a_eq @ shift

        c = np.zeros(num_structural + num_ineq)
        c[:num_structural] = col_sign * lp.c[col_var]
        upper = None
        if bounded:
            boxed = finite_ub & finite_lb
            upper = np.full(c.shape[0], np.inf)
            upper[pos_col[boxed]] = np.maximum(lp.ub[boxed] - shift[boxed], 0.0)
        return cls(
            c=c,
            a=a,
            b=b,
            offset=float(lp.c @ shift),
            num_structural=num_structural,
            pos_col=pos_col,
            neg_col=neg_col,
            shift=shift,
            upper=upper,
        )

    def rebounded(self, lp: LinearProgram) -> "StandardFormLP":
        """This bounded form under ``lp``'s bounds, ``lp`` being the
        problem it was built from with other ``lb`` / ``ub``.

        A tree node is the root form plus its bounds: ``a``, ``c`` and
        the index maps are shared (the matrix is resident and identical
        along every path), ``shift``, ``b``, ``offset`` and ``upper`` are
        fresh — by :meth:`from_linear_program`'s own expressions, so
        every float is the one ``lp.to_bounded_form()`` holds.  A
        variable free below changes the column layout with its bounds,
        so then the full builder runs.
        """
        shift = lp.lb
        if self.neg_col.max(initial=-1) >= 0 or not np.isfinite(shift).all():
            return lp.to_bounded_form()
        num_ub = lp.num_ub_rows
        b = np.empty(self.m)
        if lp.a_ub is not None:
            b[:num_ub] = lp.b_ub - lp.a_ub @ shift
        if lp.a_eq is not None:
            b[num_ub:] = lp.b_eq - lp.a_eq @ shift
        boxed = np.isfinite(lp.ub)
        upper = np.full(self.n, np.inf)
        upper[self.pos_col[boxed]] = np.maximum(lp.ub[boxed] - shift[boxed], 0.0)
        return replace(
            self, b=b, offset=float(lp.c @ shift), shift=shift, upper=upper
        )

    def with_appended_rows(
        self, rows: np.ndarray, rhs: np.ndarray
    ) -> "StandardFormLP":
        """Copy with extra ≤-rows appended (each gains a slack column).

        ``rows`` has shape (k, n_current) over the *current* columns; the
        result has k extra rows and k extra slack columns.  This is the
        cut-incorporation operation of paper §5.2 (and how branching
        could be done if bounds were rows).
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        rhs = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        k = rows.shape[0]
        if rows.shape[1] != self.n or rhs.shape[0] != k:
            raise ProblemFormatError(
                f"appended rows shape {rows.shape}/{rhs.shape} does not "
                f"match {self.n} columns"
            )
        m, n = self.m, self.n
        a = np.zeros((m + k, n + k))
        a[:m, :n] = self.a
        a[m:, :n] = rows
        a[m:, n:] = np.eye(k)
        b = np.concatenate([self.b, rhs])
        c = np.concatenate([self.c, np.zeros(k)])
        return StandardFormLP(
            c=c,
            a=a,
            b=b,
            offset=self.offset,
            num_structural=self.num_structural,
            pos_col=self.pos_col,
            neg_col=self.neg_col,
            shift=self.shift,
            upper=None
            if self.upper is None
            else np.concatenate([self.upper, np.full(k, np.inf)]),
        )

    def recover_x(self, x_standard: np.ndarray) -> np.ndarray:
        """Map a standard-form solution back to original variables."""
        x_standard = np.asarray(x_standard)
        x = x_standard[self.pos_col]
        split = self.neg_col >= 0
        x[split] -= x_standard[self.neg_col[split]]
        return x + self.shift

    def objective_value(self, x_standard: np.ndarray) -> float:
        """Objective (original space) of a standard-form solution."""
        return float(self.c @ x_standard) + self.offset


def _layouts(lp: LinearProgram, bf: StandardFormLP):
    """Where the bounded form ``bf`` of ``lp`` sits inside its row form.

    ``rows`` / ``cols`` are the row-form indices of ``bf``'s rows and
    columns; ``box_col`` are the structural columns whose bound is an
    ``upper`` entry in ``bf`` and a row in the row form, ``box_row`` /
    ``box_slack`` that row and its slack; ``(m, n)`` the row-form shape.
    """
    ub_vars = np.isfinite(lp.ub).nonzero()[0]
    boxed = np.isfinite(lp.lb[ub_vars])
    t_box, t_row = boxed.nonzero()[0], (~boxed).nonzero()[0]
    num_ub, first_slack = lp.num_ub_rows, bf.num_structural + lp.num_ub_rows
    eq_rows = num_ub + ub_vars.size + np.arange(lp.num_eq_rows)
    rows = np.concatenate([np.arange(num_ub), num_ub + t_row, eq_rows])
    cols = np.concatenate([np.arange(first_slack), first_slack + t_row])
    shape = (bf.m + t_box.size, bf.n + t_box.size)
    return rows, cols, bf.pos_col[ub_vars[t_box]], num_ub + t_box, first_slack + t_box, shape


def export_row_form(lp: LinearProgram, bf: StandardFormLP, result: LPResult) -> LPResult:
    """A basic optimum of ``bf = lp.to_bounded_form()`` in row-form indexing.

    The rule of the lockstep tableau's export: bound row ``j`` is basic
    in its slack unless ``x_j`` is nonbasic at upper (then in ``x_j``,
    so a basic ``x_j`` and its slack are both basic); its dual is
    ``max(d_j, 0)`` and its slack ``u_j − x_j``.  An artificial of
    ``bf``'s row ``p`` (a redundant row) stays that row's artificial.
    """
    if result.basis is None:
        return result
    rows, cols, box_col, box_row, box_slack, (m, n) = _layouts(lp, bf)
    x = np.zeros(n)
    x[cols] = result.x_standard
    x[box_slack] = np.maximum(bf.upper[box_col] - result.x_standard[box_col], 0.0)
    y = np.zeros(m)
    y[rows] = result.duals
    y[box_row] = np.maximum((bf.c - bf.a.T @ result.duals)[box_col], 0.0)
    basis = np.empty(m, dtype=np.int64)
    basis[rows] = np.concatenate([cols, n + rows])[result.basis]
    basis[box_row] = np.where(result.at_upper[box_col], box_col, box_slack)
    return replace(result, basis=basis, duals=y, x_standard=x, at_upper=None)


def import_row_form(lp: LinearProgram, bf: StandardFormLP, result: LPResult) -> LPResult:
    """The inverse of :func:`export_row_form`: a row-form basic optimum
    as ``bf``'s basis plus at-upper mask (``x_j`` basic with its bound
    slack nonbasic ≡ nonbasic at upper)."""
    if result.basis is None:
        return result
    rows, cols, box_col, _, box_slack, (m, n) = _layouts(lp, bf)
    at_upper = np.zeros(bf.n, dtype=bool)
    at_upper[box_col] = ~np.isin(box_slack, result.basis)
    to_bf = np.full(n + m, -1)
    to_bf[cols] = np.arange(bf.n)
    to_bf[n + rows] = bf.n + np.arange(bf.m)
    to_bf[at_upper.nonzero()[0]] = -1
    basis, x, y = to_bf[result.basis], result.x_standard[cols], result.duals[rows]
    return replace(
        result, basis=basis[basis >= 0], duals=y, x_standard=x, at_upper=at_upper
    )
