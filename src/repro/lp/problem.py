"""Problem records and standard-form conversion.

:class:`ProblemRecord` is the data of paper Eq. 1 without integrality,
the seven arrays of :data:`ARRAYS`:

    maximize  cᵀx
    s.t.      A_ub x ≤ b_ub
              A_eq x = b_eq
              lb ≤ x ≤ ub

:class:`LinearProgram` is that record as an LP, and
:class:`repro.mip.problem.MIPProblem` the same record plus an
integrality mask: the one place the arrays are declared and validated.

:class:`StandardFormLP` is the solver-facing equality form the paper
describes ("the inequality Ax ≤ b can be replaced with equality with the
introduction of slack variables y ≥ 0"):

    maximize  ĉᵀx̂ + offset
    s.t.      Â x̂ = b̂,  0 ≤ x̂ ≤ upper

Conversion: finite lower bounds are shifted out, free variables are
split into positive/negative parts, and every row gains a slack column
(an equality row's fixed at ``upper = 0``): the last m columns are the
identity.  A finite upper bound stays beside the matrix as its column's
``upper`` entry (``ub − lb``), so ``Â`` holds the real rows only and a
branch — one bound — never changes it; only a variable free below keeps
its bound as a row, its split columns cannot carry it.  The mapping
back to original variables is retained for postsolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import ProblemFormatError

#: The arrays of a :class:`ProblemRecord`, in the order every hash,
#: wire size and scan of one reads them.
ARRAYS = ("c", "a_ub", "b_ub", "a_eq", "b_eq", "lb", "ub")


@dataclass
class ProblemRecord:
    """A maximization problem's dense data (module docstring).

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
        if (self.lb > self.ub + 1e-12).any():
            raise ProblemFormatError("lb > ub for some variable")

    def arrays(self, copy: bool = False) -> Dict[str, Optional[np.ndarray]]:
        """The seven arrays by name (fresh copies with ``copy``): the
        keywords of a constructor or of ``dataclasses.replace``."""
        out = {name: getattr(self, name) for name in ARRAYS}
        if copy:
            out = {k: None if a is None else a.copy() for k, a in out.items()}
        return out

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

    def density(self) -> float:
        """Nonzero fraction of the combined constraint matrix."""
        blocks = [m for m in (self.a_ub, self.a_eq) if m is not None]
        if not blocks:
            return 0.0
        total = sum(m.size for m in blocks)
        nnz = sum(int(np.count_nonzero(m)) for m in blocks)
        return nnz / total if total else 0.0

    def matrix_bytes(self) -> int:
        """Dense footprint of the constraint blocks (device sizing)."""
        return sum(m.size * 8 for m in (self.a_ub, self.a_eq) if m is not None)

    def bounded_shape(self) -> tuple:
        """The standard form's ``(m, n)``, without building it."""
        free = ~np.isfinite(self.lb)
        m = self.num_ub_rows + self.num_eq_rows + int((free & np.isfinite(self.ub)).sum())
        return m, self.n + int(free.sum()) + m


class LinearProgram(ProblemRecord):
    """A maximization LP: the record as it is (no integrality)."""

    def with_bounds(self, index: int, lb: float = None, ub: float = None) -> "LinearProgram":
        """One variable's bounds tightened (a branching probe, a dive
        step): :meth:`with_bound_vectors` on fresh bound vectors."""
        new_lb = self.lb.copy()
        new_ub = self.ub.copy()
        if lb is not None:
            new_lb[index] = max(new_lb[index], lb)
        if ub is not None:
            new_ub[index] = min(new_ub[index], ub)
        return self.with_bound_vectors(new_lb, new_ub)

    def with_bound_vectors(self, lb: np.ndarray, ub: np.ndarray) -> "LinearProgram":
        """This problem under other bounds (a B&B node: the root plus its
        path's tightenings).  ``c`` and the constraint blocks are shared
        and not validated again; the bounds are."""
        if (lb > ub + 1e-12).any():
            raise ProblemFormatError("lb > ub for some variable")
        other = object.__new__(LinearProgram)
        other.__dict__.update(self.__dict__, lb=lb, ub=ub)
        return other

    def to_standard_form(self) -> "StandardFormLP":
        """Equality form over the real rows, ``0 ≤ x̂ ≤ upper`` (module docstring)."""
        return StandardFormLP.from_linear_program(self)


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
    #: Column upper bounds, +inf where there is none (a form built
    #: without them gets all +inf).
    upper: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.upper is None:
            self.upper = np.full(self.a.shape[1], np.inf)

    @property
    def m(self) -> int:
        """Number of rows."""
        return self.a.shape[0]

    @property
    def n(self) -> int:
        """Number of columns (structural + slack)."""
        return self.a.shape[1]

    @classmethod
    def from_linear_program(cls, lp: LinearProgram) -> "StandardFormLP":
        """Build the standard form of ``lp`` (module docstring).

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

        # Only a variable free below keeps its upper bound as a row,
        # x_i ≤ ub_i - shift_i.
        finite_ub = np.isfinite(lp.ub)
        ub_vars = (finite_ub & ~finite_lb).nonzero()[0]
        num_ub = lp.num_ub_rows
        num_ineq = num_ub + ub_vars.shape[0]
        m = num_ineq + lp.num_eq_rows

        a = np.zeros((m, num_structural + m))
        b = np.zeros(m)
        if lp.a_ub is not None:
            a[:num_ub, :num_structural] = col_sign * lp.a_ub[:, col_var]
            b[:num_ub] = lp.b_ub - lp.a_ub @ shift
        # (Split in two columns, unshifted.)
        ub_rows = np.arange(num_ub, num_ineq)
        a[ub_rows, pos_col[ub_vars]] = 1.0
        a[ub_rows, neg_col[ub_vars]] = -1.0
        b[num_ub:num_ineq] = lp.ub[ub_vars]
        # Every row gains its slack column, an equality row's fixed at 0.
        rows = np.arange(m)
        a[rows, num_structural + rows] = 1.0
        if lp.a_eq is not None:
            a[num_ineq:, :num_structural] = col_sign * lp.a_eq[:, col_var]
            b[num_ineq:] = lp.b_eq - lp.a_eq @ shift

        c = np.zeros(num_structural + m)
        c[:num_structural] = col_sign * lp.c[col_var]
        boxed = finite_ub & finite_lb
        upper = np.full(c.shape[0], np.inf)
        upper[pos_col[boxed]] = np.maximum(lp.ub[boxed] - shift[boxed], 0.0)
        upper[num_structural + num_ineq:] = 0.0
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
        """This form under ``lp``'s bounds, ``lp`` being the
        problem it was built from with other ``lb`` / ``ub``.

        A tree node is the root form plus its bounds: ``a``, ``c`` and
        the index maps are shared (the matrix is resident and identical
        along every path), ``shift``, ``b``, ``offset`` and ``upper`` are
        fresh — by :meth:`from_linear_program`'s own expressions, so
        every float is the one ``lp.to_standard_form()`` holds (a slack's
        ``upper`` kept).  A variable free below changes the column
        layout with its bounds, so then the full builder runs.
        """
        shift = lp.lb
        if self.neg_col.max(initial=-1) >= 0 or not np.isfinite(shift).all():
            return lp.to_standard_form()
        num_ub = lp.num_ub_rows
        b = np.empty(self.m)
        if lp.a_ub is not None:
            b[:num_ub] = lp.b_ub - lp.a_ub @ shift
        if lp.a_eq is not None:
            b[num_ub:] = lp.b_eq - lp.a_eq @ shift
        # An infinite ub stays +inf: the shift is finite here.
        upper = self.upper.copy()
        upper[self.pos_col] = np.maximum(lp.ub - shift, 0.0)
        # Every field is set here, so nothing goes through __init__.
        other = object.__new__(StandardFormLP)
        other.__dict__.update(
            self.__dict__, b=b, offset=float(lp.c @ shift), shift=shift, upper=upper
        )
        return other

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
            upper=np.concatenate([self.upper, np.full(k, np.inf)]),
        )

    def with_bounds_as_rows(self) -> "StandardFormLP":
        """This LP with every finite ``upper`` entry but a fixed column's 0
        posed as a row ``x̂_j + s = upper_j`` (:meth:`with_appended_rows`):
        the system a solver that cannot keep bounds beside the basis
        solves.  Columns and rows of ``self`` come first."""
        boxed = ((0.0 < self.upper) & (self.upper < np.inf)).nonzero()[0]
        rows = np.zeros((boxed.size, self.n))
        rows[np.arange(boxed.size), boxed] = 1.0
        posed = self.with_appended_rows(rows, self.upper[boxed])
        posed.upper[boxed] = np.inf
        return posed

    def recover_x(self, x_standard: np.ndarray) -> np.ndarray:
        """Map a standard-form solution back to original variables."""
        x_standard = np.asarray(x_standard)
        x = x_standard[self.pos_col]
        split = self.neg_col >= 0
        x[split] -= x_standard[self.neg_col[split]]
        return x + self.shift
