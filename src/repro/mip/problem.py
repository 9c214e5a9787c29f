"""Mixed integer program definition (paper Eq. 1).

    maximize  cᵀx
    s.t.      A_ub x ≤ b_ub,  A_eq x = b_eq,  lb ≤ x ≤ ub
              x_j ∈ ℤ for j with integer[j]

Integer variables must carry *finite integral* bounds: finiteness makes
the standard-form matrix identical across the whole branch-and-bound
tree (only the right-hand side changes with branching bounds), which is
the matrix-reuse property the paper's §5.3 builds on, and integrality of
the bounds keeps branching floors/ceilings exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.config import DEFAULT_TOLERANCES
from repro.errors import ProblemFormatError
from repro.lp.problem import LinearProgram

#: Default box for integer variables declared without finite bounds.
DEFAULT_INTEGER_BOUND = 1e6


@dataclass
class MIPProblem:
    """A maximization MIP over dense data."""

    c: np.ndarray
    integer: np.ndarray  # bool mask, True where x_j ∈ ℤ
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None
    name: str = "mip"

    def __post_init__(self):
        # Delegate structural validation to LinearProgram.
        base = LinearProgram(
            c=self.c,
            a_ub=self.a_ub,
            b_ub=self.b_ub,
            a_eq=self.a_eq,
            b_eq=self.b_eq,
            lb=self.lb,
            ub=self.ub,
        )
        self.c = base.c
        self.a_ub, self.b_ub = base.a_ub, base.b_ub
        self.a_eq, self.b_eq = base.a_eq, base.b_eq
        self.lb, self.ub = base.lb, base.ub
        self.integer = np.asarray(self.integer, dtype=bool)
        if self.integer.shape != (self.n,):
            raise ProblemFormatError(
                f"integer mask has shape {self.integer.shape}, expected ({self.n},)"
            )
        # Give unbounded integer variables a finite box and round bounds in.
        for j in np.nonzero(self.integer)[0]:
            if not np.isfinite(self.lb[j]):
                self.lb[j] = -DEFAULT_INTEGER_BOUND
            if not np.isfinite(self.ub[j]):
                self.ub[j] = DEFAULT_INTEGER_BOUND
            self.lb[j] = np.ceil(self.lb[j] - 1e-9)
            self.ub[j] = np.floor(self.ub[j] + 1e-9)
            if self.lb[j] > self.ub[j]:
                raise ProblemFormatError(
                    f"integer variable {j} has empty bound box "
                    f"[{self.lb[j]}, {self.ub[j]}]"
                )

    @property
    def n(self) -> int:
        """Number of decision variables."""
        return self.c.shape[0]

    @property
    def num_integer(self) -> int:
        """Number of integer-constrained variables."""
        return int(self.integer.sum())

    @property
    def is_pure_binary(self) -> bool:
        """True when every integer variable is 0/1."""
        idx = self.integer
        return bool(
            np.all(self.lb[idx] >= 0.0) and np.all(self.ub[idx] <= 1.0)
        )

    def restricted(self, lb: np.ndarray, ub: np.ndarray) -> "MIPProblem":
        """The same MIP confined to the bound box ``[lb, ub]`` (a sub-MIP)."""
        return replace(self, lb=lb, ub=ub)

    def relaxation(self) -> LinearProgram:
        """The LP relaxation (integrality dropped)."""
        return LinearProgram(
            c=self.c.copy(),
            a_ub=None if self.a_ub is None else self.a_ub.copy(),
            b_ub=None if self.b_ub is None else self.b_ub.copy(),
            a_eq=None if self.a_eq is None else self.a_eq.copy(),
            b_eq=None if self.b_eq is None else self.b_eq.copy(),
            lb=self.lb.copy(),
            ub=self.ub.copy(),
        )

    def is_feasible(self, x: np.ndarray) -> bool:
        """Check a candidate point against all constraints + integrality."""
        tol = DEFAULT_TOLERANCES
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            return False
        if self.a_ub is not None and np.any(
            self.a_ub @ x > self.b_ub + tol.feasibility * 10
        ):
            return False
        if self.a_eq is not None and np.any(
            np.abs(self.a_eq @ x - self.b_eq) > tol.feasibility * 10
        ):
            return False
        if np.any(x < self.lb - tol.feasibility * 10):
            return False
        if np.any(x > self.ub + tol.feasibility * 10):
            return False
        frac = np.abs(x[self.integer] - np.round(x[self.integer]))
        return bool(np.all(frac <= tol.integrality * 10))

    def objective(self, x: np.ndarray) -> float:
        """Objective value of a point."""
        return float(self.c @ np.asarray(x, dtype=np.float64))

    def fractional_integers(self, x: np.ndarray) -> np.ndarray:
        """Indices of integer variables with fractional values in ``x``."""
        idx = np.nonzero(self.integer)[0]
        frac = np.abs(x[idx] - np.round(x[idx]))
        return idx[frac > DEFAULT_TOLERANCES.integrality]

    def matrix_bytes(self) -> int:
        """Dense footprint of the constraint blocks (device sizing)."""
        total = 0
        if self.a_ub is not None:
            total += self.a_ub.size * 8
        if self.a_eq is not None:
            total += self.a_eq.size * 8
        return total
