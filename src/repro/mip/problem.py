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
from repro.lp.problem import LinearProgram, ProblemRecord

#: Default box for integer variables declared without finite bounds.
DEFAULT_INTEGER_BOUND = 1e6


@dataclass
class MIPProblem(ProblemRecord):
    """A maximization MIP: the LP record plus its integrality mask.

    Not a :class:`LinearProgram`: the serve tier and the solvers tell an
    LP from a MIP by that type.  ``integer`` is required; its default
    only lets it follow the record's defaulted fields.
    """

    integer: Optional[np.ndarray] = None  # bool mask, True where x_j ∈ ℤ
    name: str = "mip"

    def __post_init__(self):
        super().__post_init__()
        if self.integer is None:
            raise ProblemFormatError("a MIP needs its integer mask")
        self.integer = np.asarray(self.integer, dtype=bool)
        if self.integer.shape != (self.n,):
            raise ProblemFormatError(
                f"integer mask has shape {self.integer.shape}, expected ({self.n},)"
            )
        # Give unbounded integer variables a finite box and round bounds
        # in, into the record's own copy and only when a value changes:
        # the caller's arrays are never written (a tree node box is
        # read-only).
        idx = self.integer.nonzero()[0]
        if idx.size:
            held_lb, held_ub = self.lb[idx], self.ub[idx]
            lb = np.ceil(np.where(np.isfinite(held_lb), held_lb, -DEFAULT_INTEGER_BOUND) - 1e-9)
            ub = np.floor(np.where(np.isfinite(held_ub), held_ub, DEFAULT_INTEGER_BOUND) + 1e-9)
            for j, lo, hi in zip(idx, lb, ub):
                if lo > hi:
                    raise ProblemFormatError(
                        f"integer variable {j} has empty bound box [{lo}, {hi}]"
                    )
            if (lb != held_lb).any():
                self.lb = self.lb.copy()
                self.lb[idx] = lb
            if (ub != held_ub).any():
                self.ub = self.ub.copy()
                self.ub[idx] = ub

    @property
    def num_integer(self) -> int:
        """Number of integer-constrained variables."""
        return int(self.integer.sum())

    @property
    def is_pure_binary(self) -> bool:
        """True when every integer variable is 0/1."""
        idx = self.integer
        return bool(
            (self.lb[idx] >= 0.0).all() and (self.ub[idx] <= 1.0).all()
        )

    def restricted(self, lb: np.ndarray, ub: np.ndarray) -> "MIPProblem":
        """The same MIP confined to the bound box ``[lb, ub]`` (a sub-MIP)."""
        return replace(self, lb=lb, ub=ub)

    def relaxation(self) -> LinearProgram:
        """The LP relaxation (integrality dropped), on copies of the
        arrays: the tree holds it."""
        return LinearProgram(**self.arrays(copy=True))

    def is_feasible(self, x: np.ndarray) -> bool:
        """Check a candidate point against all constraints + integrality."""
        tol = DEFAULT_TOLERANCES
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            return False
        if self.a_ub is not None and (
            self.a_ub @ x > self.b_ub + tol.feasibility * 10
        ).any():
            return False
        if self.a_eq is not None and (
            np.abs(self.a_eq @ x - self.b_eq) > tol.feasibility * 10
        ).any():
            return False
        if (x < self.lb - tol.feasibility * 10).any():
            return False
        if (x > self.ub + tol.feasibility * 10).any():
            return False
        frac = np.abs(x[self.integer] - np.round(x[self.integer]))
        return bool((frac <= tol.integrality * 10).all())

    def objective(self, x: np.ndarray) -> float:
        """Objective value of a point."""
        return float(self.c @ np.asarray(x, dtype=np.float64))

    def fractional_integers(self, x: np.ndarray) -> np.ndarray:
        """Indices of integer variables with fractional values in ``x``."""
        idx = self.integer.nonzero()[0]
        frac = np.abs(x[idx] - np.round(x[idx]))
        return idx[frac > DEFAULT_TOLERANCES.integrality]
