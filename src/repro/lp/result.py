"""LP solver result types."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np


class LPStatus(enum.Enum):
    """Terminal status of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    #: Cooperative deadline budget (:mod:`repro.guard`) expired mid-solve.
    TIME_LIMIT = "time_limit"
    #: A watchdog tripped (NaN/Inf iterates, divergence) and the engine
    #: surrendered the instance instead of iterating on garbage.
    NUMERICAL = "numerical"

    @property
    def ok(self) -> bool:
        """True when an optimal solution was proven."""
        return self is LPStatus.OPTIMAL

    @property
    def terminal(self) -> bool:
        """True for a definitive answer: optimal, infeasible or unbounded."""
        return self in (LPStatus.OPTIMAL, LPStatus.INFEASIBLE, LPStatus.UNBOUNDED)

    @property
    def anytime(self) -> bool:
        """True for budget-exhausted statuses that still carry an iterate."""
        return self in (LPStatus.ITERATION_LIMIT, LPStatus.TIME_LIMIT)


@dataclass
class LPResult:
    """Outcome of an LP solve in the *original* variable space."""

    status: LPStatus
    #: Objective value (maximization); meaningful only when optimal.
    objective: float = np.nan
    #: Primal solution in original variables; None unless optimal.
    x: Optional[np.ndarray] = None
    #: Dual values for the rows of the standard form (None if unavailable).
    duals: Optional[np.ndarray] = None
    #: Simplex iterations (or IPM iterations) used.
    iterations: int = 0
    #: Basic-variable indices in standard form (for warm starts).
    basis: Optional[np.ndarray] = None
    #: Nonbasic-at-upper mask over the columns of a form that carries
    #: ``upper`` (None on the row form: every nonbasic sits at 0).
    at_upper: Optional[np.ndarray] = None
    #: Standard-form primal solution (for cut generation / warm starts).
    x_standard: Optional[np.ndarray] = None
    #: Rich first-order detail (:class:`repro.lp.pdhg.PDHGResult`) when
    #: the solve came from an inexact first-order engine; None for the
    #: Fraction-exact vertex solvers.
    first_order: Optional[object] = None

    @property
    def ok(self) -> bool:
        """True when an optimal solution was proven."""
        return self.status.ok
