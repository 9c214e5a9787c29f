"""Library-wide numerical tolerances and the simplex iteration budget.

The LP / MIP stack reads :data:`DEFAULT_TOLERANCES` and
:data:`DEFAULT_SOLVER` directly; nothing threads a copy through the
solver options.  A per-algorithm constant that only one module reads
lives next to its use instead (DESIGN.md, "Every knob has a caller").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared across the LP/MIP stack."""

    #: Feasibility tolerance on primal constraint violation.
    feasibility: float = 1e-7
    #: Optimality (reduced-cost / dual feasibility) tolerance.
    optimality: float = 1e-7
    #: A variable is considered integral when within this of an integer.
    integrality: float = 1e-6
    #: Pivot magnitudes below this are treated as zero in factorizations.
    pivot: float = 1e-10
    #: Relative MIP gap at which branch-and-bound declares optimality.
    mip_gap: float = 1e-6
    #: Absolute MIP gap companion to :attr:`mip_gap`.
    mip_gap_abs: float = 1e-9
    #: Entries below this are dropped when sparsifying.
    drop: float = 1e-12


@dataclass(frozen=True)
class SolverDefaults:
    """The simplex iteration budget, ``base + factor * (m + n)``."""

    simplex_iter_base: int = 2000
    simplex_iter_factor: int = 40

    def simplex_iter_limit(self, m: int, n: int) -> int:
        """Iteration budget for an ``m``-constraint, ``n``-variable LP."""
        return self.simplex_iter_base + self.simplex_iter_factor * (m + n)


#: Library-wide default tolerance set.
DEFAULT_TOLERANCES = Tolerances()

#: Library-wide default solver settings.
DEFAULT_SOLVER = SolverDefaults()
