"""Global numerical tolerances and solver defaults.

A single, explicit place for every magic number.  All solvers take their
defaults from :class:`Tolerances` / :class:`SolverDefaults` instances so
tests can tighten or loosen them without monkey-patching.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
    """Iteration budgets and cadence defaults for the solvers."""

    #: Simplex iteration limit as ``base + factor * (m + n)``.
    simplex_iter_base: int = 2000
    simplex_iter_factor: int = 40
    #: Refactorize the basis every this-many eta updates.
    refactor_interval: int = 64
    #: Interior-point maximum iterations.
    ipm_max_iter: int = 100
    #: Branch-and-bound node budget.
    node_limit: int = 200_000
    #: Maximum cut-generation rounds per node.
    cut_rounds: int = 4
    #: Maximum cuts accepted per round.
    cuts_per_round: int = 16

    def simplex_iter_limit(self, m: int, n: int) -> int:
        """Iteration budget for an ``m``-constraint, ``n``-variable LP."""
        return self.simplex_iter_base + self.simplex_iter_factor * (m + n)


#: Library-wide default tolerance set.
DEFAULT_TOLERANCES = Tolerances()

#: Library-wide default solver settings.
DEFAULT_SOLVER = SolverDefaults()


@dataclass
class Config:
    """Bundle of tolerances and defaults passed through solver stacks."""

    tolerances: Tolerances = field(default_factory=Tolerances)
    solver: SolverDefaults = field(default_factory=SolverDefaults)
    #: Seed used by any internal randomized tie-breaking.
    seed: int = 0


DEFAULT_CONFIG = Config()
