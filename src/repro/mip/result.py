"""MIP solver result types."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.mip.tree import BBTree


class MIPStatus(enum.Enum):
    """Terminal status of a branch-and-bound search."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NODE_LIMIT = "node_limit"
    UNBOUNDED = "unbounded"
    #: Cooperative deadline budget (:mod:`repro.guard`) expired: the
    #: result is *anytime* — best incumbent + certified dual bound + gap.
    TIME_LIMIT = "time_limit"
    #: LP iteration budgets exhausted even after escalation; the search
    #: stopped early with an anytime incumbent/bound instead of raising.
    ITERATION_LIMIT = "iteration_limit"

    @property
    def ok(self) -> bool:
        """True when optimality was proven."""
        return self is MIPStatus.OPTIMAL

    @property
    def terminal(self) -> bool:
        """True for a definitive answer: optimal, infeasible or unbounded."""
        return self in (MIPStatus.OPTIMAL, MIPStatus.INFEASIBLE, MIPStatus.UNBOUNDED)

    @property
    def anytime(self) -> bool:
        """True for budget-exhausted statuses carrying a partial answer."""
        return self in (
            MIPStatus.NODE_LIMIT,
            MIPStatus.TIME_LIMIT,
            MIPStatus.ITERATION_LIMIT,
        )


@dataclass
class MIPStats:
    """Search statistics for reports and benchmarks."""

    nodes_processed: int = 0
    lp_iterations: int = 0
    cuts_added: int = 0
    cut_rounds: int = 0
    warm_starts: int = 0
    cold_starts: int = 0
    heuristic_solutions: int = 0
    #: (nodes_processed, incumbent) history for gap plots.
    incumbent_history: List[Tuple[int, float]] = field(default_factory=list)
    #: Matrix "switches": evaluated node not a child of the previous one.
    matrix_switches: int = 0
    #: Total tree distance travelled between consecutive nodes (§5.3).
    reuse_distance: int = 0
    #: Guard escalation-ladder climbs triggered by unusable node LPs.
    escalations: int = 0
    #: LP pivots spent inside warm-started node re-solves.
    warm_pivots: int = 0
    #: LP pivots spent inside cold node solves.
    cold_pivots: int = 0
    #: Warm solves that pivoted on the parent's resident factorization.
    warm_factor_reuses: int = 0
    #: Warm answers discarded by the from-scratch KKT audit (cold re-run).
    warm_audit_failures: int = 0
    #: Feasibility-jump restarts launched by the portfolio phase.
    portfolio_restarts: int = 0
    #: Masked lockstep sweeps executed by the portfolio phase.
    portfolio_sweeps: int = 0
    #: Certified incumbents the portfolio phase produced.
    portfolio_incumbents: int = 0
    #: Simulated device seconds the portfolio phase charged.
    portfolio_seconds: float = 0.0
    #: Nodes processed when the first incumbent landed (-1 = never).
    first_incumbent_nodes: int = -1
    #: Engine-simulated seconds at the first incumbent (NaN = never).
    first_incumbent_seconds: float = float("nan")


@dataclass
class MIPResult:
    """Outcome of a branch-and-bound search."""

    status: MIPStatus
    objective: float = np.nan
    x: Optional[np.ndarray] = None
    #: Best proven upper bound (== objective when optimal).
    best_bound: float = np.inf
    stats: MIPStats = field(default_factory=MIPStats)
    #: The search tree (retained when options.keep_tree).
    tree: Optional[BBTree] = None
    #: Best distinct feasible solutions found, ``(objective, x)`` sorted
    #: best-first; length capped by ``SolverOptions.solution_pool_size``.
    solution_pool: List[Tuple[float, np.ndarray]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when optimality was proven."""
        return self.status.ok

    @property
    def gap(self) -> float:
        """Relative gap between incumbent and best bound."""
        if not np.isfinite(self.objective) or not np.isfinite(self.best_bound):
            return np.inf
        denom = max(1e-10, abs(self.objective))
        return abs(self.best_bound - self.objective) / denom
