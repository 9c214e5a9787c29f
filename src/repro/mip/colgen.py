"""Column generation for cutting stock (Gilmore–Gomory).

Paper §3.3 lists column generation among the "advanced heuristics" the
hybrid strategy's CPU side implements while GPUs do the heavy LP solves.
This module implements the classic setting:

*Cutting stock*: cut stock rolls of width ``W`` into item widths ``w_i``
with demands ``d_i``, minimizing rolls used.  The restricted master LP
holds one column per cutting *pattern*; the pricing subproblem — find a
pattern with reduced cost < 0 — is an integer knapsack, solved exactly
by dynamic programming.  Iterate master ↔ pricing until no improving
pattern exists, then recover an integer solution by branch-and-bound on
the generated columns.

On the platform of the paper, every master re-solve is a §5.1-style
warm re-solve on a device-resident matrix whose column set grows — the
same "incremental updates and reuse of matrices" the paper says vendor
libraries must support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ProblemFormatError, SolverError
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.warm import solve_lp
from repro.mip.problem import MIPProblem
from repro.mip.result import MIPStatus
from repro.mip.solver import BranchAndBoundSolver, SolverOptions


@dataclass
class CuttingStockInstance:
    """Stock width, item widths, and integer demands."""

    stock_width: float
    widths: np.ndarray
    demands: np.ndarray

    def __post_init__(self):
        self.widths = np.asarray(self.widths, dtype=np.float64)
        self.demands = np.asarray(self.demands, dtype=np.float64)
        if self.widths.shape != self.demands.shape:
            raise ProblemFormatError("widths/demands length mismatch")
        if np.any(self.widths <= 0) or np.any(self.widths > self.stock_width):
            raise ProblemFormatError("item widths must lie in (0, stock width]")
        if np.any(self.demands < 0):
            raise ProblemFormatError("demands must be non-negative")

    @property
    def num_items(self) -> int:
        """Distinct item widths."""
        return self.widths.shape[0]


@dataclass
class ColumnGenerationResult:
    """Outcome of the column-generation solve."""

    #: Minimum rolls in the final integer solution.
    rolls: float
    #: LP bound of the full master at termination.
    lp_bound: float
    #: Patterns generated (columns of the final master), items × patterns.
    patterns: np.ndarray
    #: Integer usage count per pattern.
    usage: np.ndarray
    #: Master LP re-solves performed.
    master_solves: int
    #: Pricing subproblems solved.
    pricing_rounds: int


def _integer_knapsack_best_pattern(
    widths: np.ndarray, values: np.ndarray, capacity: float
) -> Optional[np.ndarray]:
    """Max-value integer knapsack by DP over a discretized capacity.

    Returns the best pattern (counts per item) or None when no positive-
    value pattern exists.  Widths are scaled to integers exactly (they
    are generated as integers in tests/benchmarks).
    """
    w_int = np.round(widths).astype(np.int64)
    cap = int(np.floor(capacity + 1e-9))
    n = widths.shape[0]
    best = np.zeros(cap + 1)
    take = np.full(cap + 1, -1, dtype=np.int64)  # -1: waste one unit
    for c in range(1, cap + 1):
        best[c] = best[c - 1]
        for i in range(n):
            if w_int[i] <= c and values[i] > 0:
                candidate = best[c - w_int[i]] + values[i]
                if candidate > best[c] + 1e-12:
                    best[c] = candidate
                    take[c] = i
    if best[cap] <= 1e-9:
        return None
    pattern = np.zeros(n)
    c = cap
    while c > 0:
        i = int(take[c])
        if i < 0:
            c -= 1
        else:
            pattern[i] += 1
            c -= int(w_int[i])
    return pattern


#: Pricing rounds before column generation stops adding patterns.
MAX_ROUNDS = 200


def solve_cutting_stock(instance: CuttingStockInstance) -> ColumnGenerationResult:
    """Gilmore–Gomory column generation, then integer recovery.

    Raises :class:`SolverError` if the master LP ever fails (it cannot,
    structurally: the initial single-item patterns keep it feasible).
    """
    n = instance.num_items
    w = instance.widths
    d = instance.demands
    cap = instance.stock_width

    # Initial columns: one pattern per item, as many as fit on a roll.
    patterns: List[np.ndarray] = []
    for i in range(n):
        pattern = np.zeros(n)
        pattern[i] = np.floor(cap / w[i])
        patterns.append(pattern)

    master_solves = 0
    pricing_rounds = 0
    duals = np.zeros(n)

    for _ in range(MAX_ROUNDS):
        a = np.column_stack(patterns)  # items × patterns
        # Master: minimize pattern usage s.t. coverage >= demand.
        master = LinearProgram(
            c=-np.ones(a.shape[1]),          # maximize -(rolls)
            a_ub=-a,                          # -A x <= -d  ==  A x >= d
            b_ub=-d,
            ub=np.full(a.shape[1], float(d.sum())),
        )
        res = solve_lp(master)
        master_solves += 1
        if res.status is not LPStatus.OPTIMAL:
            raise SolverError(f"master LP failed with status {res.status}")
        # Duals of the coverage rows (the first n standard-form rows).
        # For max cᵀx s.t. Gx ≤ h these are the usual nonnegative row
        # prices, which equal the covering duals π directly.
        duals = res.duals[:n]

        pricing_rounds += 1
        pattern = _integer_knapsack_best_pattern(w, duals, cap)
        # Reduced cost of a pattern p: 1 - duals·p; improving iff > 1.
        if pattern is None or float(duals @ pattern) <= 1.0 + 1e-7:
            break
        patterns.append(pattern)
    else:
        raise SolverError("column generation did not converge")

    a = np.column_stack(patterns)
    lp_bound = -res.objective  # rolls lower bound (fractional)

    # Integer recovery: branch-and-bound over the generated columns.
    mip = MIPProblem(
        c=-np.ones(a.shape[1]),
        integer=np.ones(a.shape[1], dtype=bool),
        a_ub=-a,
        b_ub=-d,
        lb=np.zeros(a.shape[1]),
        ub=np.full(a.shape[1], float(d.sum())),
        name="cutting-stock-master",
    )
    int_res = BranchAndBoundSolver(mip, SolverOptions()).solve()
    if int_res.status is not MIPStatus.OPTIMAL:
        raise SolverError(f"integer master failed: {int_res.status}")

    return ColumnGenerationResult(
        rolls=-int_res.objective,
        lp_bound=lp_bound,
        patterns=a,
        usage=int_res.x,
        master_solves=master_solves,
        pricing_rounds=pricing_rounds,
    )
