"""Knapsack cover cuts from binary ≤-rows.

A row ``Σ a_j x_j ≤ b`` over binary variables with a_j > 0 admits, for
any *cover* C (a set with Σ_{j∈C} a_j > b), the valid inequality
``Σ_{j∈C} x_j ≤ |C| − 1``.  The separation heuristic greedily builds a
minimal cover from the LP solution sorted by x̄_j descending, keeping
the cut only when the current point violates it.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.lp.problem import StandardFormLP
from repro.mip.cuts.pool import Cut
from repro.mip.problem import MIPProblem

#: Cover cuts one call may return.
MAX_CUTS = 8


def cover_cuts(problem: MIPProblem, sf: StandardFormLP, x: np.ndarray) -> List[Cut]:
    """Generate violated cover cuts in standard-form space.

    ``x`` is the LP solution in *original* variables.  Rows qualify when
    every variable with a nonzero coefficient is binary and the
    coefficients are positive.
    """
    if problem.a_ub is None:
        return []
    binary = (
        problem.integer
        & (problem.lb >= -1e-9)
        & (problem.ub <= 1.0 + 1e-9)
    )
    cuts: List[Cut] = []
    for i in range(problem.a_ub.shape[0]):
        if len(cuts) >= MAX_CUTS:
            break
        row = problem.a_ub[i]
        support = np.nonzero(np.abs(row) > 1e-12)[0]
        if support.size < 2:
            continue
        if not np.all(binary[support]) or np.any(row[support] <= 0):
            continue
        b = problem.b_ub[i]
        # Greedy cover: most fractional-valuable first.
        order = support[np.argsort(-x[support])]
        total = 0.0
        cover = []
        for j in order:
            cover.append(int(j))
            total += row[j]
            if total > b + 1e-9:
                break
        if total <= b + 1e-9:
            continue  # no cover exists along this ordering
        # Minimality: drop members that keep it a cover.
        cover_sorted = sorted(cover, key=lambda j: row[j])
        minimal = list(cover)
        for j in cover_sorted:
            if total - row[j] > b + 1e-9:
                minimal.remove(j)
                total -= row[j]
        if len(minimal) < 2:
            continue
        lhs = float(np.sum(x[minimal]))
        rhs = float(len(minimal) - 1)
        if lhs <= rhs + 1e-6:
            continue  # not violated
        # Map Σ_{j∈C} x_j ≤ |C|−1 into standard-form columns: a binary
        # has no split, but a node may have fixed it at 1 (shift 1).
        std_row = np.zeros(sf.n)
        for j in minimal:
            std_row[sf.pos_col[j]] = 1.0
        std_rhs = rhs - float(sf.shift[minimal].sum())
        cuts.append(
            Cut(row=std_row, rhs=std_rhs, violation=lhs - rhs, source="cover")
        )
    return cuts
