"""Post-optimal sensitivity analysis for LP solutions.

Branch-and-cut consumes more than the optimum from each relaxation:
reduced costs drive *reduced-cost fixing* (variables provably at their
bound in any improving solution), and dual values price constraint
tightenings.  These routines compute, from an optimal basis:

- reduced costs for every standard-form column;
- right-hand-side ranging (how far each ``b_i`` may move before the
  basis changes);
- cost ranging for nonbasic columns (how far ``c_j`` may move);
- reduced-cost fixing of integer variables given an incumbent.

The first three are exact consequences of ``B⁻¹`` via the same
ftran/btran kernels the simplex itself uses — on a GPU they would run
on the resident factors at zero transfer cost (§5.1's regime).  Fixing
reads only the reduced costs a warm node already carries, which is why
the branch-and-bound tree runs it at every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.config import DEFAULT_TOLERANCES
from repro.errors import LPError
from repro.la.updates import ProductFormInverse
from repro.lp.problem import StandardFormLP
from repro.lp.result import LPResult
from repro.lp.simplex import NULL_HOOK, rhs_at_bounds


@dataclass
class SensitivityReport:
    """Exact post-optimal ranges at a basic optimal solution."""

    #: Reduced cost d_j = c_j − yᵀA_j for every column (0 on basics).
    reduced_costs: np.ndarray
    #: Dual value per row.
    duals: np.ndarray
    #: (lo, hi) additive range for each b_i keeping the basis optimal.
    rhs_ranges: List[Tuple[float, float]]
    #: (lo, hi) additive range for each nonbasic c_j keeping it nonbasic.
    cost_ranges: List[Tuple[float, float]]


def analyze(sf: StandardFormLP, result: LPResult) -> SensitivityReport:
    """Sensitivity analysis at an optimal basic solution of ``sf``.

    Nonbasic columns sit at the bound ``result.at_upper`` names (0 when
    it is None).  Requires ``result`` to carry a basis (simplex solutions
    do; interior point ones do not and raise :class:`LPError`).
    """
    if result.basis is None or result.x_standard is None:
        raise LPError("sensitivity analysis needs a basic optimal solution")
    basis = np.asarray(result.basis, dtype=np.int64)
    m, n = sf.a.shape
    if (basis < 0).any() or (basis >= n).any():
        raise LPError("basis references columns outside the problem")

    pfi = ProductFormInverse(sf.a[:, basis])
    y = pfi.btran(sf.c[basis])
    reduced = sf.c - sf.a.T @ y
    reduced[basis] = 0.0

    at_upper = np.zeros(n, dtype=bool) if result.at_upper is None else result.at_upper
    x_basic = pfi.ftran(rhs_at_bounds(sf.a, sf.b, sf.upper, at_upper, NULL_HOOK))
    room = sf.upper[basis] - x_basic

    # RHS ranging: b_i -> b_i + t moves x_B by t * (B^-1 e_i); the basis
    # stays primal feasible while 0 <= x_B + t*col <= upper_B.
    rhs_ranges: List[Tuple[float, float]] = []
    for i in range(m):
        e_i = np.zeros(m)
        e_i[i] = 1.0
        col = pfi.ftran(e_i)
        lo, hi = -np.inf, np.inf
        for r in range(m):
            c_r = col[r]
            if abs(c_r) <= 1e-12:
                continue
            to_zero, to_upper = -x_basic[r] / c_r, room[r] / c_r
            if c_r > 0:
                lo, hi = max(lo, to_zero), min(hi, to_upper)
            else:
                lo, hi = max(lo, to_upper), min(hi, to_zero)
        rhs_ranges.append((lo, hi))

    # Cost ranging for nonbasic columns (maximization): a column at 0
    # stays there while d_j <= 0, so c_j may rise by at most -d_j; one
    # at its upper bound stays while d_j >= 0, so c_j may fall by d_j.
    nonbasic = np.ones(n, dtype=bool)
    nonbasic[basis] = False
    cost_ranges: List[Tuple[float, float]] = []
    for j in range(n):
        if not nonbasic[j]:
            cost_ranges.append((np.nan, np.nan))  # basic: not covered here
        elif at_upper[j]:
            cost_ranges.append((-float(reduced[j]), np.inf))
        else:
            cost_ranges.append((-np.inf, -float(reduced[j])))

    return SensitivityReport(
        reduced_costs=reduced,
        duals=y,
        rhs_ranges=rhs_ranges,
        cost_ranges=cost_ranges,
    )


def reduced_cost_fixing(
    d: np.ndarray,
    basis: np.ndarray,
    at_upper: Optional[np.ndarray],
    slack: float,
    lb: np.ndarray,
    ub: np.ndarray,
    integer_columns: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Integer bounds implied by reduced costs ``d`` and an incumbent.

    On the standard form (``x_p = x_i − lb_i``, ``0 ≤ x_p ≤ ub_i − lb_i``)
    an optimal basis with LP bound ``z`` gives, for every feasible point
    of the box, ``cᵀx ≤ z + d_p x_p`` for a column nonbasic at lower
    (``d_p < 0``) and ``cᵀx ≤ z − d_p (u_p − x_p)`` for one at upper
    (``d_p > 0``).  With ``slack = z − z_inc``, moving ``x_i`` more than
    ``⌊slack / |d_p|⌋`` away from its bound drops the LP bound strictly
    below the incumbent: ``ub_i ← lb_i + ⌊slack / −d_p⌋`` at lower,
    ``lb_i ← ub_i − ⌊slack / d_p⌋`` at upper.  A ratio within the
    integrality tolerance of an integer counts as that integer, so ties
    with the incumbent are kept.

    ``integer_columns[i]`` is variable ``i``'s column, or −1 where it is
    not tightened (continuous, or split in two columns).  One elementwise
    pass over ``d``; returns the tightened ``(lb, ub)``.
    """
    lb_out, ub_out = lb.copy(), ub.copy()
    if not slack >= 0.0:
        return lb_out, ub_out
    var = (integer_columns >= 0).nonzero()[0]
    col = integer_columns[var]
    nonbasic = np.ones(d.shape[0], dtype=bool)
    nonbasic[basis] = False
    upper = np.zeros(d.shape[0], dtype=bool) if at_upper is None else at_upper
    d_col, eps = d[col], DEFAULT_TOLERANCES.optimality
    down = nonbasic[col] & ~upper[col] & (d_col < -eps)
    up = nonbasic[col] & upper[col] & (d_col > eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.floor(slack / np.abs(d_col) + DEFAULT_TOLERANCES.integrality)
    i = var[down]
    ub_out[i] = np.minimum(ub[i], lb[i] + reach[down])
    i = var[up]
    lb_out[i] = np.maximum(lb[i], ub[i] - reach[up])
    return lb_out, ub_out
